"""Every demo script runs to completion from a clean working directory,
and every ```python example in README.md holds as a doctest."""

import doctest
import glob
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
SRC = os.path.abspath(os.path.join(ROOT, "src"))
with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as _fp:
    # each block on its own: the closing fence is not expected output
    README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", _fp.read(),
                               re.MULTILINE | re.DOTALL)


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[os.path.basename(p) for p in DEMOS])
def test_demo_runs(path, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, path], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_readme_examples_found():
    assert README_BLOCKS


@pytest.mark.parametrize("index", range(len(README_BLOCKS)))
def test_readme_example(index):
    test = doctest.DocTestParser().get_doctest(
        README_BLOCKS[index], {}, "README.md[%d]" % index, "README.md", 0)
    assert test.examples
    assert doctest.DocTestRunner().run(test).failed == 0
