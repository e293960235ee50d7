import csv
import errno
import hashlib
import io
import json
import os
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from triparts import cli, cranks
from triparts.cli import build_parser, main, render_tiling_svg
from triparts.congruence import is_divisible
from triparts.cranks import (
    c_ls,
    case_labels,
    closed_form_table,
    cycle_decomposition,
    ehrhart_crank_closed_form,
    histogram,
    plan_crank,
    plan_for,
    plan_table,
    table_histogram,
)
from triparts.ehrhart import box_compose, tile_partition_triangle

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "docs", "cli-schema.json")

with open(SCHEMA_PATH, encoding="utf-8") as _fp:
    SCHEMA = json.load(_fp)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_exit(capsys, *argv):
    """run(), with an argparse exit read as its code, as a process ends."""
    try:
        return run(capsys, *argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


def check_schema(out):
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return doc


def test_decompose_exact_output(capsys):
    code, out, err = run(capsys, "decompose", "13", "4", "3")
    assert code == 0
    assert out == '{"mu":[5,2,1],"tau":[1,0,1]}\n'
    assert err == ""
    check_schema(out)


def test_decompose_rejects_non_partition(capsys):
    code, out, err = run(capsys, "decompose", "3", "4", "5")
    assert code == 2
    assert "error:" in err


def test_count_all_methods(capsys):
    code, out, _ = run(capsys, "count", "22")
    assert code == 0
    doc = check_schema(out)
    assert doc["command"] == "count"
    assert doc["outcome"] == "success"
    assert doc["payload"]["consistent"] is True
    assert set(doc["payload"]["values"].values()) == {40}


def test_count_single_method(capsys):
    code, out, _ = run(capsys, "count", "100", "--method", "circulator")
    assert code == 0
    doc = check_schema(out)
    assert doc["payload"]["value"] == 833


def test_count_negative_is_input_error(capsys):
    code, _, err = run(capsys, "count", "-4")
    assert code == 2
    assert err.startswith("error:")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_count_caps_the_brute_counter(capsys):
    code, out, _ = run(capsys, "count", "10000000000000000000000")
    assert code == 0
    doc = check_schema(out)
    values = doc["payload"]["values"]
    assert "brute" not in values
    assert set(values.values()) == {(10 ** 44 + 6) // 12}
    assert doc["payload"]["consistent"] is True
    assert "brute skipped" in doc["payload"]["notes"][0]
    code, out, err = run(capsys, "count", "10000001", "--method", "brute")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_hstar_report(capsys):
    code, out, _ = run(capsys, "hstar")
    assert code == 0
    doc = check_schema(out)
    assert doc["payload"]["h_star"] == [0, 0, 0, 1, 1, 2, 3, 4, 5, 4,
                                        5, 4, 3, 2, 1, 1, 0, 0]
    assert doc["payload"]["sum"] == 36
    assert doc["payload"]["symmetric"] is True
    assert doc["payload"]["gf_match"] is True


def test_residues_minus_family(capsys):
    code, out, _ = run(capsys, "residues", "5")
    assert code == 0
    doc = check_schema(out)
    assert doc["payload"]["family"] == "minus_one"
    assert doc["payload"]["period"] == 30
    assert doc["payload"]["residues"] == [0, 1, 2, 8, 11, 19, 22, 28, 29]
    assert doc["payload"]["sqrt_minus3"] is None
    assert "non_witnessed" not in doc["payload"]


def test_residues_plus_family(capsys):
    code, out, _ = run(capsys, "residues", "7")
    assert code == 0
    doc = check_schema(out)
    assert doc["payload"]["family"] == "plus_one"
    assert doc["payload"]["residues"] == [0, 1, 2, 9, 13, 16, 26, 29, 33, 40, 41]
    assert doc["payload"]["sqrt_minus3"] == [2, 5]
    assert doc["payload"]["non_witnessed"] == [9, 33]


def test_residues_unsupported_modulus(capsys):
    code, _, err = run(capsys, "residues", "6")
    assert code == 2
    assert "error:" in err


def test_verify_minus_family(capsys):
    code, out, _ = run(capsys, "verify", "5", "--max-n", "300")
    assert code == 0
    doc = check_schema(out)
    assert doc["outcome"] == "success"
    assert doc["payload"]["characterization_ok"] is True
    assert doc["payload"]["first_mismatch"] is None
    assert doc["payload"]["uniformity_violations"] == []


def test_verify_plus_family_notes_exceptions(capsys):
    code, out, _ = run(capsys, "verify", "7", "--max-n", "420")
    assert code == 0
    doc = check_schema(out)
    assert doc["payload"]["non_witnessed_residues"] == [9, 33]
    assert 9 in doc["payload"]["non_witnessed_nonuniform_heights"]
    assert any("non-witnessed" in note for note in doc["payload"]["notes"])


def test_verify_reports_a_characterization_mismatch(capsys, monkeypatch):
    # residue 8 left out for m = 5: p(8,3) = 5 is divisible, so the sweep
    # stops at n = 8 with no uniformity findings
    characterize = cli.characterize
    monkeypatch.setattr(cli, "characterize", lambda m: characterize(
        m)._replace(residues=characterize(m).residues - {8}))
    code, out, _ = run(capsys, "verify", "5", "--max-n", "300")
    assert code == 1
    doc = check_schema(out)
    assert doc["outcome"] == "failure"
    assert doc["payload"]["characterization_ok"] is False
    assert doc["payload"]["first_mismatch"] == 8
    assert doc["payload"]["uniformity_violations"] == []
    assert doc["payload"]["notes"] == []


def test_verify_reports_uniformity_violations(capsys, monkeypatch):
    # with no residue marked non-witnessed, the heights where c_ls is not
    # uniform although 7 | p(n,3) count as violations: n = 9, 33 mod 42
    monkeypatch.setattr(cli, "_non_witnessed", lambda ch: frozenset())
    code, out, _ = run(capsys, "verify", "7", "--max-n", "300")
    assert code == 1
    doc = check_schema(out)
    assert doc["outcome"] == "failure"
    assert doc["payload"]["characterization_ok"] is True
    assert doc["payload"]["first_mismatch"] is None
    assert doc["payload"]["uniformity_violations"] == [
        9, 33, 51, 75, 93, 117, 135, 159, 177, 201, 219, 243, 261, 285]
    assert doc["payload"]["non_witnessed_residues"] == []
    assert doc["payload"]["non_witnessed_nonuniform_heights"] == []
    assert doc["payload"]["notes"] == []


def test_verify_rejects_negative_max_n(capsys):
    code, out, err = run(capsys, "verify", "5", "--max-n", "-5")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_histogram_uniform_exit0(capsys):
    code, out, _ = run(capsys, "histogram", "22", "5", "--expect-uniform")
    assert code == 0
    doc = check_schema(out)
    assert doc["payload"]["counts"] == [8, 8, 8, 8, 8]
    assert doc["payload"]["uniform"] is True
    assert doc["payload"]["total"] == 40


def test_histogram_nonuniform_exit1(capsys):
    code, out, _ = run(capsys, "histogram", "9", "7", "--expect-uniform")
    assert code == 1
    doc = check_schema(out)
    assert doc["payload"]["counts"] == [1, 0, 1, 2, 1, 1, 1]


@pytest.mark.parametrize("m", ["0", "-3"])
@pytest.mark.parametrize("fast", [[], ["--fast"]])
def test_histogram_rejects_nonpositive_modulus(capsys, m, fast):
    code, out, err = run(capsys, "histogram", "10", m, *fast)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_histogram_fast_matches_enumeration(capsys):
    # the CLI counts c_ls by rows; enumeration is the library reference
    ref = histogram(151, 5, c_ls).counts
    for fast in ([], ["--fast"]):
        _, out, _ = run(capsys, "histogram", "151", "5", *fast)
        assert json.loads(out)["payload"] == {
            "counts": list(ref), "uniform": len(set(ref)) == 1,
            "total": sum(ref)}


@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["count", "10"],
                                  ["rectangle", "5", "3", "--", "-1"]])
def test_closed_stdout_is_an_input_error(argv, unbuffered):
    # the read end is closed before the child starts, so its first write
    # (unbuffered) or its flush (buffered) to stdout fails with EPIPE
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "triparts.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_histogram_plan_crank(capsys):
    code, out, _ = run(capsys, "histogram", "38", "5", "--crank", "plan",
                       "--r-prime", "2m-2", "--expect-uniform")
    assert code == 0
    doc = check_schema(out)
    assert doc["inputs"]["crank"] == "plan:2m-2"
    assert doc["payload"]["total"] == 120
    assert run(capsys, "histogram", "40", "5", "--crank", "plan") == (
        2, "", "error: remainder (2, 1, 1) of (38, 1, 1) has no placement "
        "in plan 2m-2\n")


def test_histogram_closed_form(capsys):
    # n = 38 lies on the 2m-2 progression for m = 5 (8 + 30)
    code, out, _ = run(capsys, "histogram", "38", "5", "--crank", "closed",
                       "--expect-uniform")
    assert code == 0
    doc = check_schema(out)
    assert doc["payload"]["counts"] == [24] * 5
    # the table has no remainder of this height: enumeration names the
    # first partition the closed form rejects
    assert run(capsys, "histogram", "21", "5", "--crank", "closed") == (
        2, "", "error: height 21 is not 2 mod 6; closed form does not "
        "apply\n")
    code, out, err = run(capsys, "histogram", "2", "5", "--crank", "closed")
    assert (code, err) == (0, "")
    assert json.loads(out)["payload"] == {"counts": [0] * 5, "uniform": True,
                                          "total": 0}
    # the table builds no plan, so a modulus with none (7 = 1 mod 6) works
    code, out, err = run(capsys, "histogram", "44", "7", "--crank", "closed")
    assert (code, err) == (0, "")
    assert json.loads(out)["payload"]["counts"] == list(
        histogram(44, 7, ehrhart_crank_closed_form).counts)


def test_histogram_errors_match_the_enumeration_route(capsys):
    # where the table has no entry for a remainder, the CLI calls the crank
    # on one row-class head; enumeration names the same partition
    cases = [(m, ["--crank", "plan", "--r-prime=" + label],
              plan_table(plan_for(label, m)), plan_crank(plan_for(label, m)))
             for label in case_labels() for m in (5, 11, 17)]
    cases += [(m, ["--crank", "closed"], closed_form_table(),
               ehrhart_crank_closed_form) for m in (5, 11, 17)]
    checked = 0
    for n, (m, flags, table, crank) in [(n, case) for case in cases
                                        for n in range(260)]:
        if table_histogram(n, m, table) is not None:
            continue
        with pytest.raises(ValueError) as exc:
            histogram(n, m, crank)
        argv = ["histogram", str(n), str(m), *flags]
        assert run(capsys, *argv) == (2, "", "error: %s\n" % exc.value), argv
        checked += 1
    assert checked == 6429


_LIMITED = """
import resource, sys, time
limit = 1 << 30
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from triparts.cli import main
start = time.monotonic()
code = main(sys.argv[1:])
print(time.monotonic() - start)
sys.exit(code)
"""


@pytest.mark.parametrize("argv", [
    ("histogram", "100001", "5", "--crank", "closed"),
    ("histogram", "100000", "5", "--crank", "plan"),
])
def test_histogram_errors_cost_the_row_classes(argv):
    # enumerating P(n,3) here would need far more than the 1 GiB cap
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", _LIMITED, *argv],
                          capture_output=True, env=env, text=True,
                          timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "input too large" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert float(proc.stdout) < 0.2


def test_cycles_rejects_heights_off_the_divisible_classes(capsys):
    # 3 has one partition, so the check is the residue class, not n >= 3
    assert run(capsys, "cycles", "3", "5") == (
        2, "", "error: height 3 does not qualify for modulus 5\n")


def test_cycles_csv(capsys):
    code, out, _ = run(capsys, "cycles", "22", "5", "--format", "csv")
    assert code == 0
    lines = out.split("\r\n")
    assert lines[0] == "cycle_index,position,lambda1,lambda2,lambda3,crank"
    assert lines[-1] == ""
    assert len(lines) == 42  # header + 40 rows + trailing terminator
    first = lines[1].split(",")
    assert len(first) == 6
    # deterministic byte for byte
    _, again, _ = run(capsys, "cycles", "22", "5", "--format", "csv")
    assert again == out


def test_cycles_json(capsys):
    code, out, _ = run(capsys, "cycles", "22", "5")
    assert code == 0
    doc = check_schema(out)
    assert sorted(doc["payload"]["lengths"]) == [10, 10, 20]
    for cyc in doc["payload"]["cycles"]:
        assert len(cyc["partitions"]) == cyc["length"]
        deltas = {(b - a) % 5 for a, b in zip(cyc["cranks"],
                                              cyc["cranks"][1:])}
        assert deltas <= {1}


def _cycles_reference(n, m, fmt):
    """The `cycles` report through the stdlib encoders, c_ls per member."""
    dec = cycle_decomposition(n, m)
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\r\n")
        writer.writerow(["cycle_index", "position", "lambda1", "lambda2",
                         "lambda3", "crank"])
        for ci, cyc in enumerate(dec.cycles):
            for pos, lam in enumerate(cyc):
                writer.writerow([ci, pos, *lam, c_ls(lam, m)])
        return out.getvalue()
    payload = {
        "lengths": [len(c) for c in dec.cycles],
        "cycles": [{"length": len(c),
                    "partitions": [list(lam) for lam in c],
                    "cranks": [c_ls(lam, m) for lam in c]}
                   for c in dec.cycles],
    }
    doc = {"command": "cycles", "inputs": {"n": n, "m": m},
           "outcome": "success", "payload": payload}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


_CYCLES_CASES = (
    [(n, m) for m in (5, 11) for n in range(3, 121) if is_divisible(n, m)]
    + [(n, m) for m in (17, 23, 83) for n in (18 * m - 1, 18 * m + 2)])


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cycles_stream_matches_stdlib_encoders(capsys, fmt):
    assert len(_CYCLES_CASES) == 53
    for n, m in _CYCLES_CASES:
        code, out, err = run(capsys, "cycles", str(n), str(m),
                             "--format", fmt)
        assert (code, err) == (0, "")
        assert out == _cycles_reference(n, m, fmt), (n, m)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("n,m", [(1001, 5), (998, 83)])
def test_long_cycles_match_stdlib_encoders(capsys, n, m, fmt):
    # cycles that span hundreds of rows, each written from its row runs
    assert max(map(len, cycle_decomposition(n, m).cycles)) > 10000
    code, out, err = run(capsys, "cycles", str(n), str(m), "--format", fmt)
    assert (code, err) == (0, "")
    assert out == _cycles_reference(n, m, fmt)


# Runs that start at or straddle 999|1000, 99999|100000 and 999999|1000000,
# runs longer than one block, empty runs and positions past 10**9 (q >= 1000)
@pytest.mark.parametrize("ci,pos,k", [
    (0, 0, 0), (0, 0, 1), (3, 0, 1000), (3, 999, 1), (3, 999, 2),
    (3, 1000, 1), (3, 990, 2500), (3, 1500, 0), (12, 99999, 1),
    (12, 99990, 20), (12, 100000, 5), (12, 999999, 1), (12, 999000, 3001),
    (41, 10 ** 9, 1), (41, 10 ** 9 - 5, 1010), (41, 10 ** 9 + 123456, 7)])
def test_position_pieces_match_str(ci, pos, k):
    units = ["%d" % r for r in range(1000)]
    padded = ["%03d" % r for r in range(1000)]
    heads, digits = cli._position_pieces(ci, pos, k, units, padded)
    assert [head + text for head, text in zip(heads, digits)] == [
        "%d,%s" % (ci, text) for text in map(str, range(pos, pos + k))]


@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_stdout_closed_mid_stream_is_an_input_error(capsys, fmt, unbuffered):
    # the reader takes the first bytes and leaves; the rest of the output,
    # many pipe buffers long, then fails to write
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "triparts.cli", "cycles",
                             "1001", "5", "--format", fmt],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    try:
        head = proc.stdout.read(4096)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    code, err = proc.returncode, err.decode("utf-8")
    expected = run(capsys, "cycles", "1001", "5", "--format", fmt)[1]
    expected = expected.encode("utf-8")
    assert len(expected) > 100 * len(head) > 0
    assert expected.startswith(head)
    assert code == 2
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs the /dev/full device")
@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["cycles", "401", "5"], ["count", "22"]],
                         ids=["cycles", "count"])
def test_full_stdout_is_an_input_error(argv, unbuffered):
    # every write to /dev/full fails with ENOSPC
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "triparts.cli", *argv],
                              stdout=full, stderr=subprocess.PIPE, env=env,
                              text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write to stdout: %s\n" % OSError(
        errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_closed_stdout_message():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "triparts.cli", "cycles",
                               "401", "5"], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, text=True,
                              timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "error: stdout closed before all output was written\n"


def test_failed_internal_check_is_a_verification_failure(capsys, monkeypatch):
    # the border rule with the rows rotated one place too far: still a
    # permutation of the rows, but the jumps no longer raise c_ls by one
    border_row = cranks._border_row
    monkeypatch.setattr(cranks, "_border_row", lambda n, m, t, label:
                        border_row(n, m, t % (n // 3) + 1, label))
    code, out, err = run(capsys, "cycles", "98", "5")
    assert code == 1
    assert out == ""
    assert err.startswith("error: internal check failed:")
    assert err.count("\n") == 1
    # a total that is not the c_ls runs' sum plus a multiple of m
    p3_nearest = cranks.p3_nearest
    monkeypatch.setattr(cranks, "p3_nearest", lambda n: p3_nearest(n) + 1)
    code, out, err = run(capsys, "histogram", "22", "5")
    assert (code, out) == (1, "")
    assert err.startswith("error: internal check failed:")
    assert err.count("\n") == 1


def test_rectangle_report(capsys):
    code, out, _ = run(capsys, "rectangle", "5", "1", "2m-2")
    assert code == 0
    doc = check_schema(out)
    assert doc["payload"]["width"] == 20
    assert doc["payload"]["height"] == 6
    assert doc["payload"]["cover_ok"] is True
    assert doc["payload"]["cells"] == 120
    assert doc["payload"]["vacuous"] is False
    assert len(doc["payload"]["placements"]) == 6


def test_rectangle_vacuous(tmp_path, capsys):
    # the report, and no file: a vacuous cover has no cells to export
    target = tmp_path / "cells.csv"
    for extra in ((), ("--cells-csv", str(target))):
        code, out, _ = run(capsys, "rectangle", "5", "0", "0", *extra)
        assert code == 0
        doc = check_schema(out)
        assert doc["payload"]["vacuous"] is True
        assert doc["payload"]["cover_ok"] is True
        assert doc["payload"]["cells"] == 0
        assert not target.exists()


@pytest.mark.parametrize("argv", [("5", "-1", "0"), ("5", "0", "--", "-1"),
                                  ("11", "-3", "2m+1")])
def test_rectangle_rejects_negative_height(capsys, argv):
    code, out, err = run(capsys, "rectangle", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "non-negative" in err
    assert err.count("\n") == 1


def test_rectangle_cells_csv(tmp_path, capsys):
    target = tmp_path / "cells.csv"
    code, _, _ = run(capsys, "rectangle", "5", "0", "2m-2",
                     "--cells-csv", str(target))
    assert code == 0
    raw = target.read_bytes().decode()
    lines = raw.split("\r\n")
    assert lines[0] == "x,y,lambda1,lambda2,lambda3"
    assert lines[1] == "0,0,6,1,1"
    assert lines[5] == "4,0,4,3,1"
    assert len(lines) == 7  # header + 5 cells + trailing terminator


def test_tile_svg(tmp_path, capsys):
    target = tmp_path / "t20.svg"
    code, _, _ = run(capsys, "tile", "20", str(target))
    assert code == 0
    svg = target.read_text(encoding="utf-8")
    assert svg.startswith('<?xml version="1.0"')
    assert svg.endswith("</svg>\n")
    assert svg.count("<circle") == 33
    assert svg.count("<rect") == 6
    assert "mu=(8,4,2): 3 partitions" in svg
    assert "mu=(6,1,1): 6 partitions" in svg
    # byte-identical on re-render
    assert render_tiling_svg(20) == svg


def _tiling_reference(n):
    """render_tiling_svg through tile_partition_triangle, one partition at
    a time."""
    groups = tile_partition_triangle(n)
    order = sorted(groups)
    scale, radius, margin, legend_w = 18, 6, 40, 270
    xmax = max((lam[1] - lam[2] for lams in groups.values() for lam in lams),
               default=0)
    ymin = 1
    ymax = max((lam[2] for lams in groups.values() for lam in lams), default=1)
    width = 2 * margin + xmax * scale + legend_w
    height = max(2 * margin + (ymax - ymin) * scale,
                 2 * margin + 22 * max(1, len(order)))
    lines = ['<?xml version="1.0" encoding="UTF-8"?>\n'
             '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             'width="%d" height="%d" viewBox="0 0 %d %d">\n<title>partitions '
             'of %d into three parts, colored by box remainder</title>\n'
             % (width, height, width, height, n)]
    for gi, mu in enumerate(order):
        color = "hsl(%d, 70%%, 45%%)" % ((gi * 360) // max(1, len(order)))
        lines.append('<g fill="%s">\n' % color)
        for lam in groups[mu]:
            lines.append('<circle cx="%d" cy="%d" r="%d"><title>%d+%d+%d'
                         '</title></circle>\n'
                         % (margin + (lam[1] - lam[2]) * scale,
                            margin + (ymax - lam[2]) * scale, radius, *lam))
        lines.append('</g>\n')
        lx, ly = 2 * margin + xmax * scale + 20, margin + gi * 22
        lines.append('<rect x="%d" y="%d" width="12" height="12" fill="%s"/>'
                     '\n' % (lx, ly - 10, color))
        lines.append('<text x="%d" y="%d" font-family="monospace" '
                     'font-size="13">mu=(%d,%d,%d): %d partitions</text>\n'
                     % (lx + 18, ly, *mu, len(groups[mu])))
    lines.append('</svg>\n')
    return "".join(lines)


def test_tile_matches_the_enumeration_route(tmp_path, capsys):
    for n in [*range(301), 600, 900]:
        assert render_tiling_svg(n) == _tiling_reference(n), n
    # at 900 every group of ~11,000 circles spans several blocks
    chunks = list(cli._tiling_chunks(900))
    starts = [i for i, chunk in enumerate(chunks) if chunk.startswith("<g ")]
    assert len(starts) == 6
    for i in starts:
        blocks = next(j for j in range(i + 1, len(chunks))
                      if chunks[j].startswith("</g>")) - i - 1
        assert blocks >= 2, (i, blocks)
    target = tmp_path / "t600.svg"
    assert run(capsys, "tile", "600", str(target)) == (0, "", "")
    assert target.read_text(encoding="utf-8") == _tiling_reference(600)


def test_tile_rejects_tiny_n(tmp_path, capsys):
    target = tmp_path / "out.svg"
    for n in (-1, 0, 1, 2):
        assert run(capsys, "tile", str(n), str(target)) == (
            2, "", "error: need n >= 3 for a non-empty tiling, got %d\n" % n)
        assert not target.exists()


def test_unwritable_paths_are_input_errors(tmp_path, capsys):
    missing = str(tmp_path / "no-such-dir" / "out")
    argvs = [("tile", "20", missing),
             ("rectangle", "5", "1", "2m-2", "--cells-csv", missing)]
    if os.path.exists("/dev/full"):  # opens, then every write fails
        argvs += [("tile", "20", "/dev/full"),
                  ("rectangle", "11", "1", "0", "--cells-csv", "/dev/full")]
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: cannot write %s: " % argv[-1]), argv
        assert err.count("\n") == 1 and err.endswith("\n"), argv


# Each size needs far more address space than any machine has, so the
# allocation fails when requested and never starts.
@pytest.mark.parametrize("argv", [
    ("histogram", "10", "1000000000000000", "--fast"),
    ("histogram", "10", "1000000000000000"),
    ("histogram", "10", "100000000000000000000", "--fast"),
    ("histogram", "8", "1000000000000000", "--crank", "closed"),
    ("rectangle", "5", "100000000", "0"),
])
def test_oversized_inputs_are_input_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: input too large")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.strip()


def test_malformed_invocation_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count"])
    assert exc.value.code == 2


# sha256 of stdout, recorded before each refactor of the routes behind
# these commands (row-level cycles and covers; the single plan factory and
# method registry; plan and closed-form histograms by row classes); any
# byte of difference fails here.
GOLDEN_STDOUT = [
    (("count", "22"),
     "cbeebfa8d47f032da1b7f82005ba027d94716c90570e0d55ce331cb8d1d5dae0"),
    (("decompose", "13", "4", "3"),
     "9493c8cebfb0217af4d98b9edfe7e68f4176f0c296fc4d39ba677a8a2214662d"),
    (("hstar",),
     "ceec3eafa3dc17fb7f52c91e48cd4127124e8b8758a6d3fffc8a5cd5e6bb3b30"),
    (("residues", "11"),
     "f811f250d36a96ce5a4f6f9d39d08c4c509c6ba9dca640c300ada6f2e50aca4d"),
    (("residues", "13"),
     "db63712d65c3f4eb6f183d03da443608a654d00dcc27f26ba55bf4dc79ee7d10"),
    (("verify", "5", "--max-n", "600"),
     "2fd1f615769e3a7017d20979bd423ef48c6e17c1eae826dad0130ababf9b920a"),
    (("verify", "7", "--max-n", "300"),
     "0a58afbccea20637e8ee3b6e4cca158cc61549e76f7d9381301c836b4e0246c1"),
    (("histogram", "22", "5"),
     "cd9097f03e617dcc07abef6cc82bcd5fc2e306e6cf8276e6e86aefac47a09584"),
    (("histogram", "22", "5", "--fast"),
     "cd9097f03e617dcc07abef6cc82bcd5fc2e306e6cf8276e6e86aefac47a09584"),
    (("histogram", "38", "5", "--crank", "plan"),
     "9a3b1a1342764905d5f43511b5e35f9388121875ab270c0174eadd6746b9bdc5"),
    (("histogram", "60", "5", "--crank", "plan", "--r-prime", "0"),
     "c4974ffc3423d1e7a1641960d869721869a752228c3c223823b0c5476df40ebc"),
    (("histogram", "998", "83", "--crank", "closed"),
     "00d11e88d16962f889dc05a624ca4e154ad9a55cf53830c7e4e07f842a5ec730"),
    (("histogram", "1001", "5", "--crank", "plan", "--r-prime", "2m+1"),
     "600bc1674d6e15a5d8e2fdf6f0c975a014d88dd59faec9c3aafd505c6fe0a246"),
    (("histogram", "992", "71", "--crank", "closed"),
     "e18a3257f56b4204f833914036e8f9fca326234abe801b0f542e94e5015abd31"),
    (("cycles", "38", "5", "--format", "csv"),
     "b2613a6543e9005ec29964300e7a0bce036ed54d3fd157e562dcd0d12ce8b5b3"),
    (("cycles", "38", "5"),
     "a5da372b1c9dce3feb2000687a3cc2cd8d9ca7f9b2b0120779080bffa7ca0f48"),
    (("cycles", "998", "83", "--format", "csv"),
     "d445b4ca8079fd69d90244a58f7c1a76c2122ad9b95b7945bd2aacc079ee7c44"),
    (("cycles", "995", "71"),
     "0627812d99e45b4b89b5249bf3f7640191542cc15dec996ba33887a40ef2e365"),
    (("rectangle", "113", "3", "1"),
     "65e0c70858476f1b56ce989c666554d4de36e9789babdd14911ac86f7803f166"),
    (("rectangle", "83", "4", "0"),
     "511490b4ce94a4bd094b54f1101908e1169fdabdb316ce35213e6c38d6684bd9"),
    (("rectangle", "5", "20", "--", "-2"),
     "3a689d474a47ddc0e3731739d21a3bb1274b238c17d46c2772c59b6a0aff6f73"),
    # recorded before argv went straight to the subcommand's parser and
    # reports to their own renderer: heights below three, one method, both
    # families with large moduli, plus_one verify notes, a long int list
    (("count", "2"),
     "513eabc6bd2870eccb9428feeb7e32330722714221ea76314363bda5b42fd2d4"),
    (("count", "5", "--method", "circulator"),
     "6aff8144c1d101fb91605c4e22c238468bf4406ae52ed3ca10073f2003177860"),
    (("residues", "6427"),
     "8ebaffdc2aa673f2279f4492faed9a2022088bace5568541cdc9ed879d29e294"),
    (("residues", "180007"),
     "8b5c05307185ca14ef75e4e39084aa2e1a6a47024877f5b9fec95795ef36618e"),
    (("verify", "13", "--max-n", "400"),
     "fce431bb2a34400b49d6a138c48311d6ca205de0f065acc9310b7ec90b8c8282"),
    (("histogram", "18853", "97"),
     "9fa8f0e7481056460f42fbf7af5bc144a261245c1bcd07a69b494f9d58d9c4d9"),
    # recorded before the CSV position column was joined from tables of
    # decimal strings: cycles of 154,000 members, positions past 10**5
    (("cycles", "2002", "5", "--format", "csv"),
     "1cffd5635bf6ff6ff4163403e2cbceb5d6ab4c1c6e89ea4a1f0346e92d6d781c"),
]


_NINES = "9" * 2200  # p(n,3) then has more than 4300 digits

# Exit code, sha256 of stdout and sha256 of stderr (usage wrapped at 80
# columns), recorded with the same parent: argparse errors from the top
# level and from a subcommand, an option abbreviation, "--" before a
# negative label, a "--opt=value" form, and a value too long to print.
# The last two were recorded once results past the digit limit were named
# as too large, in place of the interpreter's advice to raise the limit.
GOLDEN_EXITS = [
    (("residues", "5", "--bogus"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "c34349a6bced09a7306fb11bc35fef6e8a9558eec1d7370dea6b00b15a49f0ef"),
    (("count",), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "138d105f39e0f5859b082caa1e228edc8144f1718b6589138608b12ff3e319ac"),
    (("histogram", "22"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "d3bb3b07f7b746eb5e1658e13be346ce18ef5a8749973729e26b026632e34cca"),
    (("count", "5", "--version"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "e9c24af88235f3f62033fa26e26c13c1dee2f1796efcf8f64533b69b0e049355"),
    (("verify", "5", "--max", "40"), 0,
     "563e097d7279b8adf8f2a01657ef7d2c44b525b4f45c9faebafb195f47c0a665",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("rectangle", "5", "3", "--", "-1"), 0,
     "270a8ef4424ed6c59a6e8017849917a321d4f615e51f78b891ae3fee7ba6aa24",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("histogram", "996", "83", "--r-prime=0", "--crank", "plan"), 0,
     "977e2b594ca99b0080de80ec6b8f2ac1e21bbf19976962f0eff50b386ee02d45",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("count", _NINES), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "9d3950d5943352773ffee96a6c83f0a8775ed51add0ec00d497a828e9c7b1223"),
    (("histogram", _NINES, "5"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "9d3950d5943352773ffee96a6c83f0a8775ed51add0ec00d497a828e9c7b1223"),
]


# Exit code and sha256 of stdout, recorded before c_ls histograms and the
# brute counter were summed by progressions of rows: 3 | m, a height below
# three, a non-uniform histogram, a count near the benchmark's query
# sizes, and one just above the brute counter's cap.
GOLDEN_ROW_SUMS = [
    (("histogram", "18853", "11"), 0,
     "3e19336548e06a4add15c2fcc788c3d70a6d2cb4c617a4677720fed96bc19bff"),
    (("histogram", "999", "9"), 0,
     "693f234d745eef7a9030559106ea7c73982d31ec33fca179aa118dfbaf9f385c"),
    (("histogram", "2", "5"), 0,
     "2918460f81ddf883bacc97fcaa23ec21980e1fb22c0e3b81e61065d8c6ae78ee"),
    (("histogram", "1000", "5", "--expect-uniform"), 1,
     "336d753ae6ff65681cb03f7f0c19b65e13085c1450109c0711155c8e5b53aabf"),
    (("count", "195977"), 0,
     "f40e490f6aaf499f7193e16f5d29a630c36e4b2eea448b656aa96f7db7ee7073"),
    (("count", "10000001"), 0,
     "6c1430f2b24a7e6c84093d1490e5fdfb52a191c3e77bb7e528979ab5e4916ffc"),
]


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv,digest", GOLDEN_STDOUT,
                         ids=[" ".join(a) for a, _ in GOLDEN_STDOUT])
def test_golden_stdout(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert _sha256(out) == digest


@pytest.mark.parametrize("argv,exit_code,out_digest,err_digest", GOLDEN_EXITS,
                         ids=[" ".join(a)[:40] for a, _, _, _ in GOLDEN_EXITS])
def test_golden_exits(capsys, monkeypatch, argv, exit_code, out_digest,
                      err_digest):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to this width
    code, out, err = run_exit(capsys, *argv)
    assert code == exit_code
    assert (_sha256(out), _sha256(err)) == (out_digest, err_digest), err


@pytest.mark.parametrize("argv,exit_code,digest", GOLDEN_ROW_SUMS,
                         ids=[" ".join(a) for a, _, _ in GOLDEN_ROW_SUMS])
def test_golden_row_sums(capsys, argv, exit_code, digest):
    code, out, _ = run(capsys, *argv)
    assert code == exit_code
    assert _sha256(out) == digest


def test_repeated_calls_give_the_same_bytes(capsys):
    # the parser is built once per process and shared by every call
    argvs = [argv for argv, _ in GOLDEN_STDOUT[:9]]
    first = [run(capsys, *argv) for argv in argvs]
    with pytest.raises(SystemExit) as exc:
        main(["histogram", "22"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "count", "-4")
    assert code == 2 and out == ""
    for _ in range(2):
        assert [run(capsys, *argv) for argv in argvs] == first


def test_golden_count_help_after_other_calls(capsys, monkeypatch):
    run(capsys, "count", "22")
    with pytest.raises(SystemExit):
        main(["count", "--method", "none", "5"])
    capsys.readouterr()
    test_golden_count_help(capsys, monkeypatch)


# (argv, sha256 of stdout, sha256 of the --cells-csv file), recorded before
# the cells table was written from row pieces; 101 3 2m-2 has rows that
# wrap around the width.
_GOLDEN_CELLS_CSV = [
    (("5", "1", "2m-2"),
     "5bd24f29483072d7217877f5e876603d823b6b7ec02076b92454c75bef478a42",
     "19b2307eed700eb5765d7a91897eaaae10cf984133014de4cb35f8443faeaa89"),
    (("101", "3", "2m-2"),
     "5e9aa6a636bbd56432ece99d448550eed7fda7e7da5b70944ec8f7e4e4d97298",
     "a55a67a2c6df1444bfa0c9dfd615e73d9c713d8522a2965989e4ffd1d36c81be"),
    (("11", "4", "--", "-(2m+1)"),
     "f82b0a891cc5c3faeff1d1d17e41d8428bf5061d56ae71997e88524c6830adf9",
     "53871f9ccc4ba507b8d279484ee7f68298fb6f7754c55b6880d25910888bfcaf"),
    (("5", "6", "--", "-1"),
     "9054b662e6806612f1fd5a9ffd2a80d7707812abb4d37def593784e0af4ea9e1",
     "32b6f1dfaddc74ae39298c7971e7afeb69d7c9877c0e30d58c8887800622b19f"),
    (("17", "2", "2m+1"),
     "953ea5ec05b2e22fb78622d158a965f607dd5ffef26010fbc42f40473712b846",
     "1b3c7b1acf9e60b37af77706cb53869a5dd932f916476dce7ac043a8a333bb23"),
    (("23", "3", "0"),
     "485f40814b7dad734c32573796756145c062936fe0571b52781ef8fc459bba5d",
     "96a367dac0b7168acd92dfab8c26b743d2165d729961fc6223656c14697b366e"),
    (("11", "3", "--", "-(2m-2)"),
     "5c425b95b9a27c74f6f5ab31aab2dd5a9ae8b060bba5843452e747f4e3c812a7",
     "02f164ab8ff268fc486a179f64882e988563ab500f0d4785b2343c3e42f78d83"),
    (("5", "7", "--", "-2"),
     "9033ad7cea098f75482102827396d546606462a8028ce905fd60f7388c335af8",
     "a352603277b77464f3266e0d752ebe397f55b846f11ea4004498009ca92d3287"),
]


def test_golden_cells_csv(tmp_path, capsys):
    target = tmp_path / "cells.csv"
    for argv, out_digest, csv_digest in _GOLDEN_CELLS_CSV:
        code, out, _ = run(capsys, "rectangle", "--cells-csv", str(target),
                           *argv)
        assert code == 0, argv
        assert _sha256(out) == out_digest, argv
        assert hashlib.sha256(target.read_bytes()).hexdigest() == (
            csv_digest), argv


def test_golden_count_help(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to this width
    with pytest.raises(SystemExit) as exc:
        main(["count", "--help"])
    assert exc.value.code == 0
    assert _sha256(capsys.readouterr().out) == (
        "243fc7b2ec3a1f4bd9f5c424b906e4fc55360d68135b17ea194bb54934599e80")


def test_golden_tile_svg(tmp_path, capsys):
    target = tmp_path / "tile.svg"
    code, out, _ = run(capsys, "tile", "20", str(target))
    assert code == 0 and out == ""
    assert hashlib.sha256(target.read_bytes()).hexdigest() == (
        "932c571721cdd116ee488e84823151d2362e17e1e9389a0657b57fd5243129b3")


# Keys and strings with quotes, backslashes, control and non-ASCII
# characters; ints of every size, bools mixed into int lists.
_TEXT = st.text(st.sampled_from('az "\\/\b\n\t\x00\x1f\x7f\u00e9\u2028'
                                '\U0001f600')) | st.text()
_BIG = st.tuples(st.integers(100, 400), st.integers(-9, 9)).map(
    lambda p: p[1] * 10 ** p[0] - p[1])
_INTS = st.lists(st.integers() | _BIG)
_LEAVES = (st.none() | st.booleans() | st.integers() | _BIG | st.floats()
           | _TEXT | _INTS | st.lists(st.integers() | st.booleans())
           | _INTS.map(tuple))
_DOCS = st.recursive(_LEAVES, lambda kids: (
    st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, kids, max_size=4)), max_leaves=20)


@given(_DOCS)
def test_render_matches_stdlib_json(doc):
    assert cli._render(doc) == _stdlib(doc)


def _encoded(encode, doc):
    """encode(doc), or the message of the ValueError it raises."""
    try:
        return encode(doc)
    except ValueError as exc:
        return "ValueError: %s" % exc


def _stdlib(doc):
    return json.dumps(doc, sort_keys=True, indent=2)


def test_render_keeps_the_digit_limit():
    for doc in ([10 ** 4300], {"n": -(10 ** 4300)}, [True, 10 ** 4300]):
        text = _encoded(cli._render, doc)
        assert text.startswith("ValueError: Exceeds the limit (4300 digits)")
        assert text == _encoded(_stdlib, doc)


_GOLDEN_ARGVS = ([argv for argv, _ in GOLDEN_STDOUT]
                 + [argv for argv, _, _ in GOLDEN_ROW_SUMS]
                 + [argv for argv, _, _, _ in GOLDEN_EXITS])


def test_golden_reports_match_stdlib_json(capsys, monkeypatch):
    docs = []
    print_report = cli._print_report
    monkeypatch.setattr(cli, "_print_report", lambda *report: (
        docs.append(report), print_report(*report)))
    for argv in _GOLDEN_ARGVS:
        run_exit(capsys, *argv)
    assert len(docs) == 33  # all but decompose, cycles and argparse errors
    for command, inputs, outcome, payload in docs:
        doc = {"command": command, "inputs": inputs, "outcome": outcome,
               "payload": payload}
        assert _encoded(cli._render, doc) == _encoded(_stdlib, doc)


# Beyond the golden lists: help, version and unknown names (which take the
# top-level parser), "--opt=value" forms, and "--=" arguments, which the
# top-level parser finds ambiguous before any subcommand parser runs.
_DISPATCH_EXTRA = [
    (), ("-h",), ("--version",), ("bogus", "5"), ("cou", "5"),
    ("count", "-h"), ("hstar", "--help"), ("count", "--method=brute", "5"),
    ("count", "5", "--method"), ("count", "5", "6"), ("count", "x"),
    ("count", "5", "--=x"), ("hstar", "--=x"), ("count", "--", "--=x"),
    ("residues", "5", "--bogus", "--", "7"), ("decompose", "3", "-1", "1"),
    ("histogram", "22", "5", "--crank", "nope"), ("verify", "5", "--max"),
]


@pytest.mark.parametrize("argv", _GOLDEN_ARGVS + _DISPATCH_EXTRA,
                         ids=lambda argv: " ".join(argv)[:40] or "(none)")
def test_dispatch_matches_the_top_level_parser(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    parser = build_parser()
    fast = run_exit(capsys, *argv)
    try:
        reference_args = vars(parser.parse_args(list(argv)))
    except SystemExit:
        reference_args = None
    try:
        fast_args = vars(cli._parse_args(list(argv)))
    except SystemExit:
        fast_args = None
    capsys.readouterr()
    assert fast_args == reference_args
    monkeypatch.setattr(cli, "_parse_args", parser.parse_args)
    assert fast == run_exit(capsys, *argv)


# Bounded argv fuzzing of the commands whose routes read row runs.  Most
# (n, m) pairs are errors: m must be a prime for verify and residues, and
# cycles and the plans also need m = 5 mod 6 (m = 1 mod 6 exits 2 there),
# so those draw such primes half the time (cycles the smallest two, whose
# divisible heights are the densest).
_N = st.integers(-5, 300).map(str)
_M = st.integers(-3, 60).map(str)
_M5 = _M | st.sampled_from(["5", "11", "17", "23", "29", "41", "47", "59"])
_LABEL = st.sampled_from(case_labels() + ("7", "-1", "bogus"))
_FUZZ_ARGVS = st.one_of(
    st.tuples(st.just("histogram"), _N, _M5, st.sampled_from([
        (), ("--fast",), ("--crank", "closed"),
        ("--crank", "closed", "--expect-uniform")])
        | _LABEL.map(lambda r: ("--crank", "plan", "--r-prime=" + r))),
    st.tuples(st.just("cycles"), _N, _M | st.sampled_from(["5", "11"]),
              st.sampled_from([("--format", "json"), ("--format", "csv")])),
    st.tuples(st.just("tile"), _N, st.just("PATH")),
    st.tuples(st.just("count"), _N),
    st.tuples(st.just("residues"), _M),
    st.tuples(st.just("verify"), _M, st.just("--max-n"), _N),
    st.tuples(st.just("rectangle"),
              st.sampled_from([(), ("--cells-csv", "CSV")]), _M5,
              st.integers(-1, 3).map(str), st.just("--"), _LABEL),
).map(lambda parts: [arg for part in parts
                     for arg in ((part,) if isinstance(part, str) else part)])


def _cells_csv_reference(m, kprime, label):
    """The --cells-csv table through csv.writer, from the cell-by-cell
    reference cells(), sorted in (y, x) order."""
    cells = plan_for(label, m).cells(kprime)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["x", "y", "lambda1", "lambda2", "lambda3"])
    for x, y in sorted(cells, key=lambda cell: (cell[1], cell[0])):
        writer.writerow([x, y, *box_compose(*cells[(x, y)])])
    return buf.getvalue()


@settings(max_examples=600,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(_FUZZ_ARGVS)
def test_fuzzed_argv_exits_cleanly_and_repeats(capsys, tmp_path, argv):
    paths = {"PATH": str(tmp_path / "tile.svg"),
             "CSV": str(tmp_path / "cells.csv")}
    argv = [paths.get(arg, arg) for arg in argv]
    results = []
    for _ in range(2):
        code, out, err = run(capsys, *argv)
        written = None
        for path in paths.values():
            if os.path.exists(path):
                with open(path, encoding="utf-8", newline="") as fp:
                    written = fp.read()
                os.remove(path)
        results.append((code, out, err, written))
    assert results[0] == results[1], argv
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv
    if code == 2:
        assert out == "" and err.startswith("error: "), argv
        assert err.count("\n") == 1 and err.endswith("\n"), argv
    doc = None
    if out and not (argv[0] == "cycles" and argv[-1] == "csv"):
        doc = check_schema(out)
    if code == 1 and doc is None:  # nothing on stdout
        assert err.startswith("error: internal check failed: "), argv
        assert err.count("\n") == 1 and err.endswith("\n"), argv
    elif code == 1:  # a failing report, or an --expect-uniform miss
        assert doc["outcome"] == "failure" or (
            "--expect-uniform" in argv
            and doc["payload"]["uniform"] is False), argv
    if "--cells-csv" in argv and code == 0 and not doc["payload"]["vacuous"]:
        m, kprime, label = argv[3], argv[4], argv[6]
        assert written == _cells_csv_reference(int(m), int(kprime), label), (
            argv)
    elif argv[0] == "rectangle":
        assert written is None, argv
    # a table slice that comes out short is cut off by zip without an
    # error: only the reference routes show it
    if argv[0] == "cycles" and code == 0:
        assert out == _cycles_reference(int(argv[1]), int(argv[2]),
                                        argv[-1]), argv
    if argv[0] == "tile" and code == 0:
        assert written == _tiling_reference(int(argv[1])), argv
