"""Tests of the benchmark itself: python3 -m pytest -q bench"""

import json
import multiprocessing.pool
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from triparts import cli, cranks, quasipoly  # noqa: E402


def job(kind, argv, **facts):
    return {"argv": [str(a) for a in argv], "kind": kind, "facts": facts}


def output(j):
    code, _, out, _ = run.run_job(cli, j)
    assert code == 0
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    for seed in (0, 1, 7):
        assert workloads.generate(workload, seed) == workloads.generate(workload, seed)
    assert workloads.generate(workload, 1) != workloads.generate(workload, 2)


def test_generated_inputs_stay_in_their_windows():
    for seed in range(20):
        m5, m1 = (j["facts"] for j in workloads.generate("verify_sweep", seed))
        assert m5["m"] % 6 == 5 and workloads.is_prime(m5["m"])
        assert m1["m"] % 6 == 1 and workloads.is_prime(m1["m"])
        assert m5["max_n"] >= workloads.POOL_MIN_N > m1["max_n"]
        for j in workloads.generate("crank_export", seed):
            if j["kind"] == "rectangle":
                f = j["facts"]
                assert f["n"] == 6 * f["m"] * f["k_prime"] + workloads.label_value(f["label"], f["m"])
            if j["kind"] == "cycles":
                assert workloads.in_window(j["facts"]["n"], 1000, 0.01)
    kinds = [j["kind"] for j in workloads.generate("small_queries", 3)]
    assert len(kinds) >= 1000 and set(kinds) == {
        "count", "residues", "decompose", "hstar", "histogram"}


def test_own_histogram_matches_enumeration():
    for n in (3, 10, 25, 58):
        for m in (1, 5, 7):
            want = [0] * m
            for l3 in range(1, n):
                for l2 in range(l3, n):
                    l1 = n - l2 - l3
                    if l1 >= l2:
                        want[(l1 - l3) % m] += 1
            assert oracles.c_ls_histogram(n, m) == want


def corrupt_json(out, edit):
    doc = json.loads(out)
    edit(doc)
    return json.dumps(doc)


def rejects(j, out, file_text=None):
    return oracles.check(j, 0, out, file_text) is not None


def test_count_oracle():
    j = job("count", ["count", 40], n=40)
    out = output(j)
    assert oracles.check(j, 0, out) is None

    def off_by_one(doc):
        doc["payload"]["values"]["nearest"] += 1
    assert rejects(j, corrupt_json(out, off_by_one))
    assert oracles.check(j, 1, out) is not None


def test_cycles_oracle_rejects_swapped_rows():
    j = job("cycles", ["cycles", 38, 5, "--format", "csv"], n=38, m=5, format="csv")
    out = output(j)
    assert oracles.check(j, 0, out) is None
    lines = out.split("\r\n")
    lines[2], lines[3] = lines[3], lines[2]
    assert rejects(j, "\r\n".join(lines))
    lines = out.split("\r\n")
    del lines[-2]
    assert rejects(j, "\r\n".join(lines))


def test_cycles_json_oracle():
    j = job("cycles", ["cycles", 38, 5], n=38, m=5, format="json")
    out = output(j)
    assert oracles.check(j, 0, out) is None

    def wrong_crank(doc):
        doc["payload"]["cycles"][0]["cranks"][1] += 1
    assert rejects(j, corrupt_json(out, wrong_crank))


def test_rectangle_oracle():
    j = job("rectangle", ["rectangle", 11, 2, "--", "-(2m+1)"],
            m=11, k_prime=2, label="-(2m+1)", n=6 * 11 * 2 - 23)
    out = output(j)
    assert oracles.check(j, 0, out) is None

    def short(doc):
        doc["payload"]["cells"] -= 1
    assert rejects(j, corrupt_json(out, short))


def test_histogram_oracles():
    j = job("histogram", ["histogram", 100, 7, "--fast"], n=100, m=7, uniform=None)
    out = output(j)
    assert oracles.check(j, 0, out) is None

    def moved(doc):
        doc["payload"]["counts"][0] += 1
        doc["payload"]["counts"][1] -= 1
    assert rejects(j, corrupt_json(out, moved))
    j = job("histogram", ["histogram", 8, 5, "--crank", "closed"], n=8, m=5, uniform=True)
    out = output(j)
    assert oracles.check(j, 0, out) is None

    def not_uniform(doc):
        doc["payload"]["uniform"] = False
    assert rejects(j, corrupt_json(out, not_uniform))


def test_tile_oracle(tmp_path):
    path = str(tmp_path / "t.svg")
    j = job("tile", ["tile", 30, path], n=30, path=path)
    assert output(j) == ""
    with open(path, encoding="utf-8") as fp:
        svg = fp.read()
    assert oracles.check(j, 0, "", svg) is None
    assert rejects(j, "", svg.replace("<circle", "<rect", 1))


def test_small_query_oracles():
    j = job("decompose", ["decompose", 13, 4, 3], lam=(13, 4, 3))
    out = output(j)
    assert oracles.check(j, 0, out) is None
    assert rejects(j, '{"mu":[11,2,1],"tau":[0,0,1]}')  # right sum, mu off the box
    j = job("residues", ["residues", 13], m=13)
    out = output(j)
    assert oracles.check(j, 0, out) is None

    def extra(doc):
        doc["payload"]["residues"].append(5)
    assert rejects(j, corrupt_json(out, extra))
    j = job("hstar", ["hstar"])
    out = output(j)
    assert oracles.check(j, 0, out) is None
    assert rejects(j, out.replace('"sum": 36', '"sum": 35'))


def test_verify_oracle():
    j = job("verify", ["verify", 5, "--max-n", 60], m=5, max_n=60)
    out = output(j)
    assert oracles.check(j, 0, out) is None
    assert rejects(j, out.replace('"success"', '"failure"'))
    assert rejects(dict(j, facts={"m": 5, "max_n": 61}), out)


def small_job_list():
    return [job("count", ["count", 40], n=40),
            job("residues", ["residues", 31], m=31),
            job("cycles", ["cycles", 38, 5, "--format", "csv"], n=38, m=5, format="csv"),
            job("rectangle", ["rectangle", 11, 1, "2m-2"], m=11, k_prime=1, label="2m-2", n=86),
            job("histogram", ["histogram", 59, 5, "--crank", "plan", "--r-prime=-1"],
                n=59, m=5, uniform=True),
            job("histogram", ["histogram", 86, 11, "--crank", "closed"], n=86, m=11, uniform=True),
            job("verify", ["verify", 7, "--max-n", 80], m=7, max_n=80)]


def test_stdout_identical_with_tracing_on_and_off():
    jobs = small_job_list()
    before = (cli.c_ls, cli.main, quasipoly._METHODS["brute"],
              cranks.RectanglePlan.cells, multiprocessing.pool.Pool.map)
    plain = run.run_pass(cli, jobs)
    with tracing.Tracer() as tracer:
        traced = run.run_pass(cli, jobs, tracer)
    assert plain["failures"] == traced["failures"] == []
    assert plain["sha256"] == traced["sha256"]
    layer = tracer.metrics()
    assert layer["cli.main.calls"] == len(jobs)
    # quasipoly's method registry is a namespace too: brute counts show
    assert layer["partitions.count_bruteforce.calls"] == 1 + 81
    assert layer["cranks.step_f.calls"] == workloads.p3(38)
    assert layer["congruence.residues_neg.calls"] > 0
    assert layer["cranks.RectanglePlan.cells.items"] > 0
    assert layer["cranks.ehrhart_crank_closed_form.calls"] == workloads.p3(86)
    assert all(span is not None for span in tracer.spans)
    assert before == (cli.c_ls, cli.main, quasipoly._METHODS["brute"],
                      cranks.RectanglePlan.cells, multiprocessing.pool.Pool.map)


def test_missing_function_is_reported_absent(monkeypatch):
    metrics = tracing.LAYER_METRICS + [("cranks.no_such_function.calls", "count", "lower", "")]
    monkeypatch.setattr(tracing, "LAYER_METRICS", metrics)
    with tracing.Tracer() as tracer:
        run.run_pass(cli, [job("count", ["count", 12], n=12)], tracer)
    assert tracer.absent == ["cranks.no_such_function"]
    assert tracer.metrics()["cranks.no_such_function.calls"] == 0


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        spec = json.load(fp)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in tracing.LAYER_METRICS]


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", "small_queries", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
