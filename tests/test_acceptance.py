"""End-to-end acceptance gate.

One test per shipped guarantee, in order, each printing a single pass or
fail line under pytest -v.  Runtime ceilings are asserted where the
guarantee carries one; sweeps use the row-level routes where the
partition-by-partition route would not fit the ceiling, and keep a
per-partition sweep on an overlapping smaller range.
"""

import contextlib
import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from triparts import cli
from triparts.congruence import is_divisible, residues_pos, verify_characterization
from triparts.cranks import (
    arrangement_2m_minus_2,
    build_arrangement,
    c_ls,
    c_ls_histogram,
    case_labels,
    cycle_decomposition,
    cycle_lengths,
    ehrhart_crank,
    ehrhart_crank_closed_form,
    histogram,
    is_uniform,
    permutation_cycles,
    plan_crank,
    plan_for,
    plan_table,
    row_permutation,
    table_histogram,
)
from triparts.ehrhart import (
    box_compose,
    box_decompose,
    check_box_bijection,
    fundamental_points,
    h_star,
    h_star_from_gf,
    triangle,
)
from triparts.partitions import count_bruteforce, enumerate_partitions
from triparts.quasipoly import p3_binomial, p3_circulator, p3_monomial, p3_nearest

H_STAR = [0, 0, 0, 1, 1, 2, 3, 4, 5, 4, 5, 4, 3, 2, 1, 1, 0, 0]


def test_01_height_census():
    start = time.monotonic()
    census = h_star()
    assert census == H_STAR
    assert h_star_from_gf() == census
    assert sum(census) == 36
    assert all(census[i] == census[18 - i] for i in range(3, 16))
    assert time.monotonic() - start < 1.0


def test_02_four_evaluators_agree():
    start = time.monotonic()
    for n in range(0, 100001):
        v = p3_nearest(n)
        assert p3_monomial(n) == v
        assert p3_binomial(n) == v
        assert p3_circulator(n) == v
    for n in range(0, 3001):
        assert p3_nearest(n) == count_bruteforce(n)
    assert time.monotonic() - start < 30.0


def test_03_box_bijection_to_1000():
    start = time.monotonic()
    # every partition with n <= 1000, by row classes (ends of each class)
    total = sum(check_box_bijection(n) for n in range(1001))
    assert total == sum(count_bruteforce(n) for n in range(1001))
    # every partition with n <= 200, one at a time
    box = {mu for pts in fundamental_points().values() for mu in pts}
    for n in range(201):
        for lam in enumerate_partitions(n):
            mu, tau = box_decompose(lam)
            assert mu in box and min(tau) >= 0, lam
            assert box_compose(mu, tau) == lam
    assert time.monotonic() - start < 30.0


def test_04_divisibility_characterizations():
    start = time.monotonic()
    for m in (5, 11, 17, 23, 7, 13, 19):
        report = verify_characterization(m, 60 * m)
        assert report.ok, (m, report)
    assert residues_pos(7).residues == frozenset(
        {0, 1, 2, 9, 13, 16, 26, 29, 33, 40, 41}
    )
    assert time.monotonic() - start < 60.0


def test_05_supercrank_uniformity():
    start = time.monotonic()
    assert histogram(22, 5, c_ls).counts == (8, 8, 8, 8, 8)
    for m in (5, 11, 17):
        for n in range(3, 2001):
            uniform = is_uniform(c_ls_histogram(n, m))
            assert uniform == is_divisible(n, m), (n, m)
    # counting route vs enumeration, densely at the bottom and sampled above
    for m in (5, 11, 17):
        for n in list(range(3, 251)) + list(range(251, 2001, 97)):
            assert c_ls_histogram(n, m) == histogram(n, m, c_ls)
    assert time.monotonic() - start < 60.0


def test_06_cycling_permutation():
    start = time.monotonic()
    dec = cycle_decomposition(22, 5)
    assert cycle_lengths(dec) == [10, 10, 20]
    assert permutation_cycles(row_permutation(22, 5)) == [
        (1,), (2, 3, 5), (4, 7, 6),
    ]
    for m in (5, 11):
        for n in range(3, 1001):
            if not is_divisible(n, m):
                continue
            # row_permutation asserts that step_f is a bijection of P(n,3)
            # raising c_ls by one; each cycle is a union of whole rows
            lengths = [sum((n - t) // 2 - t + 1 for t in row_cycle)
                       for row_cycle in permutation_cycles(row_permutation(n, m))]
            assert sum(lengths) == count_bruteforce(n)
            assert all(length % m == 0 for length in lengths)
    assert time.monotonic() - start < 5.0


def test_07_rectangle_crank_2m_minus_2():
    start = time.monotonic()
    for m in (5, 11):
        plan = arrangement_2m_minus_2(m)
        for kprime in range(5):
            rep = plan.verify_cover(kprime)
            assert rep.ok, (m, kprime, rep.detail)
            dims = plan.dims(kprime)
            # along each row c_ls drops by exactly 3 mod m, wrapping around
            cells = plan.cells(kprime)
            for (x, y), (mu, tau) in cells.items():
                here = c_ls(box_compose(mu, tau), m)
                nmu, ntau = cells[((x + 1) % dims[0], y)]
                there = c_ls(box_compose(nmu, ntau), m)
                assert (there - here) % m == (-3) % m, (m, kprime, x, y)
        crank = plan_crank(plan)
        n = plan.n_for(0)
        while n <= 1500:
            counts = [0] * m
            for lam in enumerate_partitions(n):
                value = ehrhart_crank(plan, lam)
                assert value == ehrhart_crank_closed_form(lam, m), (lam, m)
                counts[value] += 1
            assert len(set(counts)) == 1, (m, n, counts)
            n += 6 * m
        assert is_uniform(histogram(plan.n_for(1), m, crank))
    assert time.monotonic() - start < 120.0


def test_08_generic_arrangements():
    for label in case_labels():
        plan = build_arrangement(label, 5)
        for kprime in range(5):
            rep = plan.verify_cover(kprime)
            assert rep.ok, (label, kprime, rep.detail)
            n = plan.n_for(kprime)
            if n >= 3:
                h = histogram(n, 5, plan_crank(plan))
                assert is_uniform(h), (label, n, h.counts)
                assert sum(h.counts) == count_bruteforce(n)


def test_09_crank_fails_on_exceptional_classes():
    h = histogram(9, 7, c_ls)
    assert h.counts == (1, 0, 1, 2, 1, 1, 1)
    assert not is_uniform(h)
    assert count_bruteforce(9) % 7 == 0
    assert is_divisible(9, 7)


def test_10_step_delta_constants():
    directions = {"L->R": (-1, 1, 0), "L->T": (-1, 0, 1), "R->T": (0, -1, 1)}
    expected = {"L->R": -3, "L->T": -6, "R->T": -3}
    mus = [mu for pts in fundamental_points().values() for mu in pts]
    for k in range(0, 21):
        for tau in triangle(k):
            moves = {}
            for name, d in directions.items():
                shifted = (tau[0] + d[0], tau[1] + d[1], tau[2] + d[2])
                if min(shifted) >= 0:
                    moves[name] = shifted
            for mu in mus:
                base = box_compose(mu, tau)
                for name, shifted in moves.items():
                    other = box_compose(mu, shifted)
                    delta = (other[0] - other[2]) - (base[0] - base[2])
                    assert delta == expected[name], (mu, tau, name)


def test_11_verify_sweeps_in_linear_time(capsys):
    for m, n_max in ((5, 8000), (101, 6060)):
        start = time.monotonic()
        code = cli.main(["verify", str(m), "--max-n", str(n_max)])
        elapsed = time.monotonic() - start
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert code == 0, (m, n_max)
        assert payload["characterization_ok"] is True, (m, n_max)
        assert payload["uniformity_violations"] == [], (m, n_max)
        assert elapsed < 2.0, (m, n_max, elapsed)


def test_12_crank_exports_from_rows(capsys):
    start = time.monotonic()
    dec = cycle_decomposition(3000, 5)
    elapsed = time.monotonic() - start
    assert sum(len(c) for c in dec.cycles) == count_bruteforce(3000)
    assert all(len(c) % 5 == 0 for c in dec.cycles)
    assert elapsed < 1.0, elapsed
    start = time.monotonic()
    code = cli.main(["rectangle", "113", "3", "1"])
    elapsed = time.monotonic() - start
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert code == 0
    assert payload["cover_ok"] is True
    assert payload["cells"] == payload["width"] * payload["height"]
    assert elapsed < 0.2, elapsed


def test_13_residues_in_log_time(capsys):
    start = time.monotonic()
    code = cli.main(["residues", "1000000009"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "b76d7d06341a5a85e1420cf53ea641e8248274624c25fbecb1f0dfb1e7ce5733")
    assert elapsed < 1.0, elapsed


def test_14_small_queries_cost_the_query(capsys):
    start = time.monotonic()
    code = cli.main(["residues", "1000000000000000003"])
    elapsed = time.monotonic() - start
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert code == 0
    assert payload["family"] == "plus_one"
    assert elapsed < 1.0, elapsed
    cli.main(["residues", "11"])
    first = capsys.readouterr().out
    start = time.monotonic()
    for _ in range(1000):
        cli.main(["residues", "11"])
    elapsed = time.monotonic() - start
    assert capsys.readouterr().out == first * 1000
    assert elapsed < 1.0, elapsed


def test_15_cycles_export_streams(capsys):
    start = time.monotonic()
    code = cli.main(["cycles", "995", "83"])
    elapsed = time.monotonic() - start
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert code == 0
    assert sum(payload["lengths"]) == count_bruteforce(995)
    assert elapsed < 0.25, elapsed


def test_16_plan_cranks_uniform_by_row_classes():
    start = time.monotonic()
    checked = 0
    for m in (5, 11, 17, 23):
        for label in case_labels():
            plan = plan_for(label, m)
            table = plan_table(plan)
            kprime = 0
            while plan.n_for(kprime) <= 2000:
                n = plan.n_for(kprime)
                kprime += 1
                if n < 3:
                    continue
                h = table_histogram(n, m, table)
                assert is_uniform(h), (label, m, n, h.counts)
                assert sum(h.counts) == p3_nearest(n), (label, m, n)
                checked += 1
    assert checked == 1169
    assert time.monotonic() - start < 10.0


def test_17_crank_histograms_cost_the_row_classes(capsys):
    for argv in (["histogram", "1429", "11", "--crank", "plan",
                  "--r-prime=-(2m+1)"],
                 ["histogram", "992", "71", "--crank", "closed"]):
        start = time.monotonic()
        code = cli.main(argv)
        elapsed = time.monotonic() - start
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert code == 0
        assert payload["uniform"] is True
        assert payload["total"] == count_bruteforce(int(argv[1]))
        assert elapsed < 0.05, (argv, elapsed)


class _Sink:
    """A stdout that keeps only how many lines went through it."""

    def __init__(self):
        self.lines = 0

    def write(self, text):
        self.lines += text.count("\n")
        return len(text)

    def flush(self):
        pass


def test_18_crank_exports_stream_from_row_runs(tmp_path):
    sink = _Sink()
    start = time.monotonic()
    with contextlib.redirect_stdout(sink):
        code = cli.main(["cycles", "4001", "5", "--format", "csv"])
    elapsed = time.monotonic() - start
    assert code == 0
    assert sink.lines == 1 + count_bruteforce(4001)
    assert elapsed < 0.5, elapsed
    target = tmp_path / "t2400.svg"
    start = time.monotonic()
    code = cli.main(["tile", "2400", str(target)])
    elapsed = time.monotonic() - start
    assert code == 0
    svg = target.read_text(encoding="utf-8")
    assert svg.count("<circle") == count_bruteforce(2400)
    assert elapsed < 0.5, elapsed


# One CLI call in a fresh interpreter, stdout into a sink; prints how far
# the call raised the peak RSS (VmHWM, KiB) above the imports.  VmHWM
# starts afresh at exec, while getrusage's ru_maxrss keeps the high-water
# mark of the process that forked the child.
_PEAK_RSS_CHILD = """
import contextlib, sys
from triparts.cli import main

class Sink:
    def write(self, text):
        return len(text)

    def flush(self):
        pass

def peak_kib():
    with open("/proc/self/status") as fp:
        return int(next(line for line in fp
                        if line.startswith("VmHWM:")).split()[1])

before = peak_kib()
with contextlib.redirect_stdout(Sink()):
    code = main(sys.argv[1:])
print(peak_kib() - before)
sys.exit(code)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak RSS from /proc/self/status")
def test_19_crank_exports_in_bounded_memory(tmp_path):
    # p(4001,3) = 1,334,000 members: the rows of one cycle at a time, never
    # a tuple per member; the tile holds one block of one group at a time
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    for argv, ceiling_mib in (
            (["cycles", "4001", "5", "--format", "csv"], 16),
            (["cycles", "4001", "5", "--format", "json"], 16),
            (["tile", "2400", str(tmp_path / "t2400.svg")], 8)):
        proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_CHILD, *argv],
                              capture_output=True, env=env, text=True,
                              timeout=60)
        assert (proc.returncode, proc.stderr) == (0, ""), argv
        assert int(proc.stdout) <= ceiling_mib * 1024, (argv, proc.stdout)


# The rows of each parity of the smallest part form progressions of step
# -3, so `histogram` costs O(m) at any n and the brute counter is two
# range sums; n = 10**15 has 3.3e14 rows.
_HUGE_HISTOGRAM_CHILD = """
import contextlib, io, json, sys
from triparts.cli import main

out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["histogram", "1000000000000000", "5"])
print(json.loads(out.getvalue())["payload"]["total"])
sys.exit(code)
"""


def test_20_row_sums_in_constant_time_per_parity(capsys):
    start = time.monotonic()
    code = cli.main(["count", "10000000"])
    elapsed = time.monotonic() - start
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert code == 0
    assert payload["consistent"] is True
    assert payload["values"]["brute"] == p3_nearest(10 ** 7)
    assert elapsed < 0.25, elapsed
    start = time.monotonic()
    code = cli.main(["histogram", "1000000", "5"])
    elapsed = time.monotonic() - start
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert code == 0
    assert payload["total"] == p3_nearest(10 ** 6)
    assert elapsed < 0.02, elapsed
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", _HUGE_HISTOGRAM_CHILD],
                          capture_output=True, env=env, text=True,
                          timeout=10)
    elapsed = time.monotonic() - start
    assert (proc.returncode, proc.stderr) == (0, "")
    assert int(proc.stdout) == p3_nearest(10 ** 15)
    assert elapsed < 1.0, elapsed


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak RSS from /proc/self/status")
def test_21_rectangles_by_row_pieces(tmp_path):
    # The cover check holds two ints per line of a placed triangle and the
    # cells table one piece, O(lines) memory, never one byte or one dict
    # entry per cell: 5 2000 -- -1 has 3.0e8 cells, 1013 10 2m-2 3.3e8.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    target = tmp_path / "cells.csv"
    for argv, ceiling_mib in (
            (["rectangle", "5", "2000", "--", "-1"], 10),
            (["rectangle", "1013", "10", "2m-2"], 10),
            (["rectangle", "--cells-csv", str(target), "101", "3", "2m-2"],
             16)):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_CHILD, *argv],
                              capture_output=True, env=env, text=True,
                              timeout=60)
        elapsed = time.monotonic() - start
        assert (proc.returncode, proc.stderr) == (0, ""), argv
        assert int(proc.stdout) <= ceiling_mib * 1024, (argv, proc.stdout)
        assert elapsed < 1.0, (argv, elapsed)
    assert target.stat().st_size > 0
    # past the bound on the lines walked: refused before any walk
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "triparts.cli", "rectangle",
                           "5", "100000000", "0"],
                          capture_output=True, env=env, text=True, timeout=10)
    elapsed = time.monotonic() - start
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: input too large")
    assert proc.stderr.count("\n") == 1
    assert elapsed < 0.5, elapsed


def test_22_crank_text_from_decimal_tables():
    # each row run joins slices of per-call tables of decimal strings, so
    # the JSON report of 1,334,000 members formats O(n) numbers, not 3 per
    # member: 6 lines per member, 8 per cycle and 14 for the envelope
    sink = _Sink()
    start = time.monotonic()
    with contextlib.redirect_stdout(sink):
        code = cli.main(["cycles", "4001", "5", "--format", "json"])
    elapsed = time.monotonic() - start
    assert code == 0
    cycles = len(permutation_cycles(row_permutation(4001, 5)))
    assert sink.lines == 6 * count_bruteforce(4001) + 8 * cycles + 14
    assert elapsed < 0.35, elapsed


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak RSS from /proc/self/status")
def test_23_rectangle_covers_from_line_boundaries():
    # 989,997 triangle lines, just under the bound: the cover check holds
    # the starts and ends of the lines as two lists of ints, no piece
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    argv = ["rectangle", "5", "33000", "0"]
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_CHILD, *argv],
                          capture_output=True, env=env, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert int(proc.stdout) <= 128 * 1024, proc.stdout
    sink = _Sink()
    start = time.monotonic()
    with contextlib.redirect_stdout(sink):
        code = cli.main(argv)
    elapsed = time.monotonic() - start
    assert code == 0 and sink.lines > 0
    assert elapsed < 0.6, elapsed


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak RSS from /proc/self/status")
def test_24_cells_csv_from_decimal_tables(tmp_path):
    # each row piece joins slices of per-call tables of decimal strings
    # (x, and the parts 0 .. n), so no number is formatted per cell: a
    # 77 MB table of 3.5e6 cells, the same bytes as before the tables
    target = tmp_path / "cells.csv"
    argv = ["rectangle", "--cells-csv", str(target), "101", "10", "2m-2"]
    sink = _Sink()
    start = time.monotonic()
    with contextlib.redirect_stdout(sink):
        code = cli.main(argv)
    elapsed = time.monotonic() - start
    assert code == 0 and sink.lines > 0
    assert elapsed < 1.0, elapsed
    digest = hashlib.sha256()
    with open(target, "rb") as fp:
        for block in iter(lambda: fp.read(1 << 20), b""):
            digest.update(block)
    assert digest.hexdigest() == (
        "42495ef9f2400891b08ee0300dbedb398ab956d6ce869fdd323e7f56b09d5a11")
    target.unlink()
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_CHILD, *argv],
                          capture_output=True, env=env, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert int(proc.stdout) <= 16 * 1024, proc.stdout


# One CLI call under a 1 GiB address-space cap; prints its time and payload.
_LIMITED_HISTOGRAM_CHILD = """
import contextlib, io, json, resource, sys, time
limit = 1 << 30
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from triparts.cli import main

out = io.StringIO()
start = time.monotonic()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
elapsed = time.monotonic() - start
print(json.dumps([elapsed, json.loads(out.getvalue())["payload"]]))
sys.exit(code)
"""


@pytest.mark.parametrize("argv", [
    ("histogram", "3000000000000011", "5", "--crank", "plan",
     "--r-prime=2m+1"),
    ("histogram", "3000000000000008", "5", "--crank", "closed"),
])
def test_25_crank_histograms_by_row_class_families(argv):
    # six families of row classes, each a few progressions mod m: O(m) at
    # a height with 10**15 rows, where a walk of the rows would take years
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", _LIMITED_HISTOGRAM_CHILD,
                           *argv], capture_output=True, env=env, text=True,
                          timeout=60)
    assert (proc.returncode, proc.stderr) == (0, ""), argv
    elapsed, payload = json.loads(proc.stdout)
    assert payload["total"] == p3_nearest(int(argv[1]))
    assert payload["uniform"] is True
    assert elapsed < 1.0, elapsed


# One rectangle step on plan_for("2m-2", 101) at k' = 10, a rectangle of
# 3131 x 1043 cells, under a 1 GiB address-space cap; prints the step's
# time, how far it raised the peak RSS (VmHWM, KiB) and both cranks.
_RECTANGLE_STEP_CHILD = """
import json, resource, time
limit = 1 << 30
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from triparts.cranks import ehrhart_crank, plan_for, rectangle_cycle_step

def peak_kib():
    with open("/proc/self/status") as fp:
        return int(next(line for line in fp
                        if line.startswith("VmHWM:")).split()[1])

plan = plan_for("2m-2", 101)
n = plan.n_for(10)
lam = (n - 2, 1, 1)
before = peak_kib()
start = time.monotonic()
nxt = rectangle_cycle_step(plan, lam)
elapsed = time.monotonic() - start
print(json.dumps([elapsed, peak_kib() - before, plan.dims(10),
                  ehrhart_crank(plan, lam), ehrhart_crank(plan, nxt)]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak RSS from /proc/self/status")
def test_26_rectangle_steps_without_a_cell_dictionary():
    # the landing cell is pulled back by solving each placement's map, so
    # the first step costs the placements, not the 3.3e6 cells
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", _RECTANGLE_STEP_CHILD],
                          capture_output=True, env=env, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    elapsed, rise_kib, dims, crank, next_crank = json.loads(proc.stdout)
    assert dims == [3131, 1043]
    assert next_crank == (crank + 1) % 101
    assert elapsed < 0.010, elapsed
    assert rise_kib < 4 * 1024, rise_kib
