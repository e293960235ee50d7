import os
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from triparts import ehrhart
from triparts.ehrhart import (
    GENERATORS,
    V3,
    box_compose,
    box_decompose,
    check_box_bijection,
    fundamental_points,
    h_star,
    h_star_from_gf,
    in_fundamental_box,
    row_classes,
    tile_partition_triangle,
    triangle,
    v3_apply,
    v3_solve,
)
from triparts.partitions import count_bruteforce, enumerate_partitions

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))

H_STAR_EXPECTED = [0, 0, 0, 1, 1, 2, 3, 4, 5, 4, 5, 4, 3, 2, 1, 1, 0, 0]


def test_generator_matrix():
    assert V3 == ((6, 3, 2), (0, 3, 2), (0, 0, 2))
    for i, g in enumerate(GENERATORS):
        e = tuple(1 if j == i else 0 for j in range(3))
        assert v3_apply(e) == g
    # determinant 6*3*2 = 36 = number of fundamental points
    assert sum(len(v) for v in fundamental_points().values()) == 36


def test_v3_solve_exact():
    assert v3_solve((11, 5, 2)) == (Fraction(1), Fraction(1), Fraction(1))
    assert v3_solve((6, 1, 1)) == (Fraction(5, 6), Fraction(0), Fraction(1, 2))


def test_membership_half_open():
    assert in_fundamental_box((1, 1, 1))
    assert in_fundamental_box((2, 2, 2))  # the closed a3 = 1 corner
    assert in_fundamental_box((9, 4, 2))  # the unique height-15 point
    assert not in_fundamental_box((0, 0, 0))  # open bottom
    assert not in_fundamental_box((11, 5, 2))  # a = (1,1,1), wraps out
    assert not in_fundamental_box((7, 1, 1))  # first coordinate wraps


def test_membership_matches_the_rational_coordinates():
    # the integer tests against v3_solve's Fractions, on a margin around
    # the scan box 0..11 x 0..5 x 0..2 of fundamental_points
    inside = 0
    for mu in product(range(-2, 14), range(-2, 8), range(-2, 5)):
        a1, a2, a3 = v3_solve(mu)
        expected = 0 <= a1 < 1 and 0 <= a2 < 1 and 0 < a3 <= 1
        assert in_fundamental_box(mu) == expected, mu
        inside += expected
    assert inside == 36


def test_fundamental_points_by_height():
    groups = fundamental_points()
    assert sorted(groups) == list(range(3, 16))
    assert groups[3] == ((1, 1, 1),)
    assert groups[8] == ((3, 3, 2), (4, 2, 2), (4, 3, 1), (5, 2, 1), (6, 1, 1))
    assert groups[14] == ((8, 4, 2),)
    for h, pts in groups.items():
        for mu in pts:
            assert sum(mu) == h
            assert in_fundamental_box(mu)


def test_h_star_vector():
    assert h_star() == H_STAR_EXPECTED
    assert h_star_from_gf() == H_STAR_EXPECTED
    assert sum(h_star()) == 36
    assert all(H_STAR_EXPECTED[i] == H_STAR_EXPECTED[18 - i] for i in range(3, 16))


def test_triangle():
    assert triangle(-1) == []
    assert triangle(0) == [(0, 0, 0)]
    assert triangle(1) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    for k in range(6):
        pts = triangle(k)
        assert len(pts) == (k + 2) * (k + 1) // 2
        assert all(sum(t) == k and min(t) >= 0 for t in pts)
        assert pts == sorted(pts)


def test_box_decompose_pins():
    assert box_decompose((13, 4, 3)) == ((5, 2, 1), (1, 0, 1))
    assert box_decompose((11, 5, 2)) == ((2, 2, 2), (1, 1, 0))
    assert box_decompose((1, 1, 1)) == ((1, 1, 1), (0, 0, 0))


def test_box_decompose_matches_rational_route():
    # the integer floor route must agree with explicit Fraction floors
    for n in range(3, 80):
        for lam in enumerate_partitions(n):
            a1, a2, a3 = v3_solve(lam)
            t1 = a1.numerator // a1.denominator
            t2 = a2.numerator // a2.denominator
            t3 = -((-a3.numerator) // a3.denominator) - 1
            mu, tau = box_decompose(lam)
            assert tau == (t1, t2, t3)
            assert box_compose(mu, tau) == lam


@given(st.integers(min_value=3, max_value=400))
def test_box_roundtrip(n):
    for lam in enumerate_partitions(n):
        mu, tau = box_decompose(lam)
        assert in_fundamental_box(mu)
        assert min(tau) >= 0
        assert sum(mu) + 6 * sum(tau) == n
        assert box_compose(mu, tau) == lam


def test_box_compose_rejects_negative_quotient():
    with pytest.raises(ValueError):
        box_compose((1, 1, 1), (0, -1, 0))


def test_tiling_group_sizes():
    groups = tile_partition_triangle(20)
    assert len(groups) == 6
    sizes = sorted(len(v) for v in groups.values())
    assert sizes == [3, 6, 6, 6, 6, 6]
    assert sum(len(v) for v in groups.values()) == count_bruteforce(20)
    # every group is the remainder's own triangle, translated
    for mu, lams in groups.items():
        k = (20 - sum(mu)) // 6
        assert len(lams) == (k + 2) * (k + 1) // 2
        assert sorted(lams) == sorted(box_compose(mu, t) for t in triangle(k))


def test_check_box_bijection_counts():
    assert check_box_bijection(2) == 0
    assert check_box_bijection(20) == 33
    total = sum(check_box_bijection(n) for n in range(200))
    assert total == sum(count_bruteforce(n) for n in range(200))


def test_row_classes_cover_each_partition_once():
    for n in range(-2, 120):
        classes = list(row_classes(n))
        assert len(classes) <= max(n, 0)
        members = [(n - t - l2, l2, t) for t, first, steps in classes
                   for l2 in range(first, first + 3 * steps + 1, 3)]
        assert sorted(members) == sorted(enumerate_partitions(n)), n
        # each head is the first of its class in enumeration order, and the
        # heads come in that order too
        heads = [(n - t - first, first, t) for t, first, _ in classes]
        assert heads == sorted(heads, reverse=True), n
        for t, first, steps in classes:
            mu, tau = box_decompose((n - t - first, first, t))
            last = box_decompose((n - t - first - 3 * steps,
                                  first + 3 * steps, t))
            assert last == (mu, (tau[0] - steps, tau[1] + steps, tau[2]))


def _floor_half_l3(lam):
    # floor(l3/2) in place of ceil(l3/2) - 1: mu3 = 0 for even l3
    l1, l2, l3 = lam
    t1, t2, t3 = (l1 - l2) // 6, (l2 - l3) // 3, l3 // 2
    mu = (l1 - 6 * t1 - 3 * t2 - 2 * t3, l2 - 3 * t2 - 2 * t3, l3 - 2 * t3)
    return mu, (t1, t2, t3)


def _stale_tau(lam):
    # tau moved on, mu left behind: the round trip breaks
    mu, (t1, t2, t3) = box_decompose(lam)
    return mu, (t1, t2 + (lam[2] > 3), t3)


@pytest.mark.parametrize("fault", [_floor_half_l3, _stale_tau])
def test_check_box_bijection_rejects_faulty_decompositions(monkeypatch, fault):
    monkeypatch.setattr(ehrhart, "box_decompose", fault)
    with pytest.raises(AssertionError):
        check_box_bijection(40)


_STDLIB_ONLY = """
import importlib, pkgutil, sys

class StdlibOnly:
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top != "triparts" and top not in sys.stdlib_module_names:
            raise ImportError("not in the standard library: " + name)

sys.meta_path.insert(0, StdlibOnly())
import triparts
for info in pkgutil.walk_packages(triparts.__path__, "triparts."):
    importlib.import_module(info.name)
from triparts.ehrhart import check_box_bijection
assert check_box_bijection(20) == 33
print(" ".join(sorted(name for name in sys.modules if name.startswith("triparts"))))
"""


def test_package_needs_only_the_standard_library():
    # -S keeps site-packages off the path; the finder refuses any other
    # non-stdlib import, so every module must load on the stdlib alone
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-S", "-c", _STDLIB_ONLY],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    files = os.listdir(os.path.join(SRC, "triparts"))
    modules = {"triparts." + f[:-3] for f in files
               if f.endswith(".py") and f != "__init__.py"}
    assert set(proc.stdout.split()) == modules | {"triparts"}


def test_importing_the_cli_loads_no_fractions():
    # v3_solve imports fractions (and through it decimal) on its first call
    code = ("import sys, triparts, triparts.cli; print(sorted({'fractions', "
            "'decimal', 'numbers'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")
