import random

import pytest
from hypothesis import given, strategies as st

from triparts.partitions import (
    check_partition,
    column_multiplicities,
    count_bruteforce,
    enumerate_partitions,
    height,
    is_partition3,
    mult_to_partition,
)


def test_enumeration_order_n9():
    assert enumerate_partitions(9) == [
        (7, 1, 1), (6, 2, 1), (5, 3, 1), (5, 2, 2), (4, 4, 1), (4, 3, 2),
        (3, 3, 3),
    ]


def test_small_counts():
    assert [count_bruteforce(n) for n in range(10)] == [0, 0, 0, 1, 1, 2, 3, 4, 5, 7]


def test_count_matches_enumeration():
    for n in range(601):
        assert count_bruteforce(n) == len(enumerate_partitions(n)), n


def _count_by_rows(n):
    total = 0
    for l3 in range(1, n // 3 + 1):
        hi = (n - l3) // 2
        if hi >= l3:
            total += hi - l3 + 1
    return total


def test_count_matches_the_row_loop():
    for n in range(-3, 3001):
        assert count_bruteforce(n) == _count_by_rows(n), n
    # every n mod 6, up to the largest height `count` runs it for
    rng = random.Random(15)
    heights = [10 ** 7] + [6 * rng.randrange(10 ** 7 // 6) + r
                           for r in range(6)]
    for n in heights:
        assert count_bruteforce(n) == _count_by_rows(n), n


def test_empty_below_three():
    assert enumerate_partitions(2) == []
    assert enumerate_partitions(0) == []
    assert count_bruteforce(2) == 0


@given(st.integers(min_value=0, max_value=200))
def test_enumeration_matches_count(n):
    parts = enumerate_partitions(n)
    assert len(parts) == count_bruteforce(n)
    assert len(set(parts)) == len(parts)
    for lam in parts:
        assert is_partition3(lam)
        assert height(lam) == n
    # strictly decreasing lexicographic in (l1, l2)
    keys = [(lam[0], lam[1]) for lam in parts]
    assert keys == sorted(keys, reverse=True)


@given(st.integers(min_value=3, max_value=150))
def test_multiplicity_roundtrip(n):
    for lam in enumerate_partitions(n):
        bar = column_multiplicities(lam)
        assert bar[0] >= 0 and bar[1] >= 0 and bar[2] >= 1
        assert mult_to_partition(bar) == lam


def test_check_partition():
    assert check_partition((5, 3, 1)) == (5, 3, 1)
    with pytest.raises(ValueError):
        check_partition((3, 5, 1))
    with pytest.raises(ValueError):
        check_partition((3, 2, 0))
    with pytest.raises(ValueError):
        check_partition((3, 2))


def test_mult_to_partition_rejects_bad_vectors():
    with pytest.raises(ValueError):
        mult_to_partition((1, 1, 0))
    with pytest.raises(ValueError):
        mult_to_partition((-1, 0, 1))
