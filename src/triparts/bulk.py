"""Vectorized bulk sweeps (numpy int64).

Array enumeration of P(n,3) and the box-decomposition round trip over a
whole height at once.  ehrhart.box_decompose is plain integer arithmetic,
so the same function serves scalars and arrays; the scalar routines in the
sibling modules stay the reference, cross-checked in the tests.
"""

import numpy as np

from .ehrhart import box_decompose


def partitions_array(n):
    """All partitions of n into three parts as three int64 arrays
    (l1, l2, l3), ordered by (l3, l2) ascending."""
    l3max = n // 3
    if n < 3 or l3max < 1:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    l3vals = np.arange(1, l3max + 1, dtype=np.int64)
    counts = (n - l3vals) // 2 - l3vals + 1  # middle-part choices per l3
    l3 = np.repeat(l3vals, counts)
    starts = np.cumsum(counts) - counts
    offset = np.arange(l3.size, dtype=np.int64) - np.repeat(starts, counts)
    l2 = l3 + offset
    l1 = n - l2 - l3
    return l1, l2, l3


def check_box_bijection(n):
    """Decompose every partition of n and verify remainder membership,
    quotient nonnegativity, the height identity and the composed
    round trip.  Returns the number of partitions checked."""
    l1, l2, l3 = partitions_array(n)
    (m1, m2, m3), (t1, t2, t3) = box_decompose((l1, l2, l3))
    bar1 = m1 - m2
    bar2 = m2 - m3
    ok = (t1 >= 0) & (t2 >= 0) & (t3 >= 0)
    ok &= (bar1 >= 0) & (bar1 <= 5)
    ok &= (bar2 >= 0) & (bar2 <= 2)
    ok &= (m3 >= 1) & (m3 <= 2)
    if not bool(ok.all()):
        i = int(np.argmin(ok))
        raise AssertionError("box decomposition failed at %r"
                             % ((int(l1[i]), int(l2[i]), int(l3[i])),))
    r1 = m1 + 6 * t1 + 3 * t2 + 2 * t3
    r2 = m2 + 3 * t2 + 2 * t3
    r3 = m3 + 2 * t3
    if not (np.array_equal(r1, l1) and np.array_equal(r2, l2)
            and np.array_equal(r3, l3)):
        raise AssertionError("round trip failed at n=%d" % n)
    heights = m1 + m2 + m3 + 6 * (t1 + t2 + t3)
    if not bool((heights == n).all()):
        raise AssertionError("height identity failed at n=%d" % n)
    return l1.size
