"""Partitions of n into exactly three positive parts.

A partition is an integer triple (l1, l2, l3) with l1 >= l2 >= l3 >= 1.
Everything in this package passes partitions around as plain tuples.
"""


def is_partition3(lam):
    """True if lam is a valid three-part partition triple."""
    if len(lam) != 3:
        return False
    l1, l2, l3 = lam
    return l1 >= l2 >= l3 >= 1


def check_partition(lam):
    """Validate lam, returning it as a tuple of ints. Raises ValueError."""
    if len(lam) != 3:
        raise ValueError("expected three parts, got %r" % (lam,))
    l1, l2, l3 = (int(x) for x in lam)
    if not (l1 >= l2 >= l3 >= 1):
        raise ValueError("parts must be weakly decreasing and positive: %r" % (lam,))
    return (l1, l2, l3)


def height(lam):
    return lam[0] + lam[1] + lam[2]


def enumerate_partitions(n):
    """All partitions of n into three parts, in decreasing lexicographic
    order of (l1, l2).

    enumerate_partitions(9) starts (7,1,1), (6,2,1), (5,3,1), ...
    """
    out = []
    if n < 3:
        return out
    # l1 runs from n-2 (partner parts both 1) down to ceil(n/3)
    for l1 in range(n - 2, (n + 2) // 3 - 1, -1):
        rest = n - l1
        # need l1 >= l2 >= l3 >= 1 with l2 + l3 = rest
        hi = min(l1, rest - 1)
        lo = (rest + 1) // 2
        for l2 in range(hi, lo - 1, -1):
            out.append((l1, l2, rest - l2))
    return out


def count_bruteforce(n):
    """Number of partitions of n into three parts, by direct range counting.

    Row l3 (smallest part 1 .. n//3) has (n - l3)//2 - l3 + 1 middle parts
    l2 = l3 .. (n - l3)//2.  Two rows of the same parity of l3 differ by
    exactly 3, so each parity's rows are one range, summed in C; every row
    is still visited and no closed formula is used anywhere.  Rows 1 ..
    n//3 have at least one middle part each, and the first row of either
    parity past n//3 counts 0 or less, so each range stops at its last
    positive term.
    """
    return sum(range((n - 1) // 2, 0, -3)) + sum(range((n - 4) // 2, 0, -3))


def column_multiplicities(lam):
    """Column multiplicity vector (l1-l2, l2-l3, l3) of a partition.

    Reading the Young diagram by columns: l3 columns of height 3,
    l2-l3 of height 2, l1-l2 of height 1.
    """
    l1, l2, l3 = lam
    return (l1 - l2, l2 - l3, l3)


def mult_to_partition(bar):
    """Inverse of column_multiplicities."""
    b1, b2, b3 = bar
    if b1 < 0 or b2 < 0 or b3 < 1:
        raise ValueError("multiplicity vector needs b1, b2 >= 0 and b3 >= 1: %r" % (bar,))
    return (b1 + b2 + b3, b2 + b3, b3)
