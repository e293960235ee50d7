"""Lattice-box view of three-part partitions.

Every partition (l1, l2, l3) is a nonnegative integer combination of the
three generators (6,0,0), (3,3,0), (2,2,2) plus a remainder taken from a
fixed half-open box F3 containing exactly 36 lattice points.  The
decomposition lam = mu + V3 tau is unique and drives the exact counting
formulas and the crank constructions in the rest of the package.
"""

from functools import lru_cache

from .partitions import enumerate_partitions

# Rows of the generator matrix; its columns are the generators.
V3 = (
    (6, 3, 2),
    (0, 3, 2),
    (0, 0, 2),
)

GENERATORS = ((6, 0, 0), (3, 3, 0), (2, 2, 2))


def v3_apply(tau):
    """Matrix-vector product V3 * tau."""
    t1, t2, t3 = tau
    return (6 * t1 + 3 * t2 + 2 * t3, 3 * t2 + 2 * t3, 2 * t3)


def v3_solve(vec):
    """Exact rational solution a of V3 * a = vec, as Fractions."""
    from fractions import Fraction  # here only: it imports decimal
    x1, x2, x3 = vec
    return (Fraction(x1 - x2, 6), Fraction(x2 - x3, 3), Fraction(x3, 2))


def in_fundamental_box(mu):
    """Membership test for the half-open box F3 = V3 ([0,1) x [0,1) x (0,1]):
    v3_solve's (m1-m2)/6, (m2-m3)/3, m3/2 in those ranges, in integers."""
    m1, m2, m3 = mu
    return 0 <= m1 - m2 < 6 and 0 <= m2 - m3 < 3 and 0 < m3 <= 2


@lru_cache(maxsize=None)
def fundamental_points():
    """The 36 lattice points of F3 as a dict from height to a sorted tuple
    of points, scanned over the box 0..11 x 0..5 x 0..2 = V3 (1, 1, 1)."""
    groups = {}
    for m1 in range(12):
        for m2 in range(6):
            for m3 in range(3):
                mu = (m1, m2, m3)
                if in_fundamental_box(mu):
                    groups.setdefault(m1 + m2 + m3, []).append(mu)
    return {h: tuple(sorted(pts)) for h, pts in sorted(groups.items())}


def h_star():
    """Height census of F3 as a vector of length 18: entry i counts the
    fundamental points of height i."""
    vec = [0] * 18
    for h, pts in fundamental_points().items():
        vec[h] = len(pts)
    return vec


def h_star_from_gf():
    """Independent route to the same vector by expanding the product

        q^3 * (1 + q + ... + q^5) * (1 + q^2 + q^4) * (1 + q^3)

    which enumerates the box remainders by height one generator at a time.
    """
    poly = [0, 0, 0, 1]
    for factor in ([1] * 6, [1, 0, 1, 0, 1], [1, 0, 0, 1]):
        out = [0] * (len(poly) + len(factor) - 1)
        for i, c in enumerate(poly):
            if c:
                for j, d in enumerate(factor):
                    out[i + j] += c * d
        poly = out
    poly += [0] * (18 - len(poly))
    return poly[:18]


def triangle(k):
    """Lattice points of the dilated standard triangle: all nonnegative
    (t1, t2, t3) with t1 + t2 + t3 = k, in lexicographic (t1, t2) order.

    Empty for k < 0; has (k+2 choose 2) points otherwise.
    """
    if k < 0:
        return []
    return [(t1, t2, k - t1 - t2) for t1 in range(k + 1) for t2 in range(k + 1 - t1)]


def box_decompose(lam):
    """Unique (mu, tau) with lam = mu + V3 tau, mu in F3, tau >= 0.

    Conceptually: solve V3 a = lam exactly, then take floors in the two
    half-open coordinates and a shifted ceiling in the third.  Since the
    rational coordinates are (l1-l2)/6, (l2-l3)/3, l3/2, the floors reduce
    to integer division (floor of l3/2 shifted by one when l3 is even),
    which keeps this hot path in plain int arithmetic.  The Fraction
    route v3_solve stays available and the two are cross-checked in the
    tests.
    """
    l1, l2, l3 = lam
    t1 = (l1 - l2) // 6
    t2 = (l2 - l3) // 3
    t3 = (l3 + 1) // 2 - 1  # ceil(l3/2) - 1
    mu = (l1 - 6 * t1 - 3 * t2 - 2 * t3, l2 - 3 * t2 - 2 * t3, l3 - 2 * t3)
    return mu, (t1, t2, t3)


def box_compose(mu, tau):
    """Inverse of box_decompose: mu + V3 tau."""
    if min(tau) < 0:
        raise ValueError("tau must be nonnegative: %r" % (tau,))
    v = v3_apply(tau)
    return (mu[0] + v[0], mu[1] + v[1], mu[2] + v[2])


def row_classes(n):
    """Yield (t, first, steps) for every row class of P(n,3).

    A row class holds the partitions (n-t-l2, l2, t) with a fixed smallest
    part t and a fixed l2 mod 3, l2 = first, first+3, .., first+3*steps;
    every partition lies in exactly one class, and there are at most n.
    The heads (n-t-first, first, t) come in decreasing (l1, l2) order.
    A step moves lam by (-3, 3, 0) = V3 (-1, 1, 0): l1-l2 drops by 6 and
    l2-l3 rises by 3, so mu stays fixed and tau moves by (-1, +1, 0).
    """
    for t in range(1, n // 3 + 1):
        top = (n - t) // 2  # largest middle part in row t
        for first in range(t, min(t + 2, top) + 1):
            yield t, first, (top - first) // 3


def check_box_bijection(n):
    """Check the box decomposition on every partition of n by row classes.

    Along each row class (row_classes) mu stays fixed and tau moves by
    (-1, +1, 0).  At both ends of each class this asserts mu in F3, the
    same mu at both ends, tau >= 0, tau_last - tau_first = steps (-1, 1, 0)
    and the round trip box_compose(mu, tau) == lam.

    That covers every member: box_compose is affine in tau, so the j-th
    member is mu + V3 (tau_first + j (-1, 1, 0)); along the class t1 only
    falls and t2 only rises (t3 is fixed), so every member has
    t1 >= t1_last >= 0 and t2 >= t2_first >= 0; and F3 holds one point
    of each coset of the lattice V3 Z^3, so that is the unique
    decomposition.  Returns the number of partitions the classes cover.
    """
    box = {mu for pts in fundamental_points().values() for mu in pts}
    covered = 0
    for t, first, steps in row_classes(n):
        ends = []
        for l2 in (first, first + 3 * steps):
            lam = (n - t - l2, l2, t)
            mu, tau = box_decompose(lam)
            if min(tau) < 0 or box_compose(mu, tau) != lam:
                raise AssertionError("box decomposition failed at %r"
                                     % (lam,))
            ends.append((mu, tau))
        (mu, tau), (mu_last, tau_last) = ends
        if (mu not in box or mu_last != mu
                or tau_last != (tau[0] - steps, tau[1] + steps, tau[2])):
            raise AssertionError("box decomposition failed on the row "
                                 "class of %r" % (lam,))
        covered += steps + 1
    return covered


def tile_partition_triangle(n):
    """Group P(n,3) by box remainder.

    Returns a dict mapping each occurring remainder mu to the list of
    partitions of n with that remainder, in enumeration order.  Each group
    is a translated copy of a dilated triangle, so its size is a binomial
    coefficient determined by the heights of n and mu.
    """
    groups = {}
    for lam in enumerate_partitions(n):
        mu, _ = box_decompose(lam)
        groups.setdefault(mu, []).append(lam)
    return groups
