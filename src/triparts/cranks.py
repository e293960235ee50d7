"""Crank statistics for three-part partitions.

Two independent crank constructions witness the divisibility of p(n,3) by
primes m with m % 6 == 5:

* c_ls: largest part minus smallest part, taken mod m.  Realized as a
  permutation of P(n,3) (step_f) whose every step raises c_ls by one, so
  its orbits split P(n,3) into cycles of length divisible by m.  The
  step slides along rows of constant smallest part; at a row's end it
  jumps to the top of another row, the rows taken in order onto the
  rows of one parity and then of the other, each block rotated.

* Rectangle cranks: box-decompose each partition, place the per-remainder
  triangles of box quotients into a lattice rectangle through affine maps,
  and read a rectangle coordinate mod m.  Uniformity is then immediate
  because m divides the rectangle's width (or height).
"""

from collections import namedtuple
from functools import lru_cache
from itertools import accumulate, chain, permutations, repeat

from .congruence import residues_neg
from .ehrhart import (
    V3 as _V3,  # a public V3 here would join the module's pinned names
    box_compose,
    box_decompose,
    fundamental_points,
    triangle,
    v3_apply,
)
from .partitions import column_multiplicities, enumerate_partitions
from .quasipoly import p3_nearest

# ---------------------------------------------------------------------------
# c_ls and histograms

CrankHistogram = namedtuple("CrankHistogram", ["modulus", "counts"])


def c_ls(lam, m):
    """Largest part minus smallest part, mod m."""
    return (lam[0] - lam[2]) % m


def histogram(n, m, crank):
    """Class sizes of a crank statistic over P(n,3), by enumeration:
    crank(lam, m), such as c_ls.  The reference of c_ls_histogram and
    table_histogram, and the route that names the partition a crank rejects.
    """
    counts = [0] * m
    for lam in enumerate_partitions(n):
        counts[crank(lam, m)] += 1
    return CrankHistogram(m, tuple(counts))


def is_uniform(hist):
    """True when all classes have equal size (vacuously for no classes)."""
    return len(set(hist.counts)) <= 1


def _from_cyclic_diff(diff, total, m):
    """Class sizes from a cyclic difference array and the total size.  A run
    of L classes from s is +1 at s and -1 at s + L mod m, so prefix sums are
    off by whole laps (a run that wraps, or has L >= m): one constant for
    all classes, which the total fixes exactly."""
    counts = list(accumulate(diff))
    full, rest = divmod(total - sum(counts), m)
    assert rest == 0, "runs do not sum to %d mod %d" % (total, m)
    return CrankHistogram(m, tuple(map(full.__add__, counts)))


def _add_progression(diff, a, b, k, w=1, dw=0):
    """Add w + i dw at (a + i b) mod m = len(diff) for i < k, in O(m).  The
    residues repeat every m terms, so term i < m lands c = k // m times, or
    once more if i < k % m, with weights summing to c (w + i dw) + m dw
    c (c - 1) / 2: one progression in i for each of the two values of c."""
    m = len(diff)
    q, r = divmod(k, m)
    c, lo = q + 1, 0
    for hi in r, min(k, m):  # terms lo .. hi - 1 land c times
        x, dx = c * (w + dw * lo) + dw * m * c * (c - 1) // 2, c * dw
        for p in _progression(a + b * lo, b, hi - lo):
            diff[p % m] += x
            x += dx
        c, lo = q, r


def c_ls_histogram(n, m):
    """The c_ls histogram of P(n,3) without enumerating partitions: O(m).

    Row t (smallest part t = 1 .. n//3) is the run G_k, k = n - 3t, of
    differences l1 - l3 = ceil(k/2) .. k: +1 at ceil(k/2) and -1 at k + 1
    in a cyclic difference array.  Over the rows the ends form one
    progression of step -3, the starts one per parity of t.
    """
    if m <= 0:
        raise ValueError("modulus must be positive, got %r" % (m,))
    diff = [0] * m
    rows = n // 3
    _add_progression(diff, n - 2, -3, rows, -1)
    _add_progression(diff, (n - 2) // 2, -3, (rows + 1) // 2)
    _add_progression(diff, (n - 5) // 2, -3, rows // 2)
    return _from_cyclic_diff(diff, p3_nearest(n), m)


def c_ls_histograms(m, n_max):
    """Yield (n, c_ls_histogram(n, m)) for n = 0 .. n_max in O(m) per height.

    In column multiplicities (b1, b2, b3) a partition has n = b1 + 2 b2 +
    3 b3 and c_ls = b1 + b2, so the histograms H_n(z) have generating
    function q^3 / ((1 - q^3)(1 - z q)(1 - z q^2)).  Over Z[z]/(z^m - 1),
    with G_0 = 1:

        G_k = z G_(k-1) + [k even] z^(k/2),    H_n = H_(n-3) + G_(n-3).

    Only the last three rows are kept, H_n overwriting H_(n-3) in place.
    sum(H_n) is p(n,3) by counting, independent of the closed forms.
    """
    if m <= 0:
        raise ValueError("modulus must be positive, got %r" % (m,))
    rows = [[0] * m for _ in range(3)]
    g = [1] + [0] * (m - 1)  # G_(n-3)
    for n in range(n_max + 1):
        h = rows[n % 3]
        if n >= 3:
            h[:] = map(int.__add__, h, g)
            k = n - 2
            g.insert(0, g.pop())
            if k % 2 == 0:
                g[(k // 2) % m] += 1
        yield n, CrankHistogram(m, tuple(h))


def table_histogram(n, m, table):
    """The histogram of a crank given as a table, in O(m) at any n.

    ``table`` maps a box remainder mu to (a1, a2, a3, c): the crank of
    mu + V3 tau is (a1 t1 + a2 t2 + a3 t3 + c) mod m.  Along a row class
    (ehrhart.row_classes) tau moves by (-1, +1, 0): its L members step by
    d = a2 - a1 in {-1, 0, 1} (others are rejected) from the head's crank s.
    The classes fall into six families by (t mod 2, j = first - t): as t
    moves by 2 the head (n-2t-j, t+j, t) moves by V3 (-1, 0, 1), so mu is
    fixed, s moves by a3 - a1 and L drops by one, which _add_progression
    bins.  Returns None when a remainder has no entry: every shipped table
    places whole height classes mod 6, so it then places no partition of n,
    and the crank rejects the first, (n-2, 1, 1), as histogram() would.
    """
    if m <= 0:
        raise ValueError("modulus must be positive, got %r" % (m,))
    for mu, (a1, a2, _, _) in table.items():
        if a2 - a1 not in (-1, 0, 1):
            raise ValueError("table step %d for remainder %r is not -1, 0 "
                             "or 1" % (a2 - a1, mu))
    diff, total = [0] * m, 0
    for t, j in ((1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)):
        k = ((n - 2 * j) // 3 - t) // 2 + 1  # classes t, t + 2, ..
        if k <= 0:
            continue
        mu, (t1, t2, t3) = box_decompose((n - 2 * t - j, t + j, t))
        entry = table.get(mu)
        if entry is None:
            return None
        a1, a2, a3, c = entry
        s, e = a1 * t1 + a2 * t2 + a3 * t3 + c, a3 - a1
        size = ((n - t) // 2 - t - j) // 3 + 1  # L at the first class
        total += k * size - k * (k - 1) // 2
        if a2 == a1:  # weight L_i at s_i, -L_i at s_i + 1
            _add_progression(diff, s, e, k, size, -1)
            _add_progression(diff, s + 1, e, k, -size, 1)
        else:  # +1 at the run's lowest crank u_i, -1 at u_i + L_i
            u, du = (s, e) if a2 > a1 else (s + 1 - size, e + 1)
            _add_progression(diff, u, du, k)
            _add_progression(diff, u + size, du - 1, k, -1)
    return _from_cyclic_diff(diff, total, m)


# ---------------------------------------------------------------------------
# Vertex values and step deltas of the quotient triangles

# Moving within a triangle of box quotients: differences of unit vectors,
# named by the corner the motion leaves and the corner it heads toward
# (L, R, T list the corners (s,0,0), (0,s,0), (0,0,s)).
DIRECTIONS = {
    "L->R": (-1, 1, 0),
    "L->T": (-1, 0, 1),
    "R->T": (0, -1, 1),
}


def vertex_crank_values(mu, s, m):
    """c_ls at the corners (L, R, T), the quotients (s,0,0), (0,s,0) and
    (0,0,s), of the size-s triangle with remainder mu."""
    corners = ((s, 0, 0), (0, s, 0), (0, 0, s))
    return tuple(c_ls(box_compose(mu, v), m) for v in corners)


def step_deltas():
    """Change of the raw c_ls under each unit motion of the box quotient.

    The deltas are independent of remainder and position: moving tau by d
    moves the partition by V3 d, and c_ls shifts by the first-minus-last
    coordinate of that vector.
    """
    out = {}
    for name, d in DIRECTIONS.items():
        v = v3_apply(d)
        out[name] = v[0] - v[2]
    return out


# ---------------------------------------------------------------------------
# Rectangle arrangements

class AffineMap2:
    """Affine map Z^3 -> Z^2: tau -> matrix tau + offset.

    Restricted to any fixed triangle of quotients the map must be
    injective.  On the plane t1+t2+t3 = s it is affine in (t1, t2) with
    matrix [[a-c, b-c], [d-f, e-f]]: injective iff its determinant is
    nonzero, checked on construction.
    """

    def __init__(self, matrix, offset):
        self.matrix = tuple(tuple(map(int, row)) for row in matrix)
        self.offset = (int(offset[0]), int(offset[1]))
        if [len(row) for row in self.matrix] != [3, 3]:
            raise ValueError("matrix must be 2x3")
        (a, b, c), (d, e, f) = self.matrix
        self._det = (a - c) * (e - f) - (b - c) * (d - f)
        if not self._det:
            raise ValueError("map %r is not injective on a triangle" % (self,))

    def apply(self, tau):
        (a, b, c), (d, e, f) = self.matrix
        ox, oy = self.offset
        return (a * tau[0] + b * tau[1] + c * tau[2] + ox,
                d * tau[0] + e * tau[1] + f * tau[2] + oy)

    def __repr__(self):
        return "AffineMap2(%r, %r)" % (self.matrix, self.offset)

    def __eq__(self, other):
        return (isinstance(other, AffineMap2)
                and self.matrix == other.matrix and self.offset == other.offset)


CoverReport = namedtuple("CoverReport", ["ok", "cells", "expected", "detail"])

# RectanglePlan._lines holds two ints per triangle line: 10**6 lines take
# ~0.3 s and ~80 MiB on a 2-CPU x86-64 box; 4e9-cell rectangles have ~2.2e5.
_MAX_LINES = 10 ** 6


def _progression(a, b, n):
    """a, a + b, .., a + (n-1) b."""
    return range(a, a + b * n, b) if b else repeat(a, n)


class RectanglePlan:
    """A triangle-to-rectangle arrangement for one height progression.

    Heights run over n = 6 m k' + r_value.  For each k' the plan places
    one triangle of box quotients per remainder mu into the lattice
    rectangle of size ell1(k') x ell2(k'), disjointly and exactly.  The
    crank of a partition is eta(x, y) = (alpha x + beta y + gamma) mod m
    at its cell; cycling adds the unit step delta with wraparound.

    placements is a list of (mu, size_offset, AffineMap2): the triangle
    placed for mu has size k - size_offset where k = m k' + k_offset.
    Coordinates along the step axis are taken mod the rectangle dimension
    (one placement family of the dedicated 2m-2 arrangement wraps); the
    dimension is divisible by m, so cranks never depend on the wrap.
    """

    def __init__(self, r_label, r_value, m, ell1, ell2, k_offset,
                 placements, eta, delta):
        residues_neg(m)  # validates m, so m % 6 == 5 and (m-2)/3 is integral
        self.r_label = r_label
        self.r_value = int(r_value)
        self.m = m
        self.ell1 = (int(ell1[0]), int(ell1[1]))
        self.ell2 = (int(ell2[0]), int(ell2[1]))
        self.k_offset = int(k_offset)
        self.placements = list(placements)
        self.eta = (int(eta[0]), int(eta[1]), int(eta[2]))
        self.delta = (int(delta[0]), int(delta[1]))
        if self.delta not in ((1, 0), (0, 1)):
            raise ValueError("delta must be a unit vector")
        side = self.ell1 if self.delta == (1, 0) else self.ell2
        if side[0] % m or side[1] % m:
            raise AssertionError(
                "the step-axis dimension must be divisible by m: %r" % (side,))
        self._by_mu = {}
        for mu, size_offset, mp in self.placements:
            if mu in self._by_mu:
                raise ValueError("duplicate placement for remainder %r" % (mu,))
            self._by_mu[mu] = (size_offset, mp)

    def __repr__(self):
        return "RectanglePlan(%s, m=%d)" % (self.r_label, self.m)

    def k_for(self, kprime):
        return self.m * kprime + self.k_offset

    def n_for(self, kprime):
        return 6 * self.m * kprime + self.r_value

    def kprime_for(self, n):
        d, rem = divmod(n - self.r_value, 6 * self.m)
        if rem:
            raise ValueError("height %d is not on the %s progression for m=%d"
                             % (n, self.r_label, self.m))
        return d

    def dims(self, kprime):
        w = self.ell1[0] * kprime + self.ell1[1]
        h = self.ell2[0] * kprime + self.ell2[1]
        return (max(0, w), max(0, h))

    def _reduce(self, xy, dims):
        x, y = xy
        if self.delta == (1, 0):
            return (x % dims[0] if dims[0] else x, y)
        return (x, y % dims[1] if dims[1] else y)

    def cells(self, kprime):
        """Mapping (x, y) -> (mu, tau) for every cell of the rectangle.

        Raises ValueError if two placements collide or a cell falls
        outside the rectangle.  The cell-by-cell reference of _lines and
        rectangle_cycle_step, built on each call."""
        dims = self.dims(kprime)
        k = self.k_for(kprime)
        out = {}
        for mu, size_offset, mp in self.placements:
            for tau in triangle(k - size_offset):
                cell = self._reduce(mp.apply(tau), dims)
                if not (0 <= cell[0] < dims[0] and 0 <= cell[1] < dims[1]):
                    raise ValueError("cell %r outside %dx%d rectangle (mu=%r tau=%r)"
                                     % (cell, dims[0], dims[1], mu, tau))
                if cell in out:
                    raise ValueError("cell %r covered twice (mu=%r tau=%r and mu=%r tau=%r)"
                                     % (cell, out[cell][0], out[cell][1], mu, tau))
                out[cell] = (mu, tau)
        return out

    def _wrapped(self, dims, s, first, slope):
        """(j, i, y, x, n) per piece of the lines of _lines: cells i .. i + n
        - 1 of line j, the step axis reduced (_reduce), split where x wraps."""
        for j, n in enumerate(range(s + 1, 0, -1)):
            x, y = self._reduce((first[0] + slope[0] * j,
                                 first[1] + slope[1] * j), dims)
            yield j, 0, y, x, min(n, dims[0] - x)
            if x + n > dims[0]:
                yield j, dims[0] - x, y, 0, x + n - dims[0]

    def _lines(self, kprime):
        """The triangle lines at k', (s, first, slope, step) per placement,
        if they tile the rectangle exactly once, else None.  Line j = 0 ..
        s is s + 1 - j cells from first + j slope in (x, y, l1, l2, l3),
        lambda moving by step: y fixed, x rising by one (a map with no such
        unit direction gives None).  At L = y w + x, pieces [L, L + n) inside
        their rows cover L #{starts <= L} - #{ends <= L} times, so they tile
        iff the starts with w h and the ends with 0 are one multiset, the
        count then being [0 <= L] - [w h <= L].  Lines inside [0, dimension)
        on the step axis give two progressions in j; _wrapped splits the
        others, keeping each line's length (one longer than w overlaps
        itself).  On y-axis plans x is checked at j = 0 and s."""
        w, h = dims = self.dims(kprime)
        k = self.k_for(kprime)
        lines = sum(max(0, k - off + 1) for _, off, _ in self.placements)
        if lines > _MAX_LINES:
            raise ValueError("input too large: %d triangle lines, more than "
                             "%d" % (lines, _MAX_LINES))
        axis = self.delta.index(1)
        out, starts, ends = [], [w * h], [0]
        for mu, off, mp in self.placements:
            rows = (*mp.matrix, *_V3)  # x, y, l1, l2, l3 as functions of tau
            for p, q, r in permutations(range(3)):
                if rows[1][q] == rows[1][r] and rows[0][q] - rows[0][r] == 1:
                    break
            else:
                return None
            s = k - off
            # line j: tau_p = j, tau_q rising from 0, tau_r falling from s - j
            first = [f[r] * s + o for f, o in zip(rows, (*mp.offset, *mu))]
            slope = [f[p] - f[r] for f in rows]
            out.append((s, first, slope, [f[q] - f[r] for f in rows[2:]]))
            x, y, dx, dy = first[0], first[1], slope[0], slope[1]
            if axis and s >= 0 and (min(x, x + dx * s) < 0
                                    or max(x + s, x + dx * s) >= w):
                return None
            u, v = first[axis], first[axis] + slope[axis] * s
            if 0 <= min(u, v) and max(u + s * (1 - axis), v) < dims[axis]:
                a, b = y * w + x, dy * w + dx
                starts.extend(_progression(a, b, s + 1))
                ends.extend(_progression(a + s + 1, b - 1, s + 1))
                continue
            for _, _, y, x, n in self._wrapped(dims, s, first, slope):
                starts.append(y * w + x)
                ends.append(y * w + x + n)
        starts.sort()
        ends.sort()
        return out if starts == ends else None

    def _rows(self, kprime):
        """The rectangle as pieces (y, x, n, l1, l2, l3, d1, d2, d3), the
        cells (x + i, y) of (l1, l2, l3) + i (d1, d2, d3) for i < n, in (y, x)
        order, from the lines _lines accepts, or None: for --cells-csv."""
        lines, dims = self._lines(kprime), self.dims(kprime)
        return None if lines is None else sorted(
            (y, x, n, *[l + dl * j + d * i for l, dl, d in zip(
                first[2:], slope[2:], step)], *step)
            for s, first, slope, step in lines
            for j, i, y, x, n in self._wrapped(dims, s, first, slope))

    def verify_cover(self, kprime):
        """Exhaustive disjoint-cover check for one k'.

        Every cell is checked through the starts and ends of the lines of
        the triangles (_lines).  On a failure the report, with its detail,
        comes from the cell-by-cell reference cells()."""
        dims = self.dims(kprime)
        expected = dims[0] * dims[1]
        if self._lines(kprime) is not None:
            return CoverReport(True, expected, expected, "ok")
        try:
            got = len(self.cells(kprime))
        except ValueError as exc:
            return CoverReport(False, None, expected, str(exc))
        if got != expected:
            return CoverReport(False, got, expected,
                              "covered %d of %d cells" % (got, expected))
        return CoverReport(True, got, expected, "ok")

    def locate(self, lam):
        """Rectangle coordinates of a partition, unreduced along the
        step axis.  Raises ValueError if the box remainder of lam has no
        placement in this plan."""
        mu, tau = box_decompose(lam)
        try:
            _, mp = self._by_mu[mu]
        except KeyError:
            raise ValueError("remainder %r of %r has no placement in plan %s"
                             % (mu, lam, self.r_label))
        return mp.apply(tau)


def ehrhart_crank(plan, lam):
    """Crank of lam under a rectangle plan: eta at its cell, mod m.

    The step-axis coordinate only matters mod m, and the rectangle
    dimension along that axis is a multiple of m, so no wraparound
    reduction is needed here.
    """
    x, y = plan.locate(lam)
    a, b, g = plan.eta
    return (a * x + b * y + g) % plan.m


def plan_crank(plan):
    """Adapter giving a plan's crank the (lam, m) calling convention."""
    def crank(lam, m=None):
        return ehrhart_crank(plan, lam)
    return crank


def plan_table(plan):
    """A plan's crank as a table_histogram table.

    The placement of mu sends tau to (x, y) = A tau + o, and the crank is
    eta . (x, y, 1), so mu gets (eta1 A[0] + eta2 A[1], eta . (o, 1)).
    """
    e1, e2, g = plan.eta
    table = {}
    for mu, _, mp in plan.placements:
        (a, b, c), (d, e, f) = mp.matrix
        ox, oy = mp.offset
        table[mu] = (e1 * a + e2 * d, e1 * b + e2 * e, e1 * c + e2 * f,
                     e1 * ox + e2 * oy + g)
    return table


# (mu, size offset, matrix, offset) of the 2m-2 placements, for every m
_PLACEMENTS_2M_MINUS_2 = (
    ((6, 1, 1), 1, ((1, 1, 2), (1, 0, 0)), (0, 0)),
    ((4, 2, 2), 1, ((1, 2, 2), (1, 1, 0)), (1, 0)),
    ((5, 2, 1), 1, ((2, 2, 3), (1, 0, 0)), (2, 0)),
    ((3, 3, 2), 1, ((2, 3, 3), (1, 1, 0)), (3, 0)),
    ((4, 3, 1), 1, ((3, 3, 4), (1, 0, 0)), (4, 0)),
    ((8, 4, 2), 2, ((0, 1, 1), (1, 1, 0)), (0, 1)),
)


def arrangement_2m_minus_2(m):
    """The dedicated arrangement for heights n = 6mk' + (2m-2).

    Remainders of height 8 ride triangles of size k-1, the height-14
    remainder rides size k-2, with k = mk' + (m-2)/3.  The six affine
    maps, written with s = tau1+tau2+tau3:

        (6,1,1) -> (s+tau3,      tau1)      (4,2,2) -> (2s+1-tau1, s-tau3)
        (5,2,1) -> (2s+2+tau3,   tau1)      (3,3,2) -> (3s+3-tau1, s-tau3)
        (4,3,1) -> (3s+4+tau3,   tau1)      (8,4,2) -> (tau2+tau3, tau1+tau2+1)

    x is taken mod ell1 = m(3k'+1); only the (4,3,1) family wraps.  The
    crank is x mod m and decreases by 3 along each row.
    """
    c = (m - 2) // 3
    placements = [(mu, off, AffineMap2(matrix, offset))
                  for mu, off, matrix, offset in _PLACEMENTS_2M_MINUS_2]
    return RectanglePlan("2m-2", 2 * m - 2, m,
                         ell1=(3 * m, m), ell2=(m, c), k_offset=c,
                         placements=placements, eta=(1, 0, 0), delta=(1, 0))


def ehrhart_crank_closed_form(lam, m):
    """Closed form of the 2m-2 arrangement crank, no plan object needed.

    Works directly from the column multiplicities bar = (l1-l2, l2-l3, l3)
    via their floor splits t_i and residues, K = t1+t2+t3:

        bar3 odd:                     x = (r2+1) K + 2 r2 + t3
        bar3 even, residue (4,2):     x = K - t1
        bar3 even otherwise:          x = (r2+2) K + 2 r2 + 1 - t1

    and the crank is x mod m.  Only heights with n % 6 == 2 place their
    remainder in the arrangement; others are rejected.
    """
    if sum(lam) % 6 != 2:
        raise ValueError("height %d is not 2 mod 6; closed form does not apply"
                         % sum(lam))
    b1, b2, b3 = column_multiplicities(lam)
    t1, r1 = divmod(b1, 6)
    t2, r2 = divmod(b2, 3)
    t3 = (b3 + 1) // 2 - 1
    big_k = t1 + t2 + t3
    if b3 % 2:
        x = (r2 + 1) * big_k + 2 * r2 + t3
    elif (r1, r2) == (4, 2):
        x = big_k - t1
    else:
        x = (r2 + 2) * big_k + 2 * r2 + 1 - t1
    return x % m


def closed_form_table():
    """ehrhart_crank_closed_form, the crank x mod m of the 2m-2 arrangement,
    as a table_histogram table: the x rows of its placements (heights 8 and
    14 only, as the closed form rejects the rest)."""
    return {mu: (*matrix[0], offset[0])
            for mu, _, matrix, offset in _PLACEMENTS_2M_MINUS_2}


def rectangle_cycle_step(plan, lam):
    """One step of the rectangle cycling: move by the plan's delta with
    wraparound, and pull the landing cell back to a partition (cells() is
    the reference).  On t1 + t2 + t3 = s each placement is the 2x2 system
    [[a-c, b-c], [d-f, e-f]] (t1, t2) = cell - s (c, f) - offset, solved by
    Cramer's rule at each copy of the cell along the step axis that the
    triangle's corners reach; an integral tau >= 0 is the answer.  lam's own
    placement goes first, as most steps land in it (a miss retries it)."""
    n = lam[0] + lam[1] + lam[2]
    kprime = plan.kprime_for(n)
    dims = plan.dims(kprime)
    if dims[0] == 0 or dims[1] == 0:
        raise ValueError("plan %s is vacuous at k'=%d" % (plan.r_label, kprime))
    x, y = plan._reduce(plan.locate(lam), dims)
    nxt = ((x + plan.delta[0]) % dims[0], (y + plan.delta[1]) % dims[1])
    axis, k = plan.delta.index(1), plan.k_for(kprime)
    first = box_decompose(lam)[0]
    for mu, off, mp in ((first, *plan._by_mu[first]), *plan.placements):
        s, ((a, b, c), (d, e, f)), (ox, oy) = k - off, mp.matrix, mp.offset
        qs = [(p * s + mp.offset[axis]) // dims[axis] for p in mp.matrix[axis]]
        for q in range(min(qs), max(qs) + 1):
            u = nxt[0] + q * dims[0] * (1 - axis) - c * s - ox
            v = nxt[1] + q * dims[1] * axis - f * s - oy
            t1, r1 = divmod((e - f) * u - (b - c) * v, mp._det)
            t2, r2 = divmod((a - c) * v - (d - f) * u, mp._det)
            if not (r1 or r2) and min(t1, t2, s - t1 - t2) >= 0:
                return box_compose(mu, (t1, t2, s - t1 - t2))
    raise ValueError("no placement covers cell %r at k'=%d" % (nxt, kprime))


# ---------------------------------------------------------------------------
# Generic arrangements for all nine height progressions

# Block primitives (widths in cells; a is the size of the leading triangle):
#   "sq"     one T_a and one T_{a-1}, covering (a+1) columns, rows 0..a
#   "hrect"  two copies of T_a, covering (a+2) columns, rows 0..a
#   "vrect"  two copies of T_a transposed, covering (a+1) columns, rows 0..a+1
# Each case lays three blocks left to right; triangle sizes are k minus the
# listed size offset.  Vertical-axis cases read the crank off y, horizontal
# ones off x; in both the step-axis dimension is m * (integer).  The first
# four columns are pairs (a, b): r' = a*m + b, k_offset = a*c + b with
# c = (m-2)/3, and the constant terms of ell1 = 3m k' + (a*m + b) and
# ell2 = m k' + (a*c + b).  The last column (p, rho_A, rho_B) gives the
# border jumps of step_f as two row rotations (see _border_row).
_CASES = {
    # label: (r', k_offset, ell1 constant, ell2 constant, axis, blocks, border)
    "0": ((0, 0), (0, 0), (0, 0), (0, 0), "y", (("sq", 1), ("sq", 1), ("sq", 1)), (1, 2, -2)),
    "1": ((0, 1), (0, 0), (0, 1), (0, 0), "y", (("hrect", 1), ("sq", 1), ("sq", 1)), (1, 0, -2)),
    "2": ((0, 2), (0, 0), (0, 2), (0, 0), "y", (("sq", 1), ("hrect", 1), ("hrect", 1)), (1, 0, -4)),
    "-1": ((0, -1), (0, -1), (0, -1), (0, 0), "y", (("hrect", 0), ("vrect", 1), ("vrect", 1)), (0, 0, -4)),
    "-2": ((0, -2), (0, -1), (0, -2), (0, 0), "y", (("sq", 0), ("vrect", 1), ("vrect", 1)), (0, 0, -2)),
    "2m-2": ((2, -2), (1, 0), (1, 0), (1, 0), "x", (("sq", 1), ("hrect", 1), ("hrect", 1)), (0, 0, 0)),
    "2m+1": ((2, 1), (1, 0), (1, 0), (1, 1), "x", (("hrect", 0), ("vrect", 1), ("vrect", 1)), (1, 0, 0)),
    "-(2m-2)": ((-2, 2), (-1, -1), (-1, 0), (-1, 0), "x", (("sq", 0), ("vrect", 1), ("vrect", 1)), (1, 0, 0)),
    "-(2m+1)": ((-2, -1), (-1, -1), (-1, 0), (-1, -1), "x", (("hrect", 1), ("sq", 1), ("sq", 1)), (0, 0, 0)),
}

# (eta, delta) for the crank read off each axis
_AXES = {"x": ((1, 0, 0), (1, 0)), "y": ((0, 1, 0), (0, 1))}


def _r_values(m):
    """The nine signed residues r' for modulus m, by label, in table order."""
    return {label: a * m + b for label, ((a, b), *_) in _CASES.items()}


def case_labels():
    """The nine supported height-progression labels."""
    return tuple(_CASES)


def normalize_case_label(r_prime, m=None):
    """Accept either a case label string or a numeric r' for a given m."""
    if isinstance(r_prime, str):
        label = r_prime.replace(" ", "")
        if label in _CASES:
            return label
        try:
            value = int(label)
        except ValueError:
            raise ValueError("unknown case label %r" % (r_prime,))
    else:
        value = int(r_prime)
    if m is None:
        raise ValueError("numeric r'=%r needs m to resolve a label" % (r_prime,))
    for label, r in _r_values(m).items():
        if value == r:
            return label
    raise ValueError("r'=%r is not one of the nine cases for m=%d" % (r_prime, m))


def _block_maps(kind, size_offset, x0):
    """Affine maps for one block whose left edge sits at column
    x0 = (p, q), meaning p*k + q.  Returns ((size_offset, map), ...) and
    the width of the block as (coefficient, constant) in k.

    Written in tau, using that |tau| = k - i on the triangle of size
    offset i, so column offsets linear in k fold into the matrix.
    """
    p, q = x0
    i = size_offset
    if kind == "sq":
        jj = i + 1
        first = (i, AffineMap2(((p, p, p + 1), (1, 0, 0)), (p * i + q, 0)))
        second = (jj, AffineMap2(((p, p + 1, p + 1), (1, 1, 0)),
                                 ((p + 1) * jj + q - i, 1)))
        width = (1, 1 - i)
    elif kind == "hrect":
        first = (i, AffineMap2(((p, p, p + 1), (1, 0, 0)), (p * i + q, 0)))
        second = (i, AffineMap2(((p, p + 1, p + 1), (1, 1, 0)),
                                (p * i + q + 1, 0)))
        width = (1, 2 - i)
    elif kind == "vrect":
        first = (i, AffineMap2(((p + 1, p, p), (0, 0, 1)), (p * i + q, 0)))
        second = (i, AffineMap2(((p + 1, p + 1, p), (0, 1, 1)), (p * i + q, 1)))
        width = (1, 1 - i)
    else:
        raise ValueError("unknown block kind %r" % (kind,))
    return (first, second), width


def build_arrangement(r_prime, m):
    """Construct a rectangle plan for any of the nine height progressions.

    Blocks are packed left to right; remainders are drawn from the height
    classes in sorted order.  Dimensions follow the progression's case
    row; the cover is verified exhaustively by the caller or the tests
    (verify_cover).  Layouts of the dedicated 2m-2 constructor differ
    from this generic packing; both satisfy the same invariants.
    """
    label = normalize_case_label(r_prime, m)
    c = (m - 2) // 3
    koff, const1, const2, axis, blocks = _CASES[label][1:6]
    r_value = _r_values(m)[label]
    k_offset = koff[0] * c + koff[1]
    ell1 = (3 * m, const1[0] * m + const1[1])
    ell2 = (m, const2[0] * c + const2[1])
    eta, delta = _AXES[axis]
    # remainder pools by height class: n mod 6 fixes the residue r, classes
    # r, r+6, r+12 ride triangles of sizes k, k-1, k-2
    r = r_value % 6
    groups = fundamental_points()
    pools = {i: list(groups.get(r + 6 * i, ())) for i in range(3)}
    placements = []
    x0 = (0, 0)
    for kind, size_offset in blocks:
        maps, width = _block_maps(kind, size_offset, x0)
        for cls, mp in maps:
            if not pools[cls]:
                raise ValueError("no arrangement: remainder pool for class %d "
                                 "exhausted in case %s" % (cls, label))
            placements.append((pools[cls].pop(0), cls, mp))
        x0 = (x0[0] + width[0], x0[1] + width[1])
    if any(pools.values()):
        raise ValueError("no arrangement: unplaced remainders %r in case %s"
                         % ({i: p for i, p in pools.items() if p}, label))
    return RectanglePlan(label, r_value, m, ell1=ell1, ell2=ell2,
                         k_offset=k_offset, placements=placements,
                         eta=eta, delta=delta)


def plan_for(r_prime, m):
    """The rectangle plan for a case label or numeric r': the dedicated
    arrangement for 2m-2, the generic packing for the other eight."""
    label = normalize_case_label(r_prime, m)
    if label == "2m-2":
        return arrangement_2m_minus_2(m)
    return build_arrangement(label, m)


# ---------------------------------------------------------------------------
# The cycling permutation on P(n,3)

CycleDecomposition = namedtuple("CycleDecomposition", ["cycles"])


@lru_cache(maxsize=128)
def _residue_label(n, m):
    """Label of the signed residue r' of n mod 6m among the nine divisible
    classes 0, +-1, +-2, +-(2m-2), +-(2m+1); raises if n does not qualify.
    Memoized for step_f walks; lru_cache keeps no exceptions, so a bad
    input raises on every call."""
    residues_neg(m)  # validates m; the nine r' are then distinct mod 6m
    for label, r in _r_values(m).items():
        if (n - r) % (6 * m) == 0:
            return label
    raise ValueError("height %d does not qualify for modulus %d" % (n, m))


def _border_row(n, m, t, label):
    """Row l3 whose top is the image of the border partition (n-2t, t, t).

    The rows are t = 1 .. R = n//3.  With (p, rho_A, rho_B) the border
    column of _CASES and j = (m+1)/6, the first a rows, a the number of
    rows of parity p, land in order on the rows of parity p rotated by
    rho_A j; the other R - a land in order on the rows of the other parity
    rotated by rho_B j.
    """
    p, rot_a, rot_b = _CASES[label][6]
    rows, j = n // 3, (m + 1) // 6
    a = (rows + p) // 2
    if t <= a:
        i, size, rot, parity = t - 1, a, rot_a * j, p
    else:
        i, size, rot, parity = t - 1 - a, rows - a, rot_b * j, 1 - p
    return 2 * ((i + rot) % size + 1) - parity


def _row_top(n, l3):
    """The top (n-l3-h, h, l3), h = (n-l3)//2, of row l3 of P(n,3)."""
    h = (n - l3) // 2
    return (n - l3 - h, h, l3)


def step_f(lam, m):
    """One step of the cycling permutation of P(n,3).

    Off the left border (l2 != l3) the step slides one cell along the row
    of constant smallest part: (l1+1, l2-1, l3).  On the border it jumps
    to the top of another row: the rows of each parity are taken in turn
    and rotated (_border_row).  Every step raises c_ls by exactly one
    mod m; heights must lie in a divisible class.
    """
    n = lam[0] + lam[1] + lam[2]
    label = _residue_label(n, m)
    if lam[1] != lam[2]:
        return (lam[0] + 1, lam[1] - 1, lam[2])
    return _row_top(n, _border_row(n, m, lam[2], label))


def row_permutation(n, m):
    """The permutation on rows (constant smallest part) induced by the
    border jumps: row t maps to the row of step_f((n-2t, t, t)).

    Each jump lands on the top of a row (_border_row: two rotations, each
    within the rows of one parity).  Off the border step_f slides
    (l1, l2, t) to (l1+1, l2-1, t), raising c_ls by one and never landing
    on the top of a row.  So step_f is a bijection of P(n,3) raising c_ls
    by one exactly when every border jump raises c_ls by one mod m and the
    row map is a permutation.  Both are asserted here, with n//3 border
    jumps in all.
    """
    label = _residue_label(n, m)
    rows = n // 3
    perm = {}
    for t in range(1, rows + 1):
        l3 = _border_row(n, m, t, label)
        if (_row_top(n, l3)[0] - l3 - (n - 3 * t) - 1) % m:
            raise AssertionError("border jump from row %d to row %d does not "
                                 "raise c_ls by 1 mod %d" % (t, l3, m))
        perm[t] = l3
    if set(perm.values()) != set(range(1, rows + 1)):
        raise AssertionError("border rows of P(%d,3) do not map onto the "
                             "rows one to one" % (n,))
    return perm


def _cycle_runs(n, m):
    """The cycles of step_f as lists of row runs (t, first l2, length), l2
    falling by one per member.  A cycle (t0, t1, ...) of row_permutation
    starts at the border (n-2 t0, t0, t0), then runs rows t1, .., t0, each
    from its top down to its border, the closing border dropped.  Eager, so
    every check comes before the CLI's `cycles` writes its first byte."""
    if n < 3:
        raise ValueError("no partitions of %d into three parts" % (n,))
    return [[(t0, t0, 1)] + [(t, (n - t) // 2, (n - t) // 2 - t + (t != t0))
                             for t in (*rest, t0)]
            for t0, *rest in permutation_cycles(row_permutation(n, m))]


def cycle_decomposition(n, m):
    """Orbit partition of P(n,3) under step_f, each orbit a union of whole
    rows: the members of the row runs of _cycle_runs, in order.

    Cycles are listed in first-appearance order of their smallest member
    under the partition enumeration; each cycle starts at that member.
    The verified row map costs n//3 border jumps; the rest is writing the
    members out.
    """
    return CycleDecomposition([list(chain.from_iterable(
        zip(range(n - t - l2, n - t - l2 + k), range(l2, l2 - k, -1),
            repeat(t)) for t, l2, k in runs)) for runs in _cycle_runs(n, m)])


def cycle_lengths(dec):
    """Sorted cycle lengths of a decomposition."""
    return sorted(len(c) for c in dec.cycles)


def permutation_cycles(perm):
    """Cycles of a permutation dict, each starting at its smallest
    element, ordered by that element."""
    seen, out = set(), []
    for start in sorted(perm):
        if start not in seen:
            cyc = [start]
            while perm[cyc[-1]] != start:
                cyc.append(perm[cyc[-1]])
            seen.update(cyc)
            out.append(tuple(cyc))
    return out
