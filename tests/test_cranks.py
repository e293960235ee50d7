import hashlib
import json
import random
from itertools import accumulate

import pytest
from hypothesis import example, given, strategies as st

from triparts import cranks
from triparts.cranks import (
    AffineMap2,
    CoverReport,
    RectanglePlan,
    arrangement_2m_minus_2,
    build_arrangement,
    c_ls,
    c_ls_histogram,
    c_ls_histograms,
    case_labels,
    closed_form_table,
    cycle_decomposition,
    cycle_lengths,
    ehrhart_crank,
    ehrhart_crank_closed_form,
    histogram,
    is_uniform,
    normalize_case_label,
    permutation_cycles,
    plan_crank,
    plan_for,
    plan_table,
    rectangle_cycle_step,
    row_permutation,
    step_deltas,
    step_f,
    table_histogram,
    vertex_crank_values,
)
from triparts.congruence import (
    is_divisible,
    is_prime,
    non_witnessed_residues,
    residues_pos,
)
from triparts.ehrhart import (
    box_compose,
    box_decompose,
    fundamental_points,
    row_classes,
)
from triparts.partitions import count_bruteforce, enumerate_partitions

# ---------------------------------------------------------------------------
# c_ls and histograms


def test_c_ls_pins():
    assert c_ls((17, 3, 2), 5) == 0
    assert c_ls((7, 1, 1), 7) == 6
    for m in (2, 3, 5, 7, 11):
        assert c_ls((3, 3, 3), m) == 0


def test_histogram_pins():
    assert histogram(8, 5, c_ls).counts == (1, 1, 1, 1, 1)
    assert histogram(9, 7, c_ls).counts == (1, 0, 1, 2, 1, 1, 1)
    assert histogram(22, 5, c_ls).counts == (8, 8, 8, 8, 8)


def test_histogram_totals():
    for n in (8, 9, 22, 40):
        h = histogram(n, 5, c_ls)
        assert sum(h.counts) == len(enumerate_partitions(n))


def test_fast_histogram_matches_enumeration():
    # m < 3 are the degenerate classes; 3 | m shortens the orbit of the
    # step -3 progressions to m/3; runs wrap for m = 97 and 99, and m = 500
    # exceeds every difference
    for m in (1, 2, 3, 4, 5, 6, 7, 9, 11, 12, 97, 99, 500):
        for n in range(-3, 401):
            assert c_ls_histogram(n, m) == histogram(n, m, c_ls), (n, m)


def _c_ls_histogram_by_rows(n, m):
    # one wrapping run per row of constant smallest part: O(n/3 + m)
    full = 0
    diff = [0] * (m + 1)
    for t in range(1, n // 3 + 1):
        h = (n - t) // 2
        q, r = divmod(h - t + 1, m)
        full += q
        if r:
            s = (n - 2 * t - h) % m
            diff[s] += 1
            if s + r <= m:
                diff[s + r] -= 1
            else:
                diff[0] += 1
                diff[s + r - m] -= 1
    return tuple(full + c for c in accumulate(diff[:m]))


def test_fast_histogram_matches_the_row_loop_at_large_n():
    rng = random.Random(15)
    heights = [10 ** 6] + [6 * rng.randrange(10 ** 6 // 6) + r
                           for r in range(6)]
    for n in heights:
        for m in (5, 7, 9, 97, 1001):
            assert c_ls_histogram(n, m).counts == _c_ls_histogram_by_rows(
                n, m), (n, m)


def test_row_histogram_rejects_bad_modulus():
    for m in (0, -3):
        with pytest.raises(ValueError):
            c_ls_histogram(10, m)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 9, 5, 7, 11, 13, 97])
def test_recurrence_histograms_match_scalar_routes(m):
    heights = []
    for n, hist in c_ls_histograms(m, 600):
        heights.append(n)
        assert hist.counts == c_ls_histogram(n, m).counts, (n, m)
        assert sum(hist.counts) == count_bruteforce(n), (n, m)
    assert heights == list(range(601))


def test_recurrence_histograms_below_three_are_empty():
    for m in (1, 5, 7, 97):
        for n, hist in c_ls_histograms(m, 2):
            assert hist.counts == (0,) * m, (n, m)
    assert [n for n, _ in c_ls_histograms(5, -1)] == []


def test_recurrence_histograms_reject_bad_modulus():
    for m in (0, -3):
        with pytest.raises(ValueError):
            next(c_ls_histograms(m, 10))


def test_uniformity_tracks_divisibility():
    for m in (5, 11):
        for n in range(3, 400):
            uniform = is_uniform(c_ls_histogram(n, m))
            assert uniform == is_divisible(n, m), (n, m)


def test_plus_family_witness_profile():
    # c_ls splits evenly on most divisible classes mod 42, but provably
    # not on the two exceptional ones
    ch = residues_pos(7)
    skip = non_witnessed_residues(7)
    for n in range(3, 1000):
        if n % 42 not in ch.residues:
            continue
        uniform = is_uniform(c_ls_histogram(n, 7))
        if n % 42 in skip:
            continue  # no claim either way on the exceptional classes
        assert uniform, n
    assert not is_uniform(c_ls_histogram(9, 7))
    assert not is_uniform(c_ls_histogram(33, 7))


# ---------------------------------------------------------------------------
# vertex values and deltas


def test_vertex_values_minus5_0_5():
    # raw corner values -5, 0, 5 reduce to (0,0,0) mod 5 and (6,0,5) mod 11
    for kprime in range(3):
        k = 5 * kprime + 1
        assert vertex_crank_values((6, 1, 1), k - 1, 5) == (0, 0, 0)
        k = 11 * kprime + 3
        assert vertex_crank_values((6, 1, 1), k - 1, 11) == (6, 0, 5)
    assert vertex_crank_values((1, 1, 1), 0, 7) == (0, 0, 0)


def test_directions_pins():
    assert cranks.DIRECTIONS == {"L->R": (-1, 1, 0), "L->T": (-1, 0, 1),
                                 "R->T": (0, -1, 1)}


def test_step_deltas_constants():
    assert step_deltas() == {"L->R": -3, "L->T": -6, "R->T": -3}


# ---------------------------------------------------------------------------
# the dedicated 2m-2 arrangement


def test_arrangement_kprime0_placements():
    plan = arrangement_2m_minus_2(5)
    assert plan.dims(0) == (5, 1)
    cells = plan.cells(0)
    order = [cells[(x, 0)][0] for x in range(5)]
    assert order == [(6, 1, 1), (4, 2, 2), (5, 2, 1), (3, 3, 2), (4, 3, 1)]
    # the height-14 remainder rides the empty triangle T_{-1} at k'=0
    assert all(mu != (8, 4, 2) for mu, _ in cells.values())


def test_arrangement_kprime1_cover():
    plan = arrangement_2m_minus_2(5)
    assert plan.dims(1) == (20, 6)
    rep = plan.verify_cover(1)
    assert rep.ok, rep.detail
    assert rep.cells == 120  # = p(38,3)
    assert len(enumerate_partitions(38)) == 120


def test_arrangement_rejects_bad_modulus():
    for bad in (7, 9, 35, 4):
        with pytest.raises(ValueError):
            arrangement_2m_minus_2(bad)


def test_ehrhart_crank_pins():
    plan = arrangement_2m_minus_2(5)
    assert ehrhart_crank(plan, (6, 1, 1)) == 0
    assert ehrhart_crank(plan, (4, 2, 2)) == 1
    assert ehrhart_crank(plan, (4, 3, 1)) == 4


def test_ehrhart_crank_rejects_foreign_remainder():
    plan = arrangement_2m_minus_2(5)
    with pytest.raises(ValueError):
        ehrhart_crank(plan, (3, 1, 1))


def test_ehrhart_crank_uniform_small():
    plan = arrangement_2m_minus_2(5)
    for kprime in range(3):
        n = plan.n_for(kprime)
        assert is_uniform(histogram(n, 5, plan_crank(plan)))


def test_closed_form_pins():
    assert ehrhart_crank_closed_form((6, 1, 1), 5) == 0
    assert ehrhart_crank_closed_form((4, 2, 2), 5) == 1
    plan = arrangement_2m_minus_2(5)
    assert ehrhart_crank_closed_form((13, 4, 3), 5) == ehrhart_crank(plan, (13, 4, 3))


def test_closed_form_pointwise_n20():
    plan = arrangement_2m_minus_2(5)
    for lam in enumerate_partitions(20):
        assert ehrhart_crank_closed_form(lam, 5) == ehrhart_crank(plan, lam)


def test_closed_form_rejects_off_progression():
    with pytest.raises(ValueError):
        ehrhart_crank_closed_form((3, 3, 3), 5)
    with pytest.raises(ValueError):
        ehrhart_crank_closed_form((5, 2, 2), 5)


# ---------------------------------------------------------------------------
# Crank tables counted by row classes

def _tables():
    """(name, m, r, table, crank) for every plan label at four moduli and
    the closed form at composite, tiny and large moduli; the table covers
    the heights n = r mod 6."""
    for m in (5, 11, 17, 23):
        for label in case_labels():
            plan = plan_for(label, m)
            yield ("plan:" + label, m, plan.r_value, plan_table(plan),
                   plan_crank(plan))
    for m in (1, 2, 3, 4, 6, 7, 12, 71, 83):
        yield "closed", m, 2, closed_form_table(), ehrhart_crank_closed_form


def _enumerated(n, m, crank):
    try:
        return histogram(n, m, crank)
    except ValueError:
        return None


def test_table_histograms_match_enumeration():
    for name, m, r, table, crank in _tables():
        assert all(a2 - a1 in (-1, 0, 1) for a1, a2, _, _ in table.values())
        for n in range(151):
            got = table_histogram(n, m, table)
            assert got == _enumerated(n, m, crank), (name, m, n)
            # |mu| = n mod 6, and a table holds every remainder of its class
            assert (got is None) == (n >= 3 and (n - r) % 6 != 0), (name, n)


def _row_class_walk(n, m, table):
    """table_histogram by one box_decompose per row class, O(n + m): the
    route the row-class families replaced, kept as their reference."""
    diff = [0] * m
    total = 0
    for t, first, steps in row_classes(n):
        mu, (t1, t2, t3) = box_decompose((n - t - first, first, t))
        entry = table.get(mu)
        if entry is None:
            return None
        a1, a2, a3, c = entry
        s = (a1 * t1 + a2 * t2 + a3 * t3 + c) % m
        if a2 < a1:  # the run s, s-1, .., s-steps, read upward
            s = (s - steps) % m
        size = steps + 1
        total += size
        w, end = (size, s + 1) if a2 == a1 else (1, s + size)
        diff[s] += w
        diff[end % m] -= w
    return cranks._from_cyclic_diff(diff, total, m)


def test_table_histogram_families_match_the_row_class_walk():
    checked = 0
    for m in (5, 11, 17, 23):
        for label in case_labels():
            table = plan_table(plan_for(label, m))
            for n in range(-3, 400):
                assert (table_histogram(n, m, table)
                        == _row_class_walk(n, m, table)), (label, m, n)
                checked += 1
    for m in (1, 2, 3, 4, 5, 6, 7, 11, 71, 83):
        for n in range(-3, 400):
            assert (table_histogram(n, m, closed_form_table())
                    == _row_class_walk(n, m, closed_form_table())), (m, n)
            checked += 1
    rng = random.Random(2015)
    for _ in range(300):
        m = rng.choice((5, 11, 17, 23))
        label = rng.choice((*case_labels(), "closed"))
        table = (closed_form_table() if label == "closed"
                 else plan_table(plan_for(label, m)))
        n = rng.randrange(200000)
        assert (table_histogram(n, m, table)
                == _row_class_walk(n, m, table)), (label, m, n)
        checked += 1
    assert checked == 18838


@given(st.integers(1, 13), st.integers(-40, 40), st.integers(-40, 40),
       st.integers(0, 60), st.integers(-9, 9), st.integers(-3, 3))
@example(1, 0, 0, 5, 2, -1)
@example(7, -3, 0, 20, 4, 1)
@example(6, 5, 3, 13, -1, 0)
def test_add_progression_matches_term_by_term(m, a, b, k, w, dw):
    diff, direct = [1] * m, [1] * m
    cranks._add_progression(diff, a, b, k, w, dw)
    for i in range(k):
        direct[(a + i * b) % m] += w + i * dw
    assert diff == direct


def test_plan_table_reads_the_whole_eta():
    # the other axis and a constant term: no shipped plan reads either
    for label in case_labels():
        plan = plan_for(label, 5)
        e1, e2, _ = plan.eta
        other = RectanglePlan(label, plan.r_value, 5, plan.ell1, plan.ell2,
                              plan.k_offset, plan.placements,
                              eta=(e2, e1, 4), delta=plan.delta)
        for n in range(3, 151):
            assert (table_histogram(n, 5, plan_table(other))
                    == _enumerated(n, 5, plan_crank(other))), (label, n)


@pytest.mark.parametrize("name,m", [("plan:2m-2", 5), ("plan:-(2m+1)", 11),
                                    ("plan:0", 17), ("closed", 7)])
def test_table_histogram_sees_a_shifted_constant(name, m):
    table, crank = next((t, c) for nm, mm, _, t, c in _tables()
                        if (nm, mm) == (name, m))
    for mu, (a1, a2, a3, c) in table.items():
        broken = dict(table)
        broken[mu] = (a1, a2, a3, c + 1)
        assert any(table_histogram(n, m, broken) != _enumerated(n, m, crank)
                   for n in range(3, 151)), (name, m, mu)


def _direct_counts(m, runs):
    counts = [0] * m
    for s, size, weighted in runs:
        if weighted:  # one class of weight size
            counts[s] += size
        else:
            for i in range(size):
                counts[(s + i) % m] += 1
    return tuple(counts)


@st.composite
def _cyclic_runs(draw):
    m = draw(st.integers(1, 13))
    run = st.tuples(st.integers(0, m - 1), st.integers(0, 3 * m),
                    st.booleans())
    return m, draw(st.lists(run, max_size=8))


@given(_cyclic_runs())
@example((1, [(0, 0, False), (0, 4, False), (0, 3, True)]))
@example((7, [(6, 7, False), (3, 0, False), (5, 16, False), (2, 4, True)]))
@example((13, [(12, 5, True), (12, 2, False)]))
def test_from_cyclic_diff_matches_direct_counting(case):
    # runs (s, L) of L classes from s, or one class s of weight L
    m, runs = case
    diff = [0] * m
    for s, size, weighted in runs:
        w, end = (size, s + 1) if weighted else (1, s + size)
        diff[s] += w
        diff[end % m] -= w
    total = sum(size for _, size, _ in runs)
    assert cranks._from_cyclic_diff(diff, total, m) == (m, _direct_counts(
        m, runs))
    if m > 1:
        with pytest.raises(AssertionError, match="do not sum"):
            cranks._from_cyclic_diff(diff, total + 1, m)


def test_closed_form_is_the_2m_minus_2_plan_crank():
    moduli = [m for m in range(5, 200, 6) if is_prime(m)]
    assert len(moduli) == 23
    for m in moduli:
        assert closed_form_table() == plan_table(arrangement_2m_minus_2(m)), m


def test_tables_place_whole_height_classes():
    # so a table places all of P(n,3) or none of it, and where it places
    # none the CLI names the crank's error on (n-2, 1, 1)
    classes = {}
    for h, pts in fundamental_points().items():
        classes.setdefault(h % 6, set()).update(pts)
    for m in (5, 11, 17, 23, 83):
        for label in case_labels():
            for plan in (plan_for(label, m), build_arrangement(label, m)):
                assert set(plan_table(plan)) == classes[plan.r_value % 6], (
                    label, m)
    assert set(closed_form_table()) == classes[2]


def test_table_histogram_rejects_bad_input():
    for m in (0, -3):
        with pytest.raises(ValueError):
            table_histogram(10, m, closed_form_table())
    with pytest.raises(ValueError, match="step 2"):
        table_histogram(10, 5, {(6, 1, 1): (0, 2, 0, 0)})
    assert table_histogram(2, 5, {}).counts == (0,) * 5
    assert table_histogram(8, 5, {}) is None


def test_rectangle_walk_kprime0():
    plan = arrangement_2m_minus_2(5)
    walk = [(6, 1, 1)]
    for _ in range(5):
        walk.append(rectangle_cycle_step(plan, walk[-1]))
    assert walk == [
        (6, 1, 1), (4, 2, 2), (5, 2, 1), (3, 3, 2), (4, 3, 1), (6, 1, 1),
    ]


def test_rectangle_rows_decrease_c_ls_by_3():
    plan = arrangement_2m_minus_2(5)
    for start in ((6, 1, 1), (20, 11, 7), (17, 14, 7)):
        cur = start
        for _ in range(plan.dims(plan.kprime_for(sum(start)))[0]):
            nxt = rectangle_cycle_step(plan, cur)
            assert (c_ls(nxt, 5) - c_ls(cur, 5)) % 5 == (-3) % 5
            cur = nxt
        assert cur == start  # row cycle length = ell1(k')


def test_row_cycle_length_20_at_kprime1():
    plan = arrangement_2m_minus_2(5)
    start = (36, 1, 1)
    cur = rectangle_cycle_step(plan, start)
    length = 1
    while cur != start:
        cur = rectangle_cycle_step(plan, cur)
        length += 1
    assert length == 20


# ---------------------------------------------------------------------------
# generic arrangements


def test_case_labels():
    assert set(case_labels()) == {
        "0", "1", "2", "-1", "-2", "2m-2", "2m+1", "-(2m-2)", "-(2m+1)",
    }


def test_normalize_case_label():
    assert normalize_case_label("2m-2") == "2m-2"
    assert normalize_case_label(8, 5) == "2m-2"
    assert normalize_case_label(11, 5) == "2m+1"
    assert normalize_case_label(-8, 5) == "-(2m-2)"
    assert normalize_case_label(0, 5) == "0"
    with pytest.raises(ValueError):
        normalize_case_label(3, 5)
    with pytest.raises(ValueError):
        normalize_case_label(8)  # numeric needs m
    with pytest.raises(ValueError):
        normalize_case_label("fifth")


def test_build_matches_table_dimensions():
    # ell1 = 3mk', ell2 = mk' for the 0 row; 3mk'-1 x mk' for the -1 row
    plan0 = build_arrangement("0", 5)
    plan1 = build_arrangement("-1", 5)
    for kprime in range(4):
        assert plan0.dims(kprime) == (15 * kprime, 5 * kprime)
        assert plan1.dims(kprime) == (max(0, 15 * kprime - 1), 5 * kprime)
    # numeric r' resolves to the same case as the dedicated constructor
    generic = build_arrangement(8, 5)
    dedicated = arrangement_2m_minus_2(5)
    for kprime in range(4):
        assert generic.dims(kprime) == dedicated.dims(kprime)


# sha256 of every generic plan's parameters for the nine labels, recorded
# before build_arrangement read all of them from the case table
PLAN_PARAMETERS = {
    5: "90a1a6fd72545fc6b11d2de46614ac2d3be9af9ad4160537b1e1b5a63241a1c1",
    11: "63a76474ef17de561b0bb5d7a9eb796171badda063dd03793e33c2f5236a3ece",
    83: "17a624be7a6a0ab144c30108187aa1f2ea81bc55242dfdd4e3850f6b2712a70c",
}


@pytest.mark.parametrize("m", sorted(PLAN_PARAMETERS))
def test_build_arrangement_parameters_pinned(m):
    doc = {}
    for label in case_labels():
        plan = build_arrangement(label, m)
        doc[label] = [plan.r_value, plan.k_offset, plan.ell1, plan.ell2,
                      plan.eta, plan.delta,
                      [[mu, off, mp.matrix, mp.offset]
                       for mu, off, mp in plan.placements]]
    text = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PLAN_PARAMETERS[m]


def test_build_all_cases_cover_and_uniform():
    for label in case_labels():
        plan = build_arrangement(label, 5)
        for kprime in range(3):
            rep = plan.verify_cover(kprime)
            assert rep.ok, (label, kprime, rep.detail)
            n = plan.n_for(kprime)
            if n >= 3:
                h = histogram(n, 5, plan_crank(plan))
                assert is_uniform(h), (label, n, h)
                assert sum(h.counts) == len(enumerate_partitions(n))


def _cover_from_cells(plan, kprime):
    """The cover report as read off the cell-by-cell reference cells()."""
    expected = plan.dims(kprime)[0] * plan.dims(kprime)[1]
    try:
        got = len(plan.cells(kprime))
    except ValueError as exc:
        return CoverReport(False, None, expected, str(exc))
    if got != expected:
        return CoverReport(False, got, expected,
                           "covered %d of %d cells" % (got, expected))
    return CoverReport(True, got, expected, "ok")


def _replan(plan, placements):
    return RectanglePlan(plan.r_label, plan.r_value, plan.m, plan.ell1,
                         plan.ell2, plan.k_offset, placements, plan.eta,
                         plan.delta)


def _moved(plan, which, matrix_fn, offset_fn):
    """The plan with placements[i] for i in which remapped through
    matrix_fn and offset_fn."""
    placements = list(plan.placements)
    for i in which:
        mu, size_offset, mp = placements[i]
        placements[i] = (mu, size_offset,
                         AffineMap2(matrix_fn(mp.matrix), offset_fn(mp.offset)))
    return _replan(plan, placements)


def _moved_copies(plan, kprime):
    """The plan with its step axis reflected, u -> wrap - 1 - u, and moved
    one period along it: both exact covers at k' (see the mirrored test)."""
    axis = plan.delta.index(1)
    wrap = plan.dims(kprime)[axis]
    everything = range(len(plan.placements))
    mirrored = _moved(
        plan, everything,
        lambda mat: tuple(tuple(-x for x in row) if i == axis else row
                          for i, row in enumerate(mat)),
        lambda off: tuple(wrap - 1 - o if i == axis else o
                          for i, o in enumerate(off)))
    shifted = _moved(plan, everything, lambda mat: mat,
                     lambda off: tuple(o + wrap * (i == axis)
                                       for i, o in enumerate(off)))
    return [mirrored, shifted]


@pytest.mark.parametrize("m", [5, 11])
def test_rectangle_steps_match_cells(m):
    # rectangle_cycle_step solves the placement maps for the landing cell;
    # cells() is the reference.  The moved copies reach triangles whose
    # images start below 0 or end a period or more past the dimension.
    plans = [build_arrangement(label, m) for label in case_labels()]
    steps = 0
    for plan in plans + [arrangement_2m_minus_2(m)]:
        for kprime in range(4):
            for p in [plan] + (_moved_copies(plan, kprime) if kprime else []):
                (w, h), (dx, dy) = p.dims(kprime), p.delta
                cells = p.cells(kprime)
                for (x, y), (mu, tau) in cells.items():
                    got = rectangle_cycle_step(p, box_compose(mu, tau))
                    assert got == box_compose(
                        *cells[((x + dx) % w, (y + dy) % h)]), (p, kprime, x, y)
                steps += len(cells)
    assert steps == {5: 32555, 11: 158213}[m]


def test_rectangle_step_errors():
    with pytest.raises(ValueError, match="^plan 0 is vacuous at k'=0$"):
        rectangle_cycle_step(plan_for("0", 5), (0, 0, 0))
    # the (8, 4, 2) triangle dropped: (0, 5) is its cell (tau2 + tau3,
    # tau1 + tau2 + 1) at tau = (4, 0, 0), and the step from (19, 5) wraps
    # onto it
    plan = arrangement_2m_minus_2(5)
    gapped = _replan(plan, plan.placements[:-1])
    lam = box_compose(*gapped.cells(1)[(19, 5)])
    with pytest.raises(ValueError,
                       match=r"^no placement covers cell \(0, 5\) at k'=1$"):
        rectangle_cycle_step(gapped, lam)


def _expand(pieces):
    """The cells of row pieces, in their order, each with its partition."""
    return [((x + i, y), (l1 + i * d1, l2 + i * d2, l3 + i * d3))
            for y, x, n, l1, l2, l3, d1, d2, d3 in pieces for i in range(n)]


def _cells_in_row_order(plan, kprime):
    """The cells of the cell-by-cell reference cells(), in (y, x) order."""
    cells = plan.cells(kprime)
    return [((x, y), box_compose(*cells[(x, y)]))
            for x, y in sorted(cells, key=lambda cell: (cell[1], cell[0]))]


@pytest.mark.parametrize("m", [5, 11, 17, 23])
def test_cover_runs_match_cells(m):
    plans = [build_arrangement(label, m) for label in case_labels()]
    plans.append(arrangement_2m_minus_2(m))
    for plan in plans:
        for kprime in range(5):
            rep = plan.verify_cover(kprime)
            assert rep == _cover_from_cells(plan, kprime), (plan, kprime)
            # the boundary check itself accepts, not the fallback behind it
            assert (plan._lines(kprime) is not None) is rep.ok, (plan, kprime)
            rows = plan._rows(kprime)
            assert (rows is not None) is rep.ok, (plan, kprime)
            assert _expand(rows) == _cells_in_row_order(plan, kprime), (
                plan, kprime)


@pytest.mark.parametrize("m", [5, 11])
def test_cover_runs_on_mirrored_plans(m):
    # Reflecting the step axis, u -> wrap - 1 - u, keeps an exact cover
    # and turns runs that wrap downward into runs that wrap upward (only
    # the dedicated 2m-2 layout has runs that wrap); so does moving every
    # triangle one period along it, which leaves every run to be reduced.
    plans = [build_arrangement(label, m) for label in case_labels()]
    for plan in plans + [arrangement_2m_minus_2(m)]:
        label = plan.r_label
        axis = 0 if plan.delta == (1, 0) else 1
        everything = range(len(plan.placements))
        for kprime in range(1, 4):
            wrap = plan.dims(kprime)[axis]
            mirrored = _moved(
                plan, everything,
                lambda mat: tuple(tuple(-x for x in row) if i == axis else row
                                  for i, row in enumerate(mat)),
                lambda off: tuple(wrap - 1 - o if i == axis else o
                                  for i, o in enumerate(off)))
            shifted = _moved(plan, everything, lambda mat: mat,
                             lambda off: tuple(o + wrap * (i == axis)
                                               for i, o in enumerate(off)))
            for moved in (mirrored, shifted):
                assert moved._lines(kprime) is not None, (label, kprime)
                rows = moved._rows(kprime)
                assert rows is not None, (label, kprime)
                assert _expand(rows) == _cells_in_row_order(moved, kprime), (
                    label, kprime)
                rep = moved.verify_cover(kprime)
                assert rep == _cover_from_cells(moved, kprime)


@pytest.mark.parametrize("m", [5, 11])
def test_cover_runs_match_cells_on_broken_plans(m):
    for label in case_labels():
        plan = build_arrangement(label, m)
        along, across = (0, 1) if plan.delta == (1, 0) else (1, 0)
        everything = range(len(plan.placements))
        for kprime in range(1, 5):
            span = plan.dims(kprime)[across]
            # a one-cell triangle just past the far edge, at the start of the
            # row (or column) after the last
            extra = ((0, 0, 0), plan.k_for(kprime), AffineMap2(
                plan.placements[0][2].matrix,
                tuple(span * (i == across) for i in range(2))))
            broken = [
                # one triangle moved a cell along the step axis
                ("covered twice", _moved(
                    plan, [0], lambda mat: mat,
                    lambda off: tuple(o + (i == along)
                                      for i, o in enumerate(off)))),
                # the whole layout one rectangle below itself: every cell
                # outside, none aliased back in
                ("outside", _moved(
                    plan, everything, lambda mat: mat,
                    lambda off: tuple(o - span * (i == across)
                                      for i, o in enumerate(off)))),
                ("outside", _replan(plan, plan.placements + [extra])),
                ("covered ", _replan(plan, plan.placements[:-1])),
            ]
            for kind, bad in broken:
                assert bad._lines(kprime) is None, (label, kind, kprime)
                assert bad._rows(kprime) is None, (label, kind, kprime)
                rep = bad.verify_cover(kprime)
                assert rep == _cover_from_cells(bad, kprime), (label, kind, kprime)
                assert not rep.ok and kind in rep.detail, (label, kprime, rep)
        if 0 in plan.dims(0):
            # a triangle in a rectangle with no cells
            mu, _, mp = plan.placements[0]
            bad = _replan(plan, [(mu, plan.k_for(0), mp)]
                          + plan.placements[1:])
            assert bad._lines(0) is None and bad._rows(0) is None, label
            rep = bad.verify_cover(0)
            assert rep == _cover_from_cells(bad, 0), label
            assert not rep.ok and "outside" in rep.detail, (label, rep)


def _staircases(delta, w, h, stairs):
    """A w x h plan at k' = 0 of one staircase triangle per (x, y, s): row
    y + j holds the cells x .. x + s - j, for j = 0 .. s."""
    placements = [((i, 0, 0), -s, AffineMap2(((0, 1, 0), (1, 0, 0)), (x, y)))
                  for i, (x, y, s) in enumerate(stairs)]
    return RectanglePlan("stairs", 0, 5, (0, w), (0, h), 0, placements,
                         (1, 0, 0) if delta == (1, 0) else (0, 1, 0), delta)


def test_cover_bounds_on_lines():
    # The broken y-axis layouts still cover [0, w h) once in the linear
    # positions L = y w + x, so only the bounds on x reject them.
    def check(plan, ok):
        rep = plan.verify_cover(0)
        assert rep == _cover_from_cells(plan, 0) and rep.ok is ok, rep
        assert (plan._lines(0) is not None) is ok
    # y-axis plans take x as it is: a cell at x = -1 of row 1 is L = 1, a
    # line of two cells from (1, 0) is L = 1, 2 (the cell (0, 1))
    cells = [(x, y, 0) for y in range(5) for x in range(2)]
    check(_staircases((0, 1), 2, 5, cells), True)
    check(_staircases((0, 1), 2, 5, [(-1, 1, 0)] + cells[:1] + cells[2:]),
          False)
    check(_staircases((0, 1), 2, 5, [(1, 0, 1)] + cells[:1] + cells[4:]),
          False)
    # x-axis plans take y as it is: a cell at y = h or y = -1 would land
    # on (0, 0) mod h, and falls outside [0, w h) instead
    cells = [(x, y, 0) for y in range(2) for x in range(5)]
    check(_staircases((1, 0), 5, 2, cells), True)
    check(_staircases((1, 0), 5, 2, [(0, 2, 0)] + cells[1:]), False)
    check(_staircases((1, 0), 5, 2, [(0, -1, 0)] + cells[1:]), False)


def test_cover_off_the_row_shape_falls_back_to_cells():
    # At k' = 0 the five height-8 triangles of the m = 5 plan are single
    # cells, so any map through the same corner keeps the cover exact; a
    # map along which no row is a unit run (here y is fixed along no line,
    # or x moves by 2 along the lines of fixed y) is left to cells().
    plan = arrangement_2m_minus_2(5)
    for matrix in (((1, 3, 7), (0, 1, 5)), ((3, 1, 0), (0, 0, 2))):
        sheared = _moved(plan, [0], lambda mat: matrix, lambda off: off)
        assert sheared._rows(0) is None
        assert sheared.verify_cover(0) == CoverReport(True, 5, 5, "ok")
        assert sheared._rows(1) is None
        rep = sheared.verify_cover(1)
        assert rep == _cover_from_cells(sheared, 1) and not rep.ok


def test_rows_bound_the_triangle_lines_walked(monkeypatch):
    plan = plan_for("0", 5)
    lines = sum(plan.k_for(3) - off + 1 for _, off, _ in plan.placements)
    monkeypatch.setattr(cranks, "_MAX_LINES", lines)
    assert plan.verify_cover(3).ok
    monkeypatch.setattr(cranks, "_MAX_LINES", lines - 1)
    with pytest.raises(ValueError, match="^input too large"):
        plan.verify_cover(3)


def test_build_rejects_bad_modulus():
    with pytest.raises(ValueError):
        build_arrangement("0", 7)


# ---------------------------------------------------------------------------
# plan plumbing


def test_affine_map_validation():
    with pytest.raises(ValueError):
        AffineMap2(((1, 1, 1), (0, 0, 0)), (0, 0))  # constant on triangles
    with pytest.raises(ValueError):
        AffineMap2(((1, 0), (0, 1)), (0, 0))  # wrong shape
    with pytest.raises(ValueError, match="not injective"):
        # (0, 0, 5) and (4, 1, 0) both go to (0, 0)
        AffineMap2(((1, -4, 0), (2, -8, 0)), (0, 0))
    mp = AffineMap2(((1, 0, 0), (0, 1, 0)), (3, 4))
    assert mp.apply((2, 5, 1)) == (5, 9)
    assert mp == AffineMap2(((1, 0, 0), (0, 1, 0)), (3, 4))


def test_plan_constructor_validation():
    mp = AffineMap2(((1, 1, 2), (1, 0, 0)), (0, 0))
    with pytest.raises(ValueError):
        RectanglePlan("2m-2", 8, 7, (21, 7), (7, 1), 1,
                      [((6, 1, 1), 1, mp)], (1, 0, 0), (1, 0))
    with pytest.raises(ValueError):
        RectanglePlan("2m-2", 8, 5, (15, 5), (5, 1), 1,
                      [((6, 1, 1), 1, mp), ((6, 1, 1), 1, mp)],
                      (1, 0, 0), (1, 0))
    with pytest.raises(ValueError):
        RectanglePlan("2m-2", 8, 5, (15, 5), (5, 1), 1,
                      [((6, 1, 1), 1, mp)], (1, 0, 0), (1, 1))


def test_plan_for_dispatches_on_label():
    for m in (5, 11):
        for r_prime in ("2m-2", 2 * m - 2, " 2m-2"):
            plan = plan_for(r_prime, m)
            assert plan.r_label == "2m-2"
            assert plan.placements == arrangement_2m_minus_2(m).placements
        for label in case_labels():
            if label == "2m-2":
                continue
            plan = plan_for(label, m)
            assert plan.r_label == label
            assert plan.placements == build_arrangement(label, m).placements
    assert plan_for(-1, 5).r_label == "-1"
    for bad in (7, 9, 35, 4):
        with pytest.raises(ValueError, match="need a prime congruent to 5 mod 6"):
            plan_for("0", bad)
        with pytest.raises(ValueError, match="need a prime congruent to 5 mod 6"):
            plan_for("2m-2", bad)
    with pytest.raises(ValueError, match="unknown case label"):
        plan_for("junk", 7)


def test_kprime_for_rejects_off_progression():
    plan = arrangement_2m_minus_2(5)
    assert plan.kprime_for(8) == 0
    assert plan.kprime_for(38) == 1
    with pytest.raises(ValueError):
        plan.kprime_for(20)


# ---------------------------------------------------------------------------
# the cycling permutation


def test_step_f_pins():
    assert step_f((18, 3, 1), 5) == (19, 2, 1)
    assert step_f((20, 1, 1), 5) == (11, 10, 1)
    assert step_f((12, 5, 5), 5) == (10, 10, 2)


def test_step_f_rejects_non_qualifying():
    with pytest.raises(ValueError):
        step_f((10, 2, 2), 5)  # 14 mod 30 is not a divisible class


@pytest.mark.parametrize("lam,m", [((10, 2, 2), 5), ((18, 3, 1), 7),
                                   ((18, 3, 1), 25)],
                         ids=["height", "plus-one-prime", "composite"])
def test_step_f_rejects_on_every_call(lam, m):
    # the height's label is memoized; a rejection must not be
    step_f((18, 3, 1), 5)
    for _ in range(3):
        with pytest.raises(ValueError):
            step_f(lam, m)
    assert step_f((18, 3, 1), 5) == (19, 2, 1)


def test_cycle_decomposition_22_5():
    dec = cycle_decomposition(22, 5)
    assert cycle_lengths(dec) == [10, 10, 20]
    assert sum(len(c) for c in dec.cycles) == 40
    # cyclic consistency and constant crank shift +1
    for cyc in dec.cycles:
        for i, lam in enumerate(cyc):
            nxt = cyc[(i + 1) % len(cyc)]
            assert step_f(lam, 5) == nxt
            assert (c_ls(nxt, 5) - c_ls(lam, 5)) % 5 == 1


def test_row_permutation_22_5():
    assert permutation_cycles(row_permutation(22, 5)) == [
        (1,), (2, 3, 5), (4, 7, 6),
    ]


# sha256 of the row map of every qualifying height 3 <= n <= 2000, recorded
# from the per-residue border formulas before the rotation rule replaced them
ROW_PERMUTATIONS = {
    5: "a6d947c0638a4e54d49e62989b2e9b3bf4dff8bcdf04c48c008e3843999c6349",
    11: "af937e0a794c3b34e58098d5a4d52d686b255b26896dc2a00ff1d57b320e695c",
    17: "c037da07e215817982d384599b3c363c7bb2023a2b2fd9ac38af17101666b777",
    23: "06d8b334c2d380c60a9825e662a7376618e50f1864587c730f691c7944e1e07b",
    83: "3696e72a59a1395e3a28b74a7b2332d7ea18fb366e7cfc507f67cf493b6cee01",
}


@pytest.mark.parametrize("m", sorted(ROW_PERMUTATIONS))
def test_row_permutation_pinned(m):
    doc = {}
    for n in range(3, 2001):
        if is_divisible(n, m):
            perm = row_permutation(n, m)
            doc[n] = [perm[t] for t in sorted(perm)]
    text = json.dumps(doc)
    assert hashlib.sha256(text.encode()).hexdigest() == ROW_PERMUTATIONS[m]


def test_single_cycle_at_8():
    dec = cycle_decomposition(8, 5)
    assert cycle_lengths(dec) == [5]
    assert set(dec.cycles[0]) == set(enumerate_partitions(8))


@given(st.sampled_from([(n, m) for m in (5, 11) for n in range(3, 200)
                        if is_divisible(n, m)]))
def test_step_f_bijection_small(nm):
    n, m = nm
    parts = enumerate_partitions(n)
    images = [step_f(lam, m) for lam in parts]
    assert sorted(images) == sorted(parts)
    for lam, img in zip(parts, images):
        assert (c_ls(img, m) - c_ls(lam, m)) % m == 1


def test_cycle_lengths_divisible_by_m():
    for m in (5, 11):
        for n in range(3, 140):
            if not is_divisible(n, m):
                continue
            for length in cycle_lengths(cycle_decomposition(n, m)):
                assert length % m == 0, (n, m, length)


@pytest.mark.parametrize("m", [5, 11, 17])
def test_row_route_matches_step_f_walk(m):
    for n in range(3, 400):
        if not is_divisible(n, m):
            continue
        dec = cycle_decomposition(n, m)
        members = [lam for cyc in dec.cycles for lam in cyc]
        assert sorted(members) == sorted(enumerate_partitions(n)), (n, m)
        for cyc in dec.cycles:
            orbit = [cyc[0]]
            cur = step_f(cyc[0], m)
            while cur != cyc[0]:
                orbit.append(cur)
                cur = step_f(cur, m)
            assert orbit == cyc, (n, m)


def _row_with_shift(n, m, t, wanted):
    """The first row whose top's c_ls, measured from the border of row t,
    is (wanted is True) or is not (False) raised by one mod m."""
    for l3 in range(1, n // 3 + 1):
        half = (n - l3) // 2
        if (((n - l3 - half - l3) - (n - 3 * t) - 1) % m == 0) == wanted:
            return l3
    raise AssertionError("no such row")


@pytest.mark.parametrize("fault,message", [
    (lambda n, m, t: _row_with_shift(n, m, t, False), "does not raise c_ls"),
    (lambda n, m, t: _row_with_shift(n, m, t, True), "one to one"),
], ids=["wrong-c_ls", "not-a-permutation"])
def test_row_route_rejects_faulty_border_steps(monkeypatch, fault, message):
    n, m = 98, 5
    monkeypatch.setattr(cranks, "_border_row",
                        lambda n, m, t, label: fault(n, m, t))
    with pytest.raises(AssertionError, match=message):
        cycle_decomposition(n, m)
