"""Lattice enumeration, exclusion, digit bijections, DNF expansion."""

import random
from fractions import Fraction
from itertools import product
from math import factorial, gcd, lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

import proofs
from oracles import enumerate_lattice, propagate_reference
from parafrob import pilp
from parafrob.errors import InputError, ResourceLimitError
from parafrob.pilp import (
    EQ,
    LE,
    ExclusionProblem,
    ParametricConstraintSystem,
    Row,
)
from parafrob.qpoly import BOTTOM, Poly, SampleSeries
from proofs import (
    Atom,
    DnfFormula,
    base_map,
    disjoint_expand,
    truth_table_sets,
)

T = Poly.variable()
ONE = Poly.constant(1)
ZERO = Poly()


def const(c):
    return Poly.constant(c)


def system(n, rows, nonneg=None, c=()):
    return ParametricConstraintSystem(
        tuple(rows), tuple(nonneg) if nonneg else (True,) * n, c
    )


def with_c(sys, c):
    """sys with the objective c."""
    return ParametricConstraintSystem(sys.rows, sys.nonneg, c)


def triangle():
    return system(2, [Row((ONE, ONE), LE, T)])


def seg():
    """0 <= x <= t, with no objective."""
    return system(1, [Row((ONE,), LE, T)])


def box_scan(sys, t):
    """Independent oracle: scan the propagated box, checking rows directly."""
    box = pilp.propagated_box(sys, t)
    if box is None:
        return []
    lo, hi = box
    rows = [
        (tuple(int(c(t)) for c in row.coeffs), row.sense, int(row.rhs(t)))
        for row in sys.rows
    ]
    out = []
    for point in product(*(range(l, h + 1) for l, h in zip(lo, hi))):
        ok = True
        for coeffs, sense, rhs in rows:
            val = sum(c * x for c, x in zip(coeffs, point))
            if val > rhs or (sense == EQ and val != rhs):
                ok = False
                break
        if ok:
            out.append(point)
    return out


def test_enumerate_triangle():
    assert len(enumerate_lattice(triangle(), 2)) == 6
    for t in range(0, 12):
        assert pilp.lattice_profile(triangle(), t, None) == (
            (t + 1) * (t + 2) // 2, ())


def test_enumerate_equality_pin():
    sys = system(1, [Row((ONE,), LE, T), Row((ONE,), EQ, T)])
    assert enumerate_lattice(sys, 5) == ((5,),)


def test_enumerate_unbounded_ray():
    sys = system(2, [Row((ONE, -ONE), EQ, ONE)])
    with pytest.raises(InputError, match=r"no finite bounds derivable for "
                                         r"coordinate\(s\) \[0, 1\]"):
        enumerate_lattice(sys, 3)


def test_enumerate_no_rows_unbounded():
    with pytest.raises(InputError, match=r"no finite bounds derivable for "
                                         r"coordinate\(s\) \[0\]"):
        enumerate_lattice(system(1, []), 1)


def test_enumerate_contradictory_is_empty():
    sys = system(1, [Row((ONE,), LE, const(2)), Row((-ONE,), LE, const(-5))])
    assert enumerate_lattice(sys, 1) == ()
    # all-zero coefficient contradiction
    sys2 = system(1, [Row((ZERO,), EQ, ONE), Row((ONE,), LE, T)])
    assert enumerate_lattice(sys2, 3) == ()


def test_enumerate_point_cap():
    with pytest.raises(ResourceLimitError):
        enumerate_lattice(triangle(), 50, point_cap=10)


def test_point_cap_counts_exact_work():
    # The work is search nodes plus each leaf run's work: 1 to count the
    # run, its length to list its points. The cap trips one below it.
    # a + 2c <= t skips b and d, and b + c + 2d == 2t, the only row on b
    # (searched last), collapses the last two levels: 274 points in 65
    # nodes and runs.
    plain = system(4, [
        Row((ONE, ZERO, const(2), ZERO), LE, T),
        Row((ZERO, ONE, ONE, const(2)), EQ, 2 * T),
    ])
    # README's exclusion example: the projection of sys1 does 11 (7 nodes
    # and 4 runs, its 11 keys uncharged), and sys2 lists its one run of 11.
    sys1, sys2 = example5()
    ex = ExclusionProblem(1, sys1, sys2)
    for run, work in [
        (lambda cap: pilp.lattice_profile(plain, 9, None, cap), 65),
        (lambda cap: pilp.exclusion_profile(ex, 10, 1, cap), 11),
    ]:
        run(work)
        with pytest.raises(ResourceLimitError):
            run(work - 1)
    # x < y < x creeps up 2 per sweep, and MAX_SWEEPS cuts the propagation
    # short with y - x <= -1 broken by the whole box: the search of the
    # empty region stops at the root, before z, its first level.
    creep = system(3, [
        Row((ZERO, ONE, ONE), LE, const(400)),
        Row((ZERO, -ONE, ONE), LE, -ONE),
        Row((ZERO, ONE, -ONE), LE, -ONE),
        Row((ONE, ZERO, ZERO), LE, ONE),
    ])
    assert pilp.propagated_box(creep, 0) == ([0, 199, 200], [1, 200, 201])
    assert enumerate_lattice(creep, 0, point_cap=1) == ()


def _outcome(propagate, rows, nonneg):
    try:
        return propagate(rows, nonneg)
    except InputError as exc:
        return str(exc)


@st.composite
def instantiated_rows(draw):
    """Constant rows as (coeffs, sense, rhs) ints, rows with no terms and
    equalities included, with a nonneg flag per variable."""
    n = draw(st.integers(1, 4))
    row = st.tuples(st.tuples(*[st.sampled_from((0, 1, -1, 2, -3, 5))] * n),
                    st.sampled_from((LE, EQ)), st.integers(-6, 12))
    return (draw(st.lists(row, max_size=4)),
            draw(st.tuples(*[st.booleans()] * n)))


@settings(max_examples=400, deadline=None)
@given(instantiated_rows())
def test_propagate_matches_the_reference(rows_nonneg):
    # The same box, the same None, or an InputError with the same text:
    # _propagate reads the halves _instantiate gives of the system the rows
    # make, the reference the rows themselves.
    rows, nonneg = rows_nonneg
    sys = system(len(nonneg), [Row(tuple(map(const, coeffs)), sense,
                                   const(rhs)) for coeffs, sense, rhs in rows],
                 nonneg)
    assert (_outcome(pilp._propagate, pilp._instantiate(sys, 0), nonneg)
            == _outcome(propagate_reference, rows, nonneg))

def test_enumeration_matches_box_scan_oracle():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 4)
        rows = []
        for i in range(n):  # box rows keep everything bounded
            coeffs = [ZERO] * n
            coeffs[i] = ONE
            rows.append(Row(tuple(coeffs), LE, const(rng.randint(0, 9))))
        for _ in range(rng.randint(0, 3)):
            coeffs = tuple(const(rng.randint(-3, 3)) for _ in range(n))
            sense = EQ if rng.random() < 0.3 else LE
            rhs = rng.choice([const(rng.randint(-5, 15)), T,
                              2 * T + const(rng.randint(-3, 3))])
            rows.append(Row(coeffs, sense, rhs))
        sys = system(n, rows)
        t = rng.randint(0, 6)
        got = enumerate_lattice(sys, t)
        want = box_scan(sys, t)
        assert list(got) == want
        assert len(set(got)) == len(got)


def test_lth_largest_objective_examples():
    tri = with_c(triangle(), (ONE, ONE))
    assert pilp.lattice_profile(tri, 9, 1) == (55, (9,))
    size, top = pilp.lattice_profile(tri, 2, 100)
    assert (size, top[:7]) == (6, (2, 2, 2, 1, 1, 0, BOTTOM))
    assert top[99] is BOTTOM
    assert pilp.lattice_profile(with_c(seg(), (const(2),)), 5, 2) \
        == (6, (10, 8))


def test_lth_largest_monotone_and_counts():
    tri = with_c(triangle(), (const(2), const(3)))
    t = 5
    size, values = pilp.lattice_profile(tri, t, 23)
    assert size == 21
    finite = [v for v in values if v is not BOTTOM]
    assert len(finite) == size
    for a, b in zip(values, values[1:]):
        assert b <= a


def test_lattice_profile_rejects_bad_rank():
    for l in (0, -2):
        with pytest.raises(InputError, match="l must be >= 1"):
            pilp.lattice_profile(with_c(triangle(), (ONE, ONE)), 3, l)
    with pytest.raises(InputError):
        with_c(triangle(), (ONE,))
    assert pilp.lattice_profile(triangle(), 3, None) == (10, ())


@pytest.mark.parametrize("build, message", [
    (lambda: Row((ONE,), "<", T), "sense must be '<=' or '=='"),
    (lambda: Row((1,), LE, T), "row entries must be Poly"),
    (lambda: Row((ONE,), LE, Poly([0, Fraction(1, 2)])),
     "row entries must be integer-valued polynomials"),
    (lambda: ParametricConstraintSystem((), ()), "need at least one variable"),
    (lambda: system(2, [Row((ONE,), LE, T)]),
     "row width must match variable count"),
    (lambda: with_c(triangle(), (ONE,)),
     "objective width must match variable count"),
    (lambda: with_c(seg(), (Poly([0, Fraction(1, 2)]),)),
     "objective entries must be integer-valued polynomials"),
    (lambda: with_c(seg(), (1,)),
     "objective entries must be integer-valued polynomials"),
    (lambda: ExclusionProblem(0, *example5()), "m must be >= 1"),
    (lambda: ExclusionProblem(1, seg(), seg()),
     "sys1 must have more variables than sys2"),
    (lambda: pilp.lattice_profile(triangle(), 3, 1),
     "ranking needs an objective"),
    (lambda: pilp.exclusion_profile(ExclusionProblem(1, triangle(), seg()),
                                    3, 1),
     "ranking needs an objective"),
    (lambda: pilp.lattice_profile(triangle(), Fraction(5, 2), None),
     "t must be an integer"),
], ids=["row-sense", "row-entry-type", "row-entry-value", "no-variables",
        "row-width", "objective-width", "objective-entry-value",
        "objective-entry-type", "exclusion-m", "exclusion-widths",
        "lattice-ranking-objective", "exclusion-ranking-objective",
        "fractional-t"])
def test_invalid_values_are_input_errors(build, message):
    with pytest.raises(InputError) as info:
        build()
    assert str(info.value) == message


def boxed_system(bounds, extra, lows=None):
    """x_i <= bounds[i] for every i, then the extra (coeffs, sense, rhs)
    rows with constant entries. Without lows every x_i is nonnegative;
    with them the variables are free and x_i >= lows[i]."""
    n = len(bounds)
    rows = []
    for i, b in enumerate(bounds):
        coeffs = [ZERO] * n
        coeffs[i] = ONE
        rows.append(Row(tuple(coeffs), LE, const(b)))
        if lows is not None:
            coeffs[i] = -ONE
            rows.append(Row(tuple(coeffs), LE, const(-lows[i])))
    for coeffs, sense, rhs in extra:
        rows.append(Row(tuple(const(c) for c in coeffs), sense, const(rhs)))
    return system(n, rows, None if lows is None else (False,) * n)


def extra_rows(n):
    return st.lists(st.tuples(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                              st.sampled_from([LE, LE, EQ]), st.integers(-4, 12)),
                    max_size=3)


def lower_bounds(n):
    return st.one_of(st.none(),
                     st.lists(st.integers(-3, 0), min_size=n, max_size=n))


@st.composite
def ranked_systems(draw):
    n = draw(st.integers(1, 3))
    bounds = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    c = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    sys = boxed_system(bounds, draw(extra_rows(n)), draw(lower_bounds(n)))
    c = tuple(map(const, c))
    return with_c(sys, c), c


def top_values(points, c, l):
    """The l largest values of c . x over points, padded with BOTTOM."""
    values = sorted((sum(ci * x for ci, x in zip(c, p)) for p in points),
                    reverse=True)[:l]
    return tuple(values) + (BOTTOM,) * (l - len(values))


@settings(max_examples=80, deadline=None)
@given(ranked_systems(), st.integers(1, 40))
def test_lattice_profile_matches_box_scan(sys_c, l):
    sys, c = sys_c
    t = 0  # every entry is constant
    points = box_scan(sys, t)
    size, top = pilp.lattice_profile(sys, t, l)
    assert size == len(points)
    assert top == top_values(points, [int(ci(t)) for ci in c], l)
    assert pilp.lattice_profile(sys, t, None) == (size, ())


@st.composite
def exclusion_problems(draw):
    n2 = draw(st.integers(1, 2))
    n1 = draw(st.integers(1, 2))
    bounds1 = draw(st.lists(st.integers(0, 5), min_size=n1 + n2, max_size=n1 + n2))
    bounds2 = draw(st.lists(st.integers(0, 5), min_size=n2, max_size=n2))
    # Negative lower bounds give free kept coordinates and fibers longer
    # than m.
    sys1 = boxed_system(bounds1, draw(extra_rows(n1 + n2)),
                        draw(lower_bounds(n1 + n2)))
    sys2 = boxed_system(bounds2, draw(extra_rows(n2)), draw(lower_bounds(n2)))
    c = tuple(const(draw(st.integers(-3, 3))) for _ in range(n2))
    return ExclusionProblem(draw(st.integers(1, 4)), sys1, with_c(sys2, c))


def brute_full(ex, t):
    """The keys with at least m sys1 points above them, from a box scan."""
    fibers = {}
    for p in box_scan(ex.sys1, t):
        fibers[p[:ex.sys2.n]] = fibers.get(p[:ex.sys2.n], 0) + 1
    return {key for key, count in fibers.items() if count >= ex.m}


def brute_feasible(ex, t):
    """The sys2 points with fewer than m sys1 points above them, from box
    scans."""
    full = brute_full(ex, t)
    return [p for p in box_scan(ex.sys2, t) if p not in full]


def full_keys(ex, t, project):
    """The keys that one sys1 pass finds full: the projection for project
    True, the fiber search for False."""
    full = set()
    box = pilp.propagated_box(ex.sys1, t)
    if box is not None:
        pilp._iter_points(pilp._instantiate(ex.sys1, t), *box, None,
                          10**6, (ex.sys2.n, ex.m, full), project)
    return full


@settings(max_examples=150, deadline=None)
@given(exclusion_problems(), st.integers(1, 30))
def test_exclusion_profile_matches_brute_fibers(ex, l):
    t = 0  # every entry is constant
    kept = brute_feasible(ex, t)
    got, top = pilp.exclusion_profile(ex, t, l)
    assert list(got) == kept
    assert top == top_values(kept, [int(ci(t)) for ci in ex.sys2.c], l)


@settings(max_examples=150, deadline=None)
@given(exclusion_problems())
def test_both_sys1_passes_match_brute_fibers(ex):
    # Small draws mostly take the projection by the rule; each pass is run
    # here on every draw.
    want = brute_full(ex, 0)
    assert full_keys(ex, 0, True) == want
    assert full_keys(ex, 0, False) == want


CAP_MESSAGE = (r"^search exceeded the point cap of -?\d+ "
               r"\(search nodes plus the work of each leaf run\)$")


def search_work(sys, t, visit, point_cap, fiber=None, project=None):
    """The work _iter_points reports for one search of sys at t; 0 where
    propagation proves the region empty."""
    box = pilp.propagated_box(sys, t)
    if box is None:
        return 0
    return pilp._iter_points(pilp._instantiate(sys, t), *box, visit,
                             point_cap, fiber, project)


def listing(first, step, length):
    """A consumer that lists each run: its work is the run's length."""
    return length


def consumers(c, l):
    """Fresh-consumer makers: one counts, one ranks the l largest values
    of c . x, one lists."""
    return (lambda: pilp._Ranking(c, 0, None, 10**6).offer,
            lambda: pilp._Ranking(c, 0, l, 10**6).offer,
            lambda: listing)


@settings(max_examples=80, deadline=None)
@given(ranked_systems(), st.integers(1, 40), exclusion_problems())
def test_the_work_meter_is_exact_in_every_mode(sys_c, l, ex):
    # Per mode, a fresh consumer per search: the work W it reports fits a
    # cap of W and trips W - 1 with the one message. W less the leaf runs'
    # work is the search nodes, the same whatever consumes the runs.
    sys, _ = sys_c

    def recorded(visit, charges):
        def record(*run):
            charges.append(visit(*run))
            return charges[-1]
        return record

    nodes = set()
    for make in consumers(sys.c, l):
        charges = []
        work = search_work(sys, 0, recorded(make(), charges), 10**6)
        assert all(charge >= 1 for charge in charges)
        nodes.add(work - sum(charges))
        assert search_work(sys, 0, make(), work) == work
        if work:
            with pytest.raises(ResourceLimitError, match=CAP_MESSAGE):
                search_work(sys, 0, make(), work - 1)
    assert len(nodes) == 1
    # The projection is sys1's count search, each run credited for 1, and
    # its K keys are not charged.
    fiber = (ex.sys2.n, ex.m, set())
    count = pilp._Ranking((), 0, None, 10**6).offer
    assert search_work(ex.sys1, 0, None, 10**6, fiber, True) == (
        search_work(ex.sys1, 0, count, 10**6))
    for project in (True, False):
        work = search_work(ex.sys1, 0, None, 10**6, fiber, project)
        assert search_work(ex.sys1, 0, None, work, fiber, project) == work
        if work:
            with pytest.raises(ResourceLimitError, match=CAP_MESSAGE):
                search_work(ex.sys1, 0, None, work - 1, fiber, project)


@st.composite
def systems_with_an_equality(draw):
    """A system drawn as ranked_systems draws one, with one more == row at
    a drawn place."""
    sys, _ = draw(ranked_systems())
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=sys.n, max_size=sys.n))
    row = Row(tuple(map(const, coeffs)), EQ, const(draw(st.integers(-4, 12))))
    at = draw(st.integers(0, len(sys.rows)))
    rows = sys.rows[:at] + (row,) + sys.rows[at:]
    return ParametricConstraintSystem(rows, sys.nonneg, sys.c)


def as_two_halves(sys):
    """sys with each == row written in its place as its two <= rows."""
    rows = []
    for row in sys.rows:
        rows.append(Row(row.coeffs, LE, row.rhs))
        if row.sense == EQ:
            rows.append(Row(tuple(-c for c in row.coeffs), LE, -row.rhs))
    return ParametricConstraintSystem(tuple(rows), sys.nonneg, sys.c)


@settings(max_examples=150, deadline=None)
@given(systems_with_an_equality(), st.integers(1, 40))
def test_an_equality_searches_as_its_two_halves(sys, l):
    # _instantiate gives an equality as the row and then its negation, the
    # twin's two <= rows, and the engine reads nothing else: the two are one
    # list of halves, searched in the same work whatever takes the runs.
    twin = as_two_halves(sys)
    assert pilp._instantiate(sys, 0) == pilp._instantiate(twin, 0)
    for make in consumers(sys.c, l):
        assert (search_work(sys, 0, make(), 10**6)
                == search_work(twin, 0, make(), 10**6))


def test_offer_reports_the_values_tried():
    # Counting a run is 1. Ranking tries values from the better end until
    # one cannot enter the heap, at most l of them.
    assert pilp._Ranking((), 0, None, 10).offer((0,), (1,), 9) == 1
    ranking = pilp._Ranking((ONE,), 0, 2, 10)
    assert ranking.offer((0,), (1,), 9) == 2  # 8 and 7 enter
    assert ranking.offer((0,), (1,), 1) == 1  # 0 does not
    assert ranking.offer((0,), (2,), 5) == 2  # 8 enters, 6 does not
    assert ranking.top() == (8, 8)


def test_exclusion_listing_charges_a_run_over_the_cap_unbuilt():
    # sys2's one run 0..10^12 is charged its length without its points
    # being built, so the cap stops the listing at once.
    ex = ExclusionProblem(1, boxed_system([0, 0], []), seg())
    with pytest.raises(ResourceLimitError, match=CAP_MESSAGE):
        pilp.exclusion_profile(ex, 10**12, None)


def test_exclusion_ranks_the_kept_stretches_of_a_run(monkeypatch):
    # k == 3y with y <= 3 fills the keys 0, 3, 6 and 9 of sys2's one leaf
    # run 0..20, which leaves the kept stretches 1..2, 4..5, 7..8 and
    # 10..20: four offers, each a run, whatever the slope of c along it.
    sys1 = boxed_system([20, 3], [((1, -3), EQ, 0)])
    sys2 = boxed_system([20], [])
    offers = []
    real = pilp._Ranking.offer

    def offer(self, first, step, length):
        offers.append((first, length))
        real(self, first, step, length)

    monkeypatch.setattr(pilp._Ranking, "offer", offer)
    for c in (1, -1, 2, -3):
        ex = ExclusionProblem(1, sys1, with_c(sys2, (const(c),)))
        kept = brute_feasible(ex, 0)
        assert kept == [(x,) for x in range(21) if x > 9 or x % 3]
        for l in (1, 2, 3, 5, 11, 12, 30):
            offers.clear()
            got, top = pilp.exclusion_profile(ex, 0, l)
            assert list(got) == kept
            assert top == top_values(kept, [c], l)
            assert offers == [((1,), 2), ((4,), 2), ((7,), 2), ((10,), 11)]


def test_projection_runs_with_and_without_a_kept_move():
    # k + 2x - y == 6 (k, x, y free): the leaf collapses onto x, and
    # along a run k moves by -2, so runs of different y overlap on the keys.
    moving = boxed_system([20, 5, 2], [((1, 2, -1), EQ, 6)], lows=[-6, 0, 0])
    # k + x <= 9 with k <= 2: k is searched above the leaf x, so a run
    # keeps its key and adds its whole length there.
    still = boxed_system([2, 9], [((1, 1), LE, 9)])
    sys2 = boxed_system([20], [], lows=[-6])
    for sys1, ms in ((moving, (1, 2, 3)), (still, (8, 9, 10, 11))):
        for m in ms:
            ex = ExclusionProblem(m, sys1, sys2)
            want = brute_full(ex, 0)
            assert full_keys(ex, 0, True) == full_keys(ex, 0, False) == want
    assert brute_full(ExclusionProblem(2, moving, sys2), 0) \
        == {(6,), (4,), (2,), (0,), (-2,)}
    assert brute_full(ExclusionProblem(9, still, sys2), 0) \
        == {(0,), (1,)}


def test_equality_pair_collapse_matches_box_scan():
    # When one equality is the only row on the last search coordinate, the
    # last two levels collapse: the points step through one residue class,
    # and each run of them is counted and ranked in one step. The
    # objectives have slopes of both signs and zero along the runs, and the
    # ranks are shorter and longer than the runs.
    objectives = ((1, 0), (0, 1), (2, -3), (-1, -1), (0, 0))
    for a, b, rhs in product(range(-4, 5), (2, 3, -4, 6), range(-7, 8)):
        for coeffs in ((a, b), (b, a)):
            sys = boxed_system([6, 9], [(coeffs, EQ, rhs)], lows=[-3, -2])
            want = box_scan(sys, 0)
            got = enumerate_lattice(sys, 0)
            assert list(got) == want
            for c, l in product(objectives, (1, 3, 12)):
                size, top = pilp.lattice_profile(
                    with_c(sys, tuple(map(const, c))), 0, l)
                assert (size, top) == (len(want), top_values(want, c, l))
    # The same with a kept coordinate k in front: k - a x - b y == rhs.
    for a, b, rhs, m in product((1, 2, 3), (2, 3, 5), (-2, 0, 1), (1, 2, 3)):
        sys1 = boxed_system([12, 5, 6], [((1, -a, -b), EQ, rhs)],
                            lows=[-3, 0, -2])
        sys2 = boxed_system([12], [], lows=[-3])
        ex = ExclusionProblem(m, sys1, sys2)
        feasible = pilp.exclusion_profile(ex, 0, None)[0]
        assert list(feasible) == brute_feasible(ex, 0)


def example5():
    sys1 = system(2, [
        Row((const(3), const(-5)), LE, ZERO),   # 3 x2 <= 5 x1
        Row((const(-5), const(8)), LE, ZERO),   # 8 x1 <= 5 x2
        Row((ONE, ZERO), LE, T),                # x2 <= t
    ])
    sys2 = system(1, [Row((ONE,), LE, T)], c=(ONE,))
    return sys1, sys2


def brute_example5_feasible(t, m):
    kept = []
    for x2 in range(t + 1):
        fiber = 0
        for x1 in range(t + 1):
            if 3 * x2 <= 5 * x1 and 8 * x1 <= 5 * x2:
                fiber += 1
        if fiber < m:
            kept.append((x2,))
    return kept


def feasible(ex, t):
    return pilp.exclusion_profile(ex, t, None)[0]


def ranked(ex, l, t):
    """(the l largest objective values over the feasible set, its size)."""
    feasible_set, top = pilp.exclusion_profile(ex, t, l)
    return top, len(feasible_set)


def test_exclusion_example5():
    sys1, sys2 = example5()
    ex = ExclusionProblem(1, sys1, sys2)
    got = feasible(ex, 10)
    assert (1,) in got
    assert list(got) == brute_example5_feasible(10, 1)
    for t in (3, 7, 12):
        got = feasible(ex, t)
        assert list(got) == brute_example5_feasible(t, 1)


def test_exclusion_large_m_keeps_everything():
    sys1, sys2 = example5()
    ex = ExclusionProblem(50, sys1, sys2)
    got = feasible(ex, 9)
    assert list(got) == [(x,) for x in range(10)]


def test_exclusion_values_shape():
    sys1, sys2 = example5()
    ex = ExclusionProblem(1, sys1, sys2)
    values, size = ranked(ex, 12, 10)
    assert size == len(feasible(ex, 10))
    finite = [v for v in values if v is not BOTTOM]
    assert len(finite) == min(size, 12)
    assert finite == sorted(finite, reverse=True)
    assert all(v is BOTTOM for v in values[size:])


def test_digit_decode_examples():
    assert proofs.digit_decode((1, 2), 3, 2) == (7,)
    assert proofs.digit_decode((0, 0, 0, 0), 9, 2) == (0, 0)
    t = 7
    assert proofs.digit_decode((t - 1,) * 3 * 2, t, 3) == (t**3 - 1, t**3 - 1)
    with pytest.raises(InputError, match=r"digits must lie in \[0, 2\]"):
        proofs.digit_decode((3, 0), 3, 2)


def test_digit_encode_examples():
    assert proofs.digit_encode((7,), 3, 2) == (1, 2)
    with pytest.raises(InputError, match=r"value 9 outside \[0, 3\^2\)"):
        proofs.digit_encode((9,), 3, 2)
    with pytest.raises(InputError):
        proofs.digit_encode((1,), 1, 2)


def test_digit_round_trips():
    rng = random.Random(17)
    for _ in range(300):
        t = rng.randint(2, 12)
        r = rng.randint(1, 4)
        n = rng.randint(1, 4)
        x = tuple(rng.randrange(t**r) for _ in range(n))
        assert proofs.digit_decode(proofs.digit_encode(x, t, r), t, r) == x


def test_digit_transform_bijection_on_lattice():
    # x + 2y <= t^2-ish region inside [0, t^2): transformed points decode
    # onto the original points one-to-one.
    sys = system(2, [
        Row((ONE, const(2)), LE, T * T - ONE),
        Row((ONE, ZERO), LE, T * T - ONE),
        Row((ZERO, ONE), LE, T * T - ONE),
    ])
    r = 2
    transformed = proofs.digit_transform(sys, r)
    for t in (2, 3, 5):
        original = set(enumerate_lattice(sys, t))
        image = [
            proofs.digit_decode(y, t, r)
            for y in enumerate_lattice(transformed, t)
        ]
        assert len(image) == len(set(image))
        assert set(image) == original


def frobenius_like_exclusion(m):
    # (k, b): k - 3b = 1, everything in [0, t^2)
    edge = T * T - ONE
    sys1 = system(2, [
        Row((ONE, const(-3)), EQ, ONE),
        Row((ONE, ZERO), LE, edge),
        Row((ZERO, ONE), LE, edge),
    ])
    sys2 = system(1, [Row((ONE,), LE, edge)], c=(ONE,))
    return ExclusionProblem(m, sys1, sys2)


def two_kept_exclusion():
    # kept (x, y), dropped z: x + y + z = t, z <= 2; all within [0, t^2)
    edge = T * T - ONE
    sys1 = system(3, [
        Row((ONE, ONE, ONE), EQ, T),
        Row((ZERO, ZERO, ONE), LE, const(2)),
        Row((ONE, ZERO, ZERO), LE, edge),
        Row((ZERO, ONE, ZERO), LE, edge),
        Row((ZERO, ZERO, ONE), LE, edge),
    ])
    sys2 = system(2, [
        Row((ONE, ZERO), LE, edge),
        Row((ZERO, ONE), LE, edge),
        Row((ONE, ONE), LE, T),
    ], c=(const(2), ONE))
    return ExclusionProblem(2, sys1, sys2)


def test_digit_transform_preserves_exclusion_answers():
    sys1, sys2 = example5()
    cases = [
        ExclusionProblem(1, sys1, sys2),
        frobenius_like_exclusion(1),
        frobenius_like_exclusion(2),
        two_kept_exclusion(),
    ]
    for ex in cases:
        transformed = proofs.digit_transform_exclusion(ex, 2)
        for t in (5, 7, 11):
            assert ranked(ex, 3, t) == ranked(transformed, 3, t)


def test_digit_transform_requires_nonneg():
    sys = system(1, [Row((ONE,), LE, T)], nonneg=[False])
    with pytest.raises(InputError):
        proofs.digit_transform(sys, 2)


# --- DNF expansion ---------------------------------------------------------


def atom(cx, cy, rhs):
    return Atom((const(cx), const(cy)), rhs if isinstance(rhs, Poly) else const(rhs))


def test_negation_is_an_involution_and_complement():
    rng = random.Random(23)
    for _ in range(200):
        a = atom(rng.randint(-3, 3), rng.randint(-3, 3),
                 rng.choice([const(rng.randint(-4, 4)), T, 2 * T - ONE]))
        assert a.negated().negated() == a
        for t in (0, 1, 5):
            for z in product(range(-3, 4), repeat=2):
                assert a.holds(z, t) != a.negated().holds(z, t)


def test_disjoint_expand_two_clause_case():
    A = atom(1, 0, 3)
    B = atom(0, 1, 2)
    C = atom(1, 1, T)
    D = atom(1, -1, 1)
    f = DnfFormula(("z1", "z2"), ((A, B), (C, D)))
    g = disjoint_expand(f)
    assert g.clauses == (
        (A, B),
        (A, B.negated(), C, D),
        (A.negated(), C, D),
    )


def test_disjoint_expand_single_clause_unchanged():
    A = atom(1, 0, 3)
    f = DnfFormula(("z1", "z2"), ((A,),))
    assert disjoint_expand(f).clauses == f.clauses


def test_disjoint_expand_clause_cap(monkeypatch):
    clauses = tuple(
        tuple(atom(i, j, j) for j in range(3)) for i in range(4)
    )
    f = DnfFormula(("z1", "z2"), clauses)
    monkeypatch.setattr(proofs, "CLAUSE_LIMIT", 5)
    with pytest.raises(ResourceLimitError):
        disjoint_expand(f)


def random_formula(rng):
    pool = []
    while len(pool) < 6:
        a = atom(rng.randint(-2, 2), rng.randint(-2, 2),
                 rng.choice([const(rng.randint(-3, 3)), T]))
        if a.coeffs != (ZERO, ZERO):  # skip degenerate constant atoms
            pool.append(a)
    literals = pool + [a.negated() for a in pool[:3]]
    clauses = []
    for _ in range(rng.randint(1, 4)):
        size = rng.randint(1, 3)
        clauses.append(tuple(rng.choice(literals) for _ in range(size)))
    return DnfFormula(("z1", "z2"), tuple(clauses))


def test_disjoint_expand_semantics_and_disjointness():
    rng = random.Random(29)
    for _ in range(150):
        f = random_formula(rng)
        g = disjoint_expand(f)
        bases = base_map([f, g])
        assert len(bases) <= 12
        sat_f, _ = truth_table_sets(f, bases)
        sat_g, counts_g = truth_table_sets(g, bases)
        assert sat_f == sat_g
        assert all(c <= 1 for c in counts_g)


def test_disjoint_expand_exhaustive_shapes():
    # Every clause-count/size shape up to 4 clauses x 3 atoms, with both
    # all-distinct atoms and heavily shared atoms.
    def distinct_atoms(n):
        return [atom(1, k, k) for k in range(n)]

    shapes = []
    for n_clauses in range(1, 5):
        for sizes in product((1, 2, 3), repeat=n_clauses):
            shapes.append(sizes)
    for sizes in shapes:
        total = sum(sizes)
        fresh = distinct_atoms(total)
        shared = distinct_atoms(3)
        idx = 0
        clauses_fresh = []
        clauses_shared = []
        for size in sizes:
            clauses_fresh.append(tuple(fresh[idx + i] for i in range(size)))
            clauses_shared.append(tuple(shared[(idx + i) % 3] for i in range(size)))
            idx += size
        for clauses in (clauses_fresh, clauses_shared):
            f = DnfFormula(("z1", "z2"), tuple(clauses))
            g = disjoint_expand(f)
            bases = base_map([f, g])
            sat_f, _ = truth_table_sets(f, bases)
            sat_g, counts = truth_table_sets(g, bases)
            assert sat_f == sat_g
            assert all(c <= 1 for c in counts)


def test_size_function_series_is_quasipolynomial():
    # Constant-matrix systems: sampled size fits an exact quasi-polynomial.
    from parafrob import eqpfit

    systems = [
        triangle(),
        system(1, [Row((const(2),), LE, T)]),
        system(2, [Row((ONE, const(3)), EQ, T)]),
    ]
    for sys in systems:
        series = eqpfit.SampleSeries(
            1, tuple(pilp.lattice_profile(sys, t, None)[0]
                     for t in range(1, 61))
        )
        res = eqpfit.fit_quasipolynomial(series, d_max=6, deg_max=3)
        assert isinstance(res, eqpfit.Fit)


# Rational polytopes P = {x >= 0 : a.x <= b for each row (a, b)}, with the
# least D for which D*P is integral and vol(P). The count of a.x <= b*t is
# P's Ehrhart quasi-polynomial in t (Ehrhart 1962; Beck & Robins,
# "Computing the Continuous Discretely", ch. 3-4).
EHRHART_POLYTOPES = [
    ([((1, 2), 1)], 120, {}, 2, Fraction(1, 4)),
    ([((2, 0), 1), ((0, 3), 1)], 150, {}, 6, Fraction(1, 6)),
    ([((2, 3, 5), 1)], 400, {"d_max": 30, "deg_max": 3}, 30,
     Fraction(1, 180)),
]


def ehrhart_count(rows, t, interior):
    """Points of a.x <= b*t, x >= 0 for the rows (a, b); with interior, of
    the tightened system a.x <= b*t - 1, x >= 1."""
    n = len(rows[0][0])
    tight = [Row(tuple(map(const, a)), LE, b * T - const(interior))
             for a, b in rows]
    if interior:
        tight += [Row(tuple(const(-(i == j)) for j in range(n)), LE,
                      const(-1)) for i in range(n)]
    return pilp.lattice_profile(system(n, tight), t, None)[0]


def assert_ehrhart_facts(rows, t_max, bounds, lcd, volume, reciprocity_t):
    # Theory fixes four facts of the fit, independently of the fitter: it
    # holds from t = 0 (threshold -1), its period divides D, its leading
    # coefficient is vol(P), and Ehrhart-Macdonald reciprocity L_P(-t) =
    # (-1)^dim L_int(P)(t), where the interior's points are those of the
    # tightened system a.x <= b*t - 1, x >= 1.
    from parafrob import eqpfit

    n = len(rows[0][0])
    series = SampleSeries(0, tuple(ehrhart_count(rows, t, 0)
                                   for t in range(t_max + 1)))
    res = eqpfit.fit_quasipolynomial(series, **bounds)
    assert isinstance(res, eqpfit.Fit)
    qp = res.qp
    assert qp.threshold == -1
    assert lcd % qp.period == 0
    assert all(c.degree == n and c.leading_coefficient == volume
               for c in qp.components)
    for t in range(1, reciprocity_t + 1):
        assert (qp.components[-t % qp.period](-t)
                == (-1) ** n * ehrhart_count(rows, t, 1)), t


@pytest.mark.parametrize("rows, t_max, bounds, lcd, volume",
                         EHRHART_POLYTOPES,
                         ids=["x+2y<=t", "2x<=t,3y<=t", "2x+3y+5z<=t"])
def test_count_series_obey_ehrhart_theory(rows, t_max, bounds, lcd, volume):
    assert_ehrhart_facts(rows, t_max, bounds, lcd, volume, 79)


@st.composite
def ehrhart_polytopes(draw):
    """(rows, D, vol(P)) for a simplex a.x <= b or a box a_i x_i <= b_i in
    dimension n <= 3, with a_i in 1..3 and b in 1..2. A vertex coordinate
    is some b/a_i, so D = lcm(a_i / gcd(a_i, b))."""
    n = draw(st.integers(1, 3))
    a = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    if draw(st.booleans()):
        b = [draw(st.integers(1, 2))] * n
        rows = [(tuple(a), b[0])]
        volume = Fraction(b[0] ** n, factorial(n) * prod(a))
    else:
        b = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
        rows = [(tuple(a_i * (i == j) for j in range(n)), b_i)
                for i, (a_i, b_i) in enumerate(zip(a, b))]
        volume = prod(Fraction(b_i, a_i) for a_i, b_i in zip(a, b))
    lcd = lcm(*(a_i // gcd(a_i, b_i) for a_i, b_i in zip(a, b)))
    return rows, lcd, volume


@settings(max_examples=60, deadline=None)
@given(ehrhart_polytopes())
def test_drawn_count_series_obey_ehrhart_theory(drawn):
    rows, lcd, volume = drawn
    n = len(rows[0][0])
    t_max = 4 * lcd + 2 * (n + 3) * lcd + 2
    assert_ehrhart_facts(rows, t_max, {"d_max": lcd, "deg_max": n}, lcd,
                         volume, 3 * lcd + 3)
