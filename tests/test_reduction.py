"""Family pipeline: positivity, gcd reduction, box exponent, crosscheck."""

from fractions import Fraction
from math import ceil, gcd

import oracles
import pytest
from hypothesis import example, given, settings, strategies as st

from parafrob import eqpfit, frobenius, pilp, reduction
from parafrob.errors import InputError, ResourceLimitError
from parafrob.frobenius import Coins
from parafrob.qpoly import BOTTOM, Poly, QuasiPolynomial
from parafrob.reduction import PolyFamily
from windows import qualifying_bound

U = Poly.variable()
ONE = Poly.constant(1)


def fam(polys, m=1, l=1):
    return PolyFamily(tuple(polys), m, l)


def eventual_order(p):
    """Sort key: the order of p(t) for large t, given a positive leading
    coefficient, as every family entry has."""
    return (p.degree, p.coeffs[::-1])


def test_family_validation():
    with pytest.raises(InputError):
        fam([U - Poly.constant(10)])  # n >= 2 required
    with pytest.raises(InputError):
        fam([U, -U])  # eventually negative
    with pytest.raises(InputError):
        fam([U, Poly([0, Fraction(1, 2)])])  # not integer-valued


def test_positivity_start_examples():
    assert reduction.positivity_start(fam([U, U - Poly.constant(2)])) == 3
    assert reduction.positivity_start(
        fam([U**2 + Poly.constant(1), U**2 + 2 * U - Poly.constant(1)])
    ) == 1
    # a deep root pushes the start out
    assert reduction.positivity_start(fam([U - Poly.constant(10), U])) == 11
    for t in range(11, 40):
        assert all(p(t) > 0 for p in (U - Poly.constant(10), U))
    # the scan starts below the root bound of the negative coefficients only
    assert reduction.positivity_start(fam([U, U - Poly.constant(10**6)])) == 10**6 + 1
    assert reduction.positivity_start(fam([U, U**2 + Poly.constant(10**5)])) == 1
    # The root bound is an exact ceiling, past the range of a float too.
    assert reduction.positivity_start(
        fam([U, U - Poly.constant(10**400)])) == 10**400 + 1
    # A deep root of a steep entry is found by bisection, not by a scan.
    assert reduction.positivity_start(
        fam([U, U**2 - Poly.constant(10**12)])) == 10**6 + 1


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.integers(-30, 30), min_size=0, max_size=3),
                min_size=2, max_size=3),
       st.lists(st.integers(1, 3), min_size=3, max_size=3))
@example([[-100_000, 0], [0]], [1, 1, 1])  # t^2 - 100000 and t
def test_positivity_start_matches_brute_scan(lowers, leads):
    polys = [Poly(tuple(lower) + (lead,)) for lower, lead in zip(lowers, leads)]
    # Past the Cauchy bound on all coefficients no entry has a root.
    ceiling = max(ceil(1 + max(map(abs, p.coeffs[:-1]), default=0)
                       / p.leading_coefficient) for p in polys)
    brute = 1 + max((t for t in range(1, ceiling + 1)
                     if any(p(t) <= 0 for p in polys)), default=0)
    assert reduction.positivity_start(fam(polys)) == brute


def test_gcd_series_examples():
    s = reduction.gcd_series(fam([U, U - Poly.constant(2)]), 3, 30)
    assert all(
        v == (2 if t % 2 == 0 else 1) for t, v in s.items()
    )
    s2 = reduction.gcd_series(fam([U, U + Poly.constant(1)]), 1, 20)
    assert set(s2.values) == {1}
    s3 = reduction.gcd_series(fam([2 * U, 4 * U]), 1, 20)
    assert all(v == 2 * t for t, v in s3.items())


def test_gcd_series_range_validation():
    with pytest.raises(InputError):
        reduction.gcd_series(fam([U, U - Poly.constant(2)]), 1, 10)


def fit_gcd(family, t_min=None, t_max=40, **kw):
    t_min = t_min if t_min is not None else reduction.positivity_start(family)
    series = reduction.gcd_series(family, t_min, t_max)
    res = eqpfit.fit_quasipolynomial(series, d_max=4, deg_max=2)
    assert isinstance(res, eqpfit.Fit)
    return res.qp


def test_reduce_by_gcd_even_odd():
    family = fam([U, U + Poly.constant(2)])
    qp = fit_gcd(family)
    assert qp.period == 2
    even = reduction.reduce_by_gcd(family, qp, 0)
    assert even.polys == (U, U + Poly.constant(1))
    odd = reduction.reduce_by_gcd(family, qp, 1)
    assert odd.polys == (2 * U + Poly.constant(1), 2 * U + Poly.constant(3))


def test_reduce_by_gcd_trivial_gcd_is_substitution():
    family = fam([U, U + Poly.constant(1)])
    qp = fit_gcd(family)
    assert qp.period == 1
    red = reduction.reduce_by_gcd(family, qp, 0)
    # t = 0 + 1*s: unchanged
    assert red.polys == family.polys


def test_reduce_by_gcd_polynomial_divisor():
    family = fam([2 * U, 4 * U])
    qp = fit_gcd(family)
    red = reduction.reduce_by_gcd(family, qp, 0)
    assert red.polys == (Poly.constant(1), Poly.constant(2))


def test_reduce_by_gcd_rejects_wrong_divisor():
    family = fam([U, U + Poly.constant(2)])
    wrong = QuasiPolynomial(1, (Poly.constant(2),), 0)
    with pytest.raises(InputError, match="quotient is not integer-valued; "
                                         "fitted gcd too small"):
        reduction.reduce_by_gcd(family, wrong, 0)
    with pytest.raises(InputError):
        reduction.reduce_by_gcd(family, QuasiPolynomial(1, (BOTTOM,), 0), 0)


def test_reduction_identity_numerically():
    # F_{m,l}(P(t)) = h(t) * F_{m,l}(P(t)/h(t)) along each residue class.
    family = fam([U, U + Poly.constant(2)], m=2, l=2)
    qp = fit_gcd(family)
    for residue in (0, 1):
        red = reduction.reduce_by_gcd(family, qp, residue)
        for s in range(3, 12):
            t = residue + qp.period * s
            h = gcd(*family.values(t))
            whole = frobenius.apery_table(Coins(family.values(t)), 2)
            part = frobenius.apery_table(Coins(red.values(s)), 2)
            assert whole.frobenius(2, 2) == h * part.frobenius(2, 2)
            assert whole.genus(2) == part.genus(2)


MIXED5 = (U, 2 * U**2 + ONE, 2 * U**2 + U, 2 * U**2 + 2 * U, 2 * U**2 + 3 * U)


def test_box_exponent_examples():
    sec3 = (U, U**2 + Poly.constant(1), U**2 + 2 * U - Poly.constant(1))
    assert reduction.box_exponent(PolyFamily(sec3, 1, 1)) == 4
    assert reduction.box_exponent(PolyFamily(sec3, 2, 1)) == 4
    assert reduction.box_exponent(fam([U, U + Poly.constant(1)])) == 2
    assert reduction.box_exponent(fam([U, U - ONE])) == 2
    assert reduction.box_exponent(fam([U, U - ONE], m=2)) == 3
    assert reduction.box_exponent(fam(MIXED5)) == 4
    # the benchmark's family shape at m = l = 2
    for b in range(1, 5):
        for c in range(-2, 7):
            shape = fam([U, U**2 + ONE, U**2 + b * U + Poly.constant(c)], 2, 2)
            assert reduction.box_exponent(shape) == 4
    # doubling m never decreases r
    for polys in ((U, U + Poly.constant(1)),
                  (U, U**2 + Poly.constant(1), U**2 + 2 * U - Poly.constant(1))):
        rs = [reduction.box_exponent(PolyFamily(polys, m, 1)) for m in (1, 2, 4)]
        assert rs == sorted(rs)


def assert_window_bound_holds(family, ts):
    """l + F_{m,l}(t) <= window_bound_poly(t) at each t of ts where the
    entries are positive with gcd 1 and the eventually largest entry is
    the largest: there the bound is proven."""
    bound = reduction.window_bound_poly(family)
    x_max = max(family.polys, key=eventual_order)
    for t in ts:
        values = family.values(t)
        if min(values) <= 0 or gcd(*values) != 1 or x_max(t) != max(values):
            continue
        answer = frobenius.apery_table(Coins(values), family.m).frobenius(
            family.m, family.l)
        assert family.l + answer <= bound(t), (family, t)


def test_window_bound_holds_numerically():
    for family in (
        fam([U, U - Poly.constant(1)], m=2, l=2),
        fam([U, U**2 + Poly.constant(1), U**2 + 2 * U - Poly.constant(1)], m=2, l=1),
        fam(MIXED5),  # F + 1 is 3168 at t = 12, above the old bound of 1544
    ):
        assert_window_bound_holds(
            family, range(reduction.positivity_start(family) + 1, 15))


def test_direct_series_matches_piecewise_formula():
    family = fam([U, U - Poly.constant(2)])
    f_series, g_series = reduction.direct_series(family, 4, 60)
    for t, v in f_series.items():
        if t % 2 == 1:
            assert v == t * (t - 2) - t - (t - 2)
        else:
            assert v == 2 * ((t // 2) * ((t - 2) // 2) - t // 2 - (t - 2) // 2)
    assert all(v >= 0 for _, v in g_series.items())


def test_direct_series_stays_inside_cubic_box():
    family = fam([U, U**2 + Poly.constant(1), U**2 + 2 * U - Poly.constant(1)])
    f_series, _ = reduction.direct_series(family, 3, 25)
    for t, v in f_series.items():
        assert 0 <= v < t**3


# Pair families with the period of their entry gcd.
PAIR_FAMILIES = [
    ((U, U + ONE), 1),
    ((U, U + 3 * ONE), 3),
    ((2 * U + ONE, 3 * U + 2 * ONE), 1),
    ((U, U**2 + ONE), 1),
    ((U + ONE, U**2 + U + ONE), 1),
]


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("polys, gcd_period", PAIR_FAMILIES,
                         ids=["t,t+1", "t,t+3", "2t+1,3t+2", "t,t^2+1",
                              "t+1,t^2+t+1"])
def test_fitted_pair_series_equal_the_closed_forms(polys, gcd_period, m):
    family = fam(polys, m)
    t0 = reduction.positivity_start(family)
    closed = oracles.pair_closed_forms(*polys, m, gcd_period, t0)
    for series, expected in zip(reduction.direct_series(family, t0, t0 + 300),
                                closed):
        res = eqpfit.fit_quasipolynomial(series, d_max=40)
        assert isinstance(res, eqpfit.Fit)
        assert oracles.eventually_equal(res.qp, expected)


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_fitted_arithmetic_series_equal_roberts(s):
    family = fam([U + k * ONE for k in range(s + 1)])
    f_series, _ = reduction.direct_series(family, 2, 200)
    res = eqpfit.fit_quasipolynomial(f_series)
    assert isinstance(res, eqpfit.Fit)
    assert oracles.eventually_equal(res.qp, oracles.roberts_closed_form(s))


@pytest.mark.parametrize("polys, m, t_max", [
    ((U, U + 3 * ONE), 1, 55),
    ((2 * U + ONE, 3 * U + 2 * ONE), 2, 53),
], ids=["t,t+3", "2t+1,3t+2"])
def test_exclusion_path_past_the_fitted_window(polys, m, t_max):
    # Fits from t = 2..50 only; past that window the exclusion path, which
    # shares no code with the fitter, lands on their values.
    family = fam(polys, m)
    fits = [eqpfit.fit_quasipolynomial(series, deg_max=2)
            for series in reduction.direct_series(family, 2, 50)]
    assert all(isinstance(res, eqpfit.Fit) for res in fits)
    f_fit, g_fit = (res.qp for res in fits)
    report = reduction.crosscheck(family, 51, t_max)
    checked = [row for row in report.rows if row.status != reduction.SKIPPED]
    assert len(checked) == 3
    for row in checked:
        assert row.f_exclusion == f_fit.eval(row.t)
        assert row.g_exclusion - g_fit.eval(row.t) == family.l + (m >= 2)


def test_one_table_per_t(monkeypatch):
    built = []
    real = frobenius.apery_table

    def counting(coins, m):
        built.append(coins.a)
        return real(coins, m)

    monkeypatch.setattr(frobenius, "apery_table", counting)
    family = fam([U, U - Poly.constant(1)], m=2, l=2)
    reduction.direct_series(family, 2, 10)
    assert built == [(t, t - 1) for t in range(2, 11)]
    # One table per row with positive entries of gcd 1: the row reads its
    # box from the table; rows skipped for positivity or gcd build none.
    notes = set()
    for case, point_cap in ((family, 150),
                            (fam([U, U + Poly.constant(2)]), 10**6),
                            (fam([2 * U + ONE, 3 * U + Poly.constant(2),
                                  5 * U + ONE], m=2, l=2), 10**6)):
        built.clear()
        report = reduction.crosscheck(case, 1, 10, point_cap)
        notes |= {row.note.split(",")[0] for row in report.rows}
        gated = [row for row in report.rows if not row.note.startswith(
            ("entry not positive", "entry gcd"))]
        assert built == [case.values(row.t) for row in gated]
    assert notes == {"", "entry not positive", "entry gcd is not 1",
                     "box size t^3 exceeds the point cap",
                     "no box t^r holds the largest answer plus l",
                     "enumeration exceeded the point cap"}


def test_crosscheck_below_t_two_terminates():
    # No power of t grows at t <= 1, so there only the box t^1 is tried.
    family = fam([2 * U + ONE, 3 * U + Poly.constant(2), 5 * U + ONE], m=2, l=2)
    report = reduction.crosscheck(family, 0, 4)
    assert [(row.t, row.r) for row in report.rows] == [
        (0, None), (1, None), (2, 5), (3, 4), (4, 4)]
    assert [row.note for row in report.rows[:2]] == [
        "no box t^r holds the largest answer plus l, 2, at t < 2",
        "no box t^r holds the largest answer plus l, 15, at t < 2"]
    assert report.checked == 3 and report.ok
    # Schur's bound gives r = 3, yet it lies above t^3 at t = 2, 3 and 4,
    # where the entries are already in their eventual order.
    assert reduction.box_exponent(family) == 3
    bound = reduction.window_bound_poly(family)
    assert all(bound(t) >= t**3 for t in (2, 3, 4))
    # At t = 1 the box t^1 = [0, 1) holds l + F_{1,1}(1, 3) = 0.
    (row,) = reduction.crosscheck(fam([U, U + Poly.constant(2)]), 1, 1).rows
    assert (row.status, row.r) == (reduction.EQUAL, 1)
    # Negative t with positive entries: skipped, never a search.
    report = reduction.crosscheck(
        fam([U + Poly.constant(5), U + Poly.constant(6)]), -4, 1)
    assert report.checked == 0
    assert all(row.note.startswith("no box t^r") for row in report.rows)


def test_crosscheck_checks_the_readme_family_at_every_t():
    family = fam([U, U**2 + ONE, U**2 + 2 * U - ONE])
    report = reduction.crosscheck(family, 2, 30)
    assert report.checked == 29 and report.ok
    assert report.g_offsets == (0,)


def test_frobenius_to_exclusion_matches_direct():
    family = fam([U, U - Poly.constant(1)])
    report = reduction.crosscheck(family, 2, 12)
    assert report.checked >= 8
    assert report.f_all_equal
    assert report.g_offsets == (0,)
    assert report.ok
    statuses = [row.status for row in report.rows]
    assert statuses.count(reduction.EQUAL) == report.checked


def test_crosscheck_report_totals_come_from_rows():
    row = reduction.CrosscheckRow
    skipped = row(2, reduction.SKIPPED, None, None, None, None, "entry gcd")
    equal = row(3, reduction.EQUAL, 5, 5, 8, 8)
    offset = row(4, reduction.G_OFFSET, 9, 9, 13, 12)
    diff = row(5, reduction.DIFF, 11, 12, 15, 15)

    report = reduction.CrosscheckReport((skipped, equal, offset))
    assert report.checked == 2
    assert report.f_all_equal
    assert report.g_offsets == (0, 1)
    assert not report.g_offset_constant and not report.ok

    report = reduction.CrosscheckReport((equal, skipped, diff))
    assert report.checked == 2
    assert not report.f_all_equal
    assert report.g_offsets == (0,)
    assert report.g_offset_constant and not report.ok

    report = reduction.CrosscheckReport((offset, skipped, offset))
    assert report.checked == 2
    assert report.f_all_equal
    assert report.g_offsets == (1,)
    assert report.g_offset_constant and report.ok

    report = reduction.CrosscheckReport((skipped, skipped))
    assert report.checked == 0
    assert report.f_all_equal
    assert report.g_offsets == ()
    assert report.g_offset_constant and not report.ok


def test_crosscheck_reports_constant_g_offset_for_higher_m():
    family = fam([U, U - Poly.constant(1)], m=2, l=1)
    report = reduction.crosscheck(family, 2, 10)
    assert report.f_all_equal
    assert report.g_offsets == (1,)
    assert report.ok
    assert all(row.status == reduction.G_OFFSET for row in report.rows
               if row.status != reduction.SKIPPED)


def test_crosscheck_skips_below_validity():
    family = fam([U, U + Poly.constant(2)])  # gcd 2 on even t: skipped rows
    report = reduction.crosscheck(family, 3, 12)
    skipped = [row for row in report.rows if row.status == reduction.SKIPPED]
    assert any("gcd" in row.note for row in skipped)
    assert report.checked == len([t for t in range(3, 13) if t % 2 == 1])


def test_crosscheck_skips_when_box_over_cap():
    family = fam([U, U - Poly.constant(1)])
    report = reduction.crosscheck(family, 2, 12, point_cap=100)
    assert report.checked < 11
    assert any("cap" in row.note for row in report.rows
               if row.status == reduction.SKIPPED)
    # A residue table over its limit skips the row too, naming the limit.
    family = fam([U + Poly.constant(10**7), U + Poly.constant(10**7 + 1)])
    (row,) = reduction.crosscheck(family, 2, 2).rows
    assert row.note == "residue table a*m*n = 20000004 exceeds 10000000"


def test_crosscheck_fibers_stop_at_m():
    # In the t^4 box at t = 7 the exclusion system sys1 of this family has
    # 114030 points, far above the cap, but its search never takes them one
    # by one: the projection does 2399 keys + 1011 nodes + 972 runs = 4382
    # work, and the fiber search stops each fiber at m points. (crosscheck
    # runs this row in its own box, t^3, where sys1 has 487 points.)
    family = fam([U, U**2 + ONE, U**2 + 2 * U - ONE], m=2, l=2)
    r = reduction.box_exponent(family)
    ex = reduction.frobenius_to_exclusion(family, r)
    cap = 20_000
    assert 7**r <= cap < pilp.lattice_profile(ex.sys1, 7, None, None)[0]
    _, top = pilp.exclusion_profile(ex, 7, family.l, cap)
    table = frobenius.apery_table(Coins(family.values(7)), family.m)
    assert top[family.l - 1] - family.l == table.frobenius(family.m, family.l)
    report = reduction.crosscheck(family, 7, 7, point_cap=cap)
    assert report.checked == 1 and report.ok


def test_crosscheck_sys1_takes_the_projection(monkeypatch):
    # The crosscheck benchmark's seed-1 family. Each row's search above the
    # leaf is smaller than its kept box, so sys1 takes the projection: 1595
    # work over t = 3..8, where the fiber search takes 5728. Each row's work
    # is exact: the cap trips one below it, on the projection's quantities.
    works = []
    real = pilp._iter_points

    def recording(rows, lo, hi, visit, point_cap, fiber=None):
        work = real(rows, lo, hi, visit, point_cap, fiber)
        if fiber:
            with pytest.raises(ResourceLimitError, match="kept keys plus"):
                real(rows, lo, hi, set().add, work - 1, fiber)
            fibers = real(rows, lo, hi, set().add, point_cap, fiber, False)
            works.append((work, fibers))
        return work

    monkeypatch.setattr(pilp, "_iter_points", recording)
    family = fam([U, U**2 + ONE, U**2 + 2 * U + Poly.constant(3)], m=2, l=2)
    report = reduction.crosscheck(family, 3, 8)
    assert report.checked == 6 and report.ok
    assert len(works) == 6
    assert [sum(column) for column in zip(*works)] == [1595, 5728]


def test_crosscheck_mixed_degree_family_reports_no_diff():
    # deg x_min < deg x_{n-1}, and F + 1 is 200, 896 and 3168 at t = 5, 8
    # and 12: Schur's bound puts every answer in a t^4 box, and each row
    # is checked in its own box, no larger, with no DIFF.
    family = fam(MIXED5)
    assert reduction.box_exponent(family) == 4
    report = reduction.crosscheck(family, 2, 12)
    assert report.checked > 0
    assert all(row.status != reduction.DIFF for row in report.rows)
    assert report.f_all_equal
    for row in report.rows:
        if row.status == reduction.SKIPPED:
            continue
        assert row.f_exclusion == row.f_direct
        assert row.f_direct + family.l < row.t**row.r
        assert row.r <= 4


@st.composite
def mixed_families(draw):
    """A linear entry and up to five entries of degree 1 or 2, which is
    where the eventual order of the entries and their degrees can part."""
    polys = [Poly((draw(st.integers(0, 3)), draw(st.integers(1, 2))))]
    for _ in range(draw(st.integers(1, 5))):
        lower = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=2))
        polys.append(Poly(tuple(lower) + (draw(st.integers(1, 2)),)))
    return PolyFamily(tuple(polys), draw(st.integers(1, 2)), draw(st.integers(1, 2)))


@settings(max_examples=150, deadline=None)
@given(mixed_families())
def test_window_bound_holds_on_mixed_families(family):
    t0 = reduction.positivity_start(family)
    assert_window_bound_holds(family, range(t0, t0 + 4))


@settings(max_examples=150, deadline=None)
@given(mixed_families())
def test_window_bound_poly_is_qualifying_bound_plus_l(family):
    # Both come from frobenius.window_end; they agree wherever the entries
    # have gcd 1 and their concrete order is the eventual one.
    bound = reduction.window_bound_poly(family)
    ordered = sorted(family.polys, key=eventual_order)
    t0 = reduction.positivity_start(family)
    for t in range(t0, t0 + 6):
        values = family.values(t)
        if gcd(*values) != 1 or [p(t) for p in ordered] != sorted(values):
            continue
        assert bound(t) == family.l + qualifying_bound(
            Coins(values), family.m)


@settings(max_examples=150, deadline=None)
@given(mixed_families(), st.integers(1, 4))
def test_crosscheck_never_reports_diff(family, t_min):
    # Small t is where a bound that holds only eventually fails first.
    report = reduction.crosscheck(family, t_min, t_min + 3, point_cap=3000)
    r = reduction.box_exponent(family)
    bound = reduction.window_bound_poly(family)
    ordered = sorted(family.polys, key=eventual_order)
    for row in report.rows:
        assert row.status != reduction.DIFF, report
        t, values = row.t, family.values(row.t)
        if min(values) <= 0 or gcd(*values) != 1:
            continue
        largest = family.l + frobenius.apery_table(
            Coins(values), family.m).frobenius(family.m, 1)
        if row.r is None:
            assert t < 2 and largest >= t, row
            continue
        # The row's box is the smallest t^r_t above l + F_{m,1}(t) ...
        assert largest < t**row.r, row
        assert row.r == 1 or t**(row.r - 1) <= largest, row
        # ... and Schur's bound holds it wherever the bound lies below t^r
        # and the entries are in their eventual order.
        if bound(t) < t**r and [p(t) for p in ordered] == sorted(values):
            assert row.r <= r, row
