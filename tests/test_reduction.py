"""Family pipeline: positivity, gcd reduction, box exponent, crosscheck."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from parafrob import eqpfit, frobenius, pilp, reduction
from parafrob.errors import InputError, NonIntegerQuotientError
from parafrob.frobenius import Coins, FrobeniusInstance
from parafrob.qpoly import BOTTOM, Poly, QuasiPolynomial
from parafrob.reduction import PolyFamily

U = Poly.variable()
ONE = Poly.constant(1)


def fam(polys, m=1, l=1):
    return PolyFamily(tuple(polys), m, l)


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
    cfg = eqpfit.FitConfig(d_max=4, deg_max=2, holdout=8, min_support=4)
    res = eqpfit.fit_quasipolynomial(series, cfg)
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
    with pytest.raises(NonIntegerQuotientError):
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
            whole = frobenius.generalized_frobenius(
                FrobeniusInstance(Coins(family.values(t)), 2, 2)
            )
            part = frobenius.generalized_frobenius(
                FrobeniusInstance(Coins(red.values(s)), 2, 2)
            )
            assert whole == h * part
            assert frobenius.generalized_genus(
                Coins(family.values(t)), 2
            ) == frobenius.generalized_genus(Coins(red.values(s)), 2)


def test_box_exponent_examples():
    sec3 = fam([U, U**2 + Poly.constant(1), U**2 + 2 * U - Poly.constant(1)])
    assert reduction.box_exponent(sec3) == 3
    assert reduction.box_exponent(fam([U, U + Poly.constant(1)])) == 3
    # doubling m never decreases r
    for polys in ((U, U + Poly.constant(1)),
                  (U, U**2 + Poly.constant(1), U**2 + 2 * U - Poly.constant(1))):
        rs = [reduction.box_exponent(PolyFamily(polys, m, 1)) for m in (1, 2, 4)]
        assert rs == sorted(rs)


def test_window_bound_holds_numerically():
    for family in (
        fam([U, U - Poly.constant(1)], m=2, l=2),
        fam([U, U**2 + Poly.constant(1), U**2 + 2 * U - Poly.constant(1)], m=2, l=1),
    ):
        bound = reduction.window_bound_poly(family)
        for t in range(reduction.positivity_start(family) + 1, 15):
            values = family.values(t)
            if gcd(*values) != 1:
                continue
            answer = frobenius.generalized_frobenius(
                FrobeniusInstance(Coins(values), family.m, family.l)
            )
            assert family.l + answer <= bound(t)


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


def test_one_table_per_t(monkeypatch):
    built = []
    real = frobenius.apery_table

    def counting(coins, m):
        built.append(max(coins.a))
        return real(coins, m)

    monkeypatch.setattr(frobenius, "apery_table", counting)
    family = fam([U, U - Poly.constant(1)], m=2, l=2)
    reduction.direct_series(family, 2, 10)
    assert built == list(range(2, 11))
    built.clear()
    report = reduction.crosscheck(family, 2, 10)
    checked = [row.t for row in report.rows if row.status != reduction.SKIPPED]
    assert report.checked == len(checked) > 0
    assert built == checked


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


def test_crosscheck_fibers_stop_at_m():
    # At t = 7 the exclusion system sys1 of this family has 114030 points,
    # far above the cap, but the search stops each fiber at m points, so
    # the row is checked all the same.
    family = fam([U, U**2 + ONE, U**2 + 2 * U - ONE], m=2, l=2)
    r = reduction.box_exponent(family)
    ex = reduction.frobenius_to_exclusion(family, r)
    cap = 20_000
    assert 7**r <= cap < pilp.size_function(ex.sys1, 7)
    report = reduction.crosscheck(family, 7, 7, point_cap=cap)
    assert report.checked == 1 and report.ok


def test_crosscheck_mixed_degree_family_reports_no_diff():
    # deg x_min < deg x_{n-1}: the box exponent comes out as 3, yet F + 1 is
    # 200, 896 and 3168 at t = 5, 8 and 12. Rows whose proven bound is not
    # below t^3 are skipped, never reported as DIFF.
    family = fam([U, 2 * U**2 + ONE, 2 * U**2 + U, 2 * U**2 + 2 * U,
                  2 * U**2 + 3 * U])
    assert reduction.box_exponent(family) == 3
    report = reduction.crosscheck(family, 2, 12)
    assert all(row.status != reduction.DIFF for row in report.rows)
    assert report.f_all_equal
    for row in report.rows:
        if row.status == reduction.SKIPPED:
            continue
        assert row.f_exclusion == row.f_direct < row.t**3


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
@given(mixed_families(), st.integers(1, 4))
def test_crosscheck_never_reports_diff(family, t_min):
    # Small t is where a bound that holds only eventually fails first.
    report = reduction.crosscheck(family, t_min, t_min + 3, point_cap=3000)
    r = reduction.box_exponent(family)
    for row in report.rows:
        assert row.status != reduction.DIFF, report
        if row.status != reduction.SKIPPED:
            assert row.f_direct + family.l < row.t**r
