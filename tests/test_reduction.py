"""Family pipeline: positivity, gcd scaling, box exponent, crosscheck."""

from fractions import Fraction
from math import gcd

import oracles
import pytest
from clirun import run_cli
from hypothesis import assume, given, settings, strategies as st

from parafrob import eqpfit, frobenius, pilp, reduction
from parafrob.errors import InputError, ResourceLimitError
from parafrob.frobenius import Coins
from parafrob.qpoly import BOTTOM, Poly
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


@pytest.mark.parametrize("polys, m, l, message", [
    ((U,), 1, 1, "a family needs at least two polynomials"),
    ((U, U), 0, 1, "m and l must be >= 1"),
    ((U, U), 1, 0, "m and l must be >= 1"),
    ((U, Poly()), 1, 1, "family entries must be nonzero polynomials"),
    ((U, 3), 1, 1, "family entries must be nonzero polynomials"),
    ((U, Poly([0, Fraction(1, 2)])), 1, 1,
     "family entries must be integer-valued"),
    ((U, -U), 1, 1, "family entries must be eventually positive"),
], ids=["one-entry", "m", "l", "zero-entry", "entry-type", "entry-value",
        "entry-sign"])
def test_invalid_family_is_an_input_error(polys, m, l, message):
    with pytest.raises(InputError) as info:
        PolyFamily(polys, m, l)
    assert str(info.value) == message


def test_reduction_identity_numerically():
    # F_{m,l}(a) = g * F_{m,l}(a / g) and G_m(a) = G_m(a / g) at each t,
    # g the entries' gcd: the crosscheck's scaling rests on this.
    for family in (fam([U, U + Poly.constant(2)], m=2, l=2),
                   fam([2 * U, 2 * U + 2 * ONE, 3 * U + ONE], m=2, l=3),
                   fam([6 * U + 3 * ONE, 4 * U**2 + 2 * ONE], m=3, l=2)):
        gcds = set()
        for t in range(1, 16):
            coins = family.coins(t)
            g = coins.g
            gcds.add(g)
            whole = frobenius.apery_table(coins, family.m)
            part = frobenius.apery_table(
                Coins(tuple(a // g for a in coins.a)), family.m)
            assert (whole.frobenius(family.m, family.l)
                    == g * part.frobenius(family.m, family.l)), (family, t)
            assert whole.genus(family.m) == part.genus(family.m), (family, t)
        assert max(gcds) > 1, family


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
            family, range(oracles.positivity_start(family) + 1, 15))


def test_direct_series_matches_piecewise_formula():
    family = fam([U, U - Poly.constant(2)])
    f_series, g_series = oracles.direct_series(family, 4, 60)
    for t, v in f_series.items():
        if t % 2 == 1:
            assert v == t * (t - 2) - t - (t - 2)
        else:
            assert v == 2 * ((t // 2) * ((t - 2) // 2) - t // 2 - (t - 2) // 2)
    assert all(v >= 0 for _, v in g_series.items())


def test_answers_exist_wherever_the_entries_are_positive(monkeypatch):
    # t^2 - 10t + 24 = (t - 4)(t - 6): positive at t = 1..3 and from t = 7.
    family = fam([U, U**2 - 10 * U + 24 * ONE])
    assert [family.answers(t) for t in (1, 2, 3)] == [(-1, 0), (-2, 0),
                                                      (-3, 0)]
    # An entry not positive fails before any table is built.
    monkeypatch.setattr(frobenius, "apery_table", None)
    for t in (4, 5, 6):
        with pytest.raises(InputError, match="^family entry 2 is not "
                                             f"positive at t = {t}$"):
            family.answers(t)
    with pytest.raises(InputError, match="^empty t range$"):
        reduction.crosscheck(family, 3, 1)


@st.composite
def dipping_families(draw):
    """(t + k, t^2 - b*t + c), sometimes with 2t + j, and m, l <= 2: the
    entries of many draws are not positive somewhere in t = 0..9."""
    polys = [U + draw(st.integers(0, 3)) * ONE,
             U**2 - draw(st.integers(0, 9)) * U
             + draw(st.integers(-2, 20)) * ONE]
    if draw(st.booleans()):
        polys.append(2 * U + draw(st.integers(-1, 3)) * ONE)
    return fam(polys, draw(st.integers(1, 2)), draw(st.integers(1, 2)))


@settings(max_examples=40, deadline=None)
@given(dipping_families())
def test_series_and_crosscheck_share_one_positivity_rule(family):
    for row in reduction.crosscheck(family, 0, 9).rows:
        if row.note == "entry not positive":
            with pytest.raises(InputError, match="is not positive"):
                family.answers(row.t)
            continue
        answers = family.answers(row.t)
        if row.status != reduction.SKIPPED:
            assert (row.f_direct, row.g_direct - family.l) == answers


@st.composite
def common_factor_families(draw):
    """k * (P_1, ..., P_n) with k in 2..4 and P_i of degree 1 or 2, all
    positive from t = 1 on, and half the time one more entry Q = c + d*t,
    not scaled, so that the gcd varies with t as it does for (2t, 2t + 2,
    3t + 1); m, l <= 2."""
    def entry():
        coeffs = [draw(st.integers(0, 3))]
        if draw(st.booleans()):
            coeffs.append(draw(st.integers(0, 2)))
        return Poly(coeffs + [draw(st.integers(1, 2))])

    k = draw(st.integers(2, 4))
    polys = [k * entry() for _ in range(draw(st.integers(2, 3)))]
    if draw(st.booleans()):
        polys.append(Poly((draw(st.integers(0, 3)), draw(st.integers(1, 3)))))
    return fam(polys, draw(st.integers(1, 2)), draw(st.integers(1, 2)))


@settings(max_examples=60, deadline=None)
@given(common_factor_families(), st.integers(1, 4))
def test_crosscheck_checks_rows_whatever_their_gcd(family, t_min):
    # No row is skipped for its gcd: every row is checked, save where a cap
    # or t < 2 stops it, and its F is g times that of the entries over g.
    report = reduction.crosscheck(family, t_min, t_min + 4, point_cap=20_000)
    assert report.ok, report
    for row in report.rows:
        if row.status == reduction.SKIPPED:
            assert row.note.startswith((
                "enumeration exceeded the point cap", "no box t^r holds")), row
            continue
        coins = family.coins(row.t)
        reduced = frobenius.apery_table(
            Coins(tuple(a // coins.g for a in coins.a)), family.m)
        assert row.f_exclusion == row.f_direct == coins.g * reduced.frobenius(
            family.m, family.l), row


def test_direct_series_stays_inside_cubic_box():
    family = fam([U, U**2 + Poly.constant(1), U**2 + 2 * U - Poly.constant(1)])
    f_series, _ = oracles.direct_series(family, 3, 25)
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
    t0 = oracles.positivity_start(family)
    closed = oracles.pair_closed_forms(*polys, m, gcd_period, t0)
    for series, expected in zip(oracles.direct_series(family, t0, t0 + 300),
                                closed):
        res = eqpfit.fit_quasipolynomial(series, d_max=40)
        assert isinstance(res, eqpfit.Fit)
        assert oracles.eventually_equal(res.qp, expected)


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_fitted_arithmetic_series_equal_roberts(s):
    family = fam([U + k * ONE for k in range(s + 1)])
    f_series, _ = oracles.direct_series(family, 2, 200)
    res = eqpfit.fit_quasipolynomial(f_series)
    assert isinstance(res, eqpfit.Fit)
    assert oracles.eventually_equal(res.qp, oracles.roberts_closed_form(s))



def resultant_period(p1, p2):
    """A period of gcd(p1(t), p2(t)) for integer p1 of degree <= 1 and p2:
    the gcd divides R = Res(p1, p2) = lead(p1)^deg(p2) * p2(root of p1),
    or p1^deg(p2) for a constant p1, and so is periodic mod |R|. None when
    R = 0, a common factor over Q."""
    if p1.degree == 0:
        return abs(p1.coeffs[0] ** p2.degree)
    b, a = p1.coeffs
    return abs(int(a**p2.degree * p2(Fraction(-b, a)))) or None


@st.composite
def pair_families(draw):
    """(p1, p2, m, R): p1 of degree 0 or 1 and p2 of degree 1 or 2, with
    small integer coefficients and positive leads, coprime over Q, m <= 3,
    and R a period of their gcd. A linear or constant p1 keeps each t's
    table small."""
    small = st.integers(-3, 3)
    p1 = Poly((draw(small), draw(st.integers(1, 2))) if draw(st.booleans())
              else (draw(st.integers(1, 6)),))
    p2 = Poly([draw(small) for _ in range(draw(st.integers(1, 2)))]
              + [draw(st.integers(1, 3))])
    period = resultant_period(p1, p2)
    assume(period is not None and period <= 12)
    return p1, p2, draw(st.integers(1, 3)), period


@settings(max_examples=150, deadline=None)
@given(pair_families())
def test_fitted_drawn_pair_series_equal_the_closed_forms(drawn):
    p1, p2, m, period = drawn
    family = fam((p1, p2), m)
    t0 = oracles.positivity_start(family)
    closed = oracles.pair_closed_forms(p1, p2, m, period, t0)
    for series, expected in zip(oracles.direct_series(family, t0, t0 + 150),
                                closed):
        res = eqpfit.fit_quasipolynomial(series, d_max=12, deg_max=3)
        assert isinstance(res, eqpfit.Fit)
        assert oracles.eventually_equal(res.qp, expected)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(2, 30), st.data())
def test_fitted_drawn_arithmetic_series_equal_roberts(s, t_min, data):
    # Any window from t = 2 on and any bounds that admit period s and
    # degree 2 recover Roberts' closed form.
    d_max = data.draw(st.integers(s, 8))
    deg_max = data.draw(st.integers(2, 6))
    t_max = t_min + 2 * d_max + 3 * (deg_max + 3) * s
    family = fam([U + k * ONE for k in range(s + 1)])
    f_series, _ = oracles.direct_series(family, t_min, t_max)
    res = eqpfit.fit_quasipolynomial(f_series, d_max, deg_max)
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
            for series in oracles.direct_series(family, 2, 50)]
    assert all(isinstance(res, eqpfit.Fit) for res in fits)
    f_fit, g_fit = (res.qp for res in fits)
    report = reduction.crosscheck(family, 51, t_max)
    assert report.checked == t_max - 50  # every row, its gcd whatever it is
    for row in report.rows:
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
    oracles.direct_series(family, 2, 10)
    assert built == [(t, t - 1) for t in range(2, 11)]
    # One table per row with positive entries, whatever their gcd: the
    # row's answers build it; rows skipped for positivity build none. The
    # work meter stops each box over the cap on its sys2 run (the first
    # family's t^3 past t = 5, say), and the last family's box at t = 4,
    # t^4 plus a margin of 9 keys (its smallest entry), which fits the cap,
    # in its sys1 search, at 279 work.
    notes = set()
    for case, point_cap in ((family, 150),
                            (fam([U, U + Poly.constant(2)]), 10**6),
                            (fam([2 * U + ONE, 3 * U + Poly.constant(2),
                                  5 * U + ONE], m=2, l=2), 265)):
        built.clear()
        report = reduction.crosscheck(case, 1, 10, point_cap)
        notes |= {row.note.split(",")[0] for row in report.rows}
        gated = [row for row in report.rows
                 if row.note != "entry not positive"]
        assert built == [case.values(row.t) for row in gated]
    assert notes == {"", "entry not positive",
                     "no box t^r holds the answers at t < 2",
                     "enumeration exceeded the point cap"}


def test_crosscheck_rows_start_from_the_family_coins(monkeypatch):
    # Each row takes its direct columns from answers, which asks
    # PolyFamily.coins before it builds a table, and then asks coins again
    # for the entries it divides by their gcd: the positivity rule of
    # answers is the crosscheck's too.
    events = []
    real_coins, real_table = PolyFamily.coins, frobenius.apery_table

    def coins(family, t):
        events.append(("coins", t))
        return real_coins(family, t)

    def table(coins, m):
        events.append(("table", coins.a))
        return real_table(coins, m)

    monkeypatch.setattr(PolyFamily, "coins", coins)
    monkeypatch.setattr(frobenius, "apery_table", table)
    # (t - 4)(t - 6) is 0 or below at t = 4..6, and t is 0 at t = 0; t
    # shares a factor with it at t = 2, 3, 8 and 9, which are checked all
    # the same: a table is built at t = 1, 2, 3, 7, 8 and 9, and every
    # row but t = 1, which no box t^1 holds, is checked.
    family = fam([U, U**2 - 10 * U + Poly.constant(24)], m=2, l=2)
    report = reduction.crosscheck(family, 0, 9)
    notes = [row.note for row in report.rows]
    assert [t for t in range(10) if notes[t] == "entry not positive"] == [
        0, 4, 5, 6]
    assert report.checked == 5 and report.ok
    assert events == [event for t in range(10) for event in (
        [("coins", t)] + [("table", family.values(t)), ("coins", t)] * (
            t in (1, 2, 3, 7, 8, 9)))]


def test_crosscheck_below_t_two_terminates():
    # No power of t grows at t <= 1, so there only the box t^1 is tried.
    family = fam([2 * U + ONE, 3 * U + Poly.constant(2), 5 * U + ONE], m=2, l=2)
    report = reduction.crosscheck(family, 0, 4)
    assert [(row.t, row.r) for row in report.rows] == [
        (0, None), (1, None), (2, 5), (3, 4), (4, 4)]
    assert [row.note for row in report.rows[:2]] == [
        "no box t^r holds the answers at t < 2"] * 2
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


@pytest.mark.parametrize("corrupt, status", [
    (lambda feasible, top: (feasible, (top[0] + 1,) + top[1:]),
     reduction.DIFF),
    (lambda feasible, top: (feasible[1:], top), reduction.G_OFFSET),
], ids=["top-value", "feasible-size"])
def test_crosscheck_classifies_a_wrong_exclusion_row(tmp_path, monkeypatch,
                                                    corrupt, status):
    # The exclusion answer at t = 4 alone is corrupted: its top value
    # shifted by 1 is a DIFF, one feasible point fewer a G_OFFSET; either
    # way the crosscheck fails, in the library and on the command line.
    real = pilp.exclusion_profile

    def profile(ex, t, l, point_cap):
        answer = real(ex, t, l, point_cap)
        return corrupt(*answer) if t == 4 else answer

    monkeypatch.setattr(pilp, "exclusion_profile", profile)
    report = reduction.crosscheck(fam([U, U - ONE]), 2, 6)
    assert [row.status for row in report.rows] == \
        [reduction.EQUAL] * 2 + [status] + [reduction.EQUAL] * 2
    row = report.rows[2]
    if status == reduction.DIFF:
        assert row.f_exclusion == row.f_direct + 1
        assert row.g_exclusion == row.g_direct
        assert report.g_offsets == (0,)
    else:
        assert row.f_exclusion == row.f_direct
        assert row.g_exclusion == row.g_direct - 1
        assert report.g_offsets == (-1, 0)
    assert report.f_all_equal == (status != reduction.DIFF)
    assert not report.ok

    path = tmp_path / "fam.txt"
    path.write_text("poly: t\npoly: t - 1\nm: 1\nl: 1\n")
    res = run_cli(["crosscheck", "--family", str(path), "--t-min", "2",
                   "--t-max", "6", "--format", "machine"])
    assert res.exit_code == 4
    lines = res.output.splitlines()
    assert lines[2].endswith(f" | {status}")
    assert lines[-1] == "verdict MISMATCH"


def test_crosscheck_box_does_not_trust_the_direct_table(monkeypatch):
    # A residue table that says F = 3 at t = 5, where F(5, 6) is 19, does
    # not shrink the box: the exclusion path proves its own, t^2, and finds
    # 19 there.
    monkeypatch.setattr(frobenius.AperyTable, "frobenius",
                        lambda table, m, l: 3)
    (row,) = reduction.crosscheck(fam([U, U + ONE]), 5, 5).rows
    assert (row.status, row.r, row.f_exclusion, row.f_direct) == (
        reduction.DIFF, 2, 19, 3)


def test_crosscheck_checks_the_direct_path_it_ships(tmp_path, monkeypatch):
    # The direct columns are what `series` prints: answers off by one make
    # every row a DIFF, and the command exits 4.
    real = PolyFamily.answers

    def shifted(family, t):
        f, g = real(family, t)
        return f + 1, g

    monkeypatch.setattr(PolyFamily, "answers", shifted)
    report = reduction.crosscheck(fam([U, U + ONE]), 2, 6)
    assert [row.status for row in report.rows] == [reduction.DIFF] * 5
    path = tmp_path / "fam.txt"
    path.write_text("poly: t\npoly: t + 1\nm: 1\nl: 1\n")
    res = run_cli(["crosscheck", "--family", str(path), "--t-min", "2",
                   "--t-max", "6", "--format", "machine"])
    assert res.exit_code == 4
    assert res.output.splitlines()[-1] == "verdict MISMATCH"


def test_crosscheck_report_totals_come_from_rows():
    row = reduction.CrosscheckRow
    skipped = row(2, None, None, None, None, "entry not positive")
    equal = row(3, 5, 5, 8, 8)
    offset = row(4, 9, 9, 13, 12)
    diff = row(5, 11, 12, 15, 15)
    bottom = row(6, BOTTOM, 12, 15, 15)
    assert [r.status for r in (skipped, equal, offset, diff, bottom)] == [
        reduction.SKIPPED, reduction.EQUAL, reduction.G_OFFSET,
        reduction.DIFF, reduction.DIFF]

    report = reduction.CrosscheckReport((skipped, equal, offset))
    assert report.checked == 2
    assert report.f_all_equal
    assert report.g_offsets == (0, 1)
    assert not report.ok

    report = reduction.CrosscheckReport((equal, skipped, diff))
    assert report.checked == 2
    assert not report.f_all_equal
    assert report.g_offsets == (0,)
    assert not report.ok

    report = reduction.CrosscheckReport((offset, skipped, offset))
    assert report.checked == 2
    assert report.f_all_equal
    assert report.g_offsets == (1,)
    assert report.ok

    report = reduction.CrosscheckReport((skipped, skipped))
    assert report.checked == 0
    assert report.f_all_equal
    assert report.g_offsets == ()
    assert not report.ok


def test_crosscheck_reports_constant_g_offset_for_higher_m():
    family = fam([U, U - Poly.constant(1)], m=2, l=1)
    report = reduction.crosscheck(family, 2, 10)
    assert report.f_all_equal
    assert report.g_offsets == (1,)
    assert report.ok
    assert all(row.status == reduction.G_OFFSET for row in report.rows
               if row.status != reduction.SKIPPED)


def test_crosscheck_skips_below_validity():
    # gcd 2 on even t puts no row below validity: each row divides its
    # entries by their gcd, so all 10 are checked.
    family = fam([U, U + Poly.constant(2)])
    report = reduction.crosscheck(family, 3, 12)
    assert report.checked == 10 and report.ok
    for row in report.rows[1::2]:  # t = 4, 6, ..., 12: 2 * F(s, s + 1)
        s = row.t // 2
        assert row.f_exclusion == 2 * (s * s - s - 1), row


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
    # by one: the projection does 1011 nodes + 972 runs = 1983 work, and
    # the fiber search stops each fiber at m points. (crosscheck
    # runs this row in its own box, t^3, where sys1 has 487 points.)
    family = fam([U, U**2 + ONE, U**2 + 2 * U - ONE], m=2, l=2)
    r = reduction.box_exponent(family)
    ex = reduction.frobenius_to_exclusion(family, r)
    cap = 20_000
    assert 7**r <= cap < pilp.lattice_profile(ex.sys1, 7, None)[0]
    _, top = pilp.exclusion_profile(ex, 7, family.l, cap)
    table = frobenius.apery_table(Coins(family.values(7)), family.m)
    assert top[family.l - 1] - family.l == table.frobenius(family.m, family.l)
    report = reduction.crosscheck(family, 7, 7, point_cap=cap)
    assert report.checked == 1 and report.ok


def test_crosscheck_sys1_takes_the_projection(monkeypatch):
    # The crosscheck benchmark's seed-1 family. Each row's search above the
    # leaf is smaller than its kept box, so sys1 takes the projection: 268
    # work over t = 3..8, where the fiber search takes 5852. Each row's work
    # is exact: the cap trips one below it, with the one cap message.
    works = []
    real = pilp._iter_points

    def recording(rows, lo, hi, visit, point_cap, fiber=None):
        work = real(rows, lo, hi, visit, point_cap, fiber)
        if fiber:
            spare = fiber[:2] + (set(),)
            with pytest.raises(ResourceLimitError, match="nodes plus the work of each"):
                real(rows, lo, hi, None, work - 1, spare)
            fibers = real(rows, lo, hi, None, point_cap, spare, False)
            works.append((work, fibers))
        return work

    monkeypatch.setattr(pilp, "_iter_points", recording)
    family = fam([U, U**2 + ONE, U**2 + 2 * U + Poly.constant(3)], m=2, l=2)
    report = reduction.crosscheck(family, 3, 8)
    assert report.checked == 6 and report.ok
    assert len(works) == 6
    assert [sum(column) for column in zip(*works)] == [268, 5852]


@st.composite
def constant_constructions(draw):
    """(family, t, r): 2-4 constant entries in 2..12, m and l in 1..3, t in
    2..6 and r with t^r <= 216."""
    entries = draw(st.lists(st.integers(2, 12), min_size=2, max_size=4))
    family = fam([Poly.constant(a) for a in entries],
                 m=draw(st.integers(1, 3)), l=draw(st.integers(1, 3)))
    t = draw(st.integers(2, 6))
    r = draw(st.integers(1, max(r for r in range(1, 8) if t**r <= 216)))
    return family, t, r


@settings(max_examples=60, deadline=None)
@given(constant_constructions())
def test_construction_passes_match_the_dp(drawn):
    # The crosscheck's own construction on three paths: each sys1 pass,
    # forced, fills the keys k in l..t^r + a - 1 with h(k - l) >= m, and
    # exclusion_profile keeps the rest of 0..t^r + a - 1, as the DP does.
    family, t, r = drawn
    ex = reduction.frobenius_to_exclusion(family, r)
    coins = family.coins(t)
    top_k = t**r + min(coins.a) - 1
    h = oracles.rep_count_table(coins, top_k, family.m)
    l, m = family.l, family.m
    want = {(k,) for k in range(l, top_k + 1) if h[k - l] >= m}
    rows = pilp._instantiate(ex.sys1, t)
    box = pilp.propagated_box(ex.sys1, t)
    for project in (True, False):
        full = set()
        pilp._iter_points(rows, *box, None, 10**6, (1, m, full), project)
        assert full == want
    feasible = [(k,) for k in range(top_k + 1) if (k,) not in want]
    top = tuple(k for (k,) in feasible[:-l - 1:-1])  # 0..l-1 are feasible
    assert pilp.exclusion_profile(ex, t, l) == (tuple(feasible), top)


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
    t0 = oracles.positivity_start(family)
    assert_window_bound_holds(family, range(t0, t0 + 4))


@settings(max_examples=150, deadline=None)
@given(mixed_families())
def test_window_bound_poly_is_qualifying_bound_plus_l(family):
    # Both come from frobenius.window_end; they agree wherever the entries
    # have gcd 1 and their concrete order is the eventual one.
    bound = reduction.window_bound_poly(family)
    ordered = sorted(family.polys, key=eventual_order)
    t0 = oracles.positivity_start(family)
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
        # A checked row's box is the smallest t^r_t above l + F_{m,1}(t),
        # and a skipped row stopped at an r no larger ...
        assert row.status == reduction.SKIPPED or largest < t**row.r, row
        assert row.r == 1 or t**(row.r - 1) <= largest, row
        # ... and Schur's bound holds it wherever the bound lies below t^r
        # and the entries are in their eventual order.
        if bound(t) < t**r and [p(t) for p in ordered] == sorted(values):
            assert row.r <= r, row


@settings(max_examples=100, deadline=None)
@given(mixed_families(), st.integers(1, 4))
def test_crosscheck_box_is_exact_from_any_start(family, t_min):
    # answers that under-report F start every row at r = 1: the box grows
    # to the same r_t, the smallest r with t^r above l + F_{m,1}(t) / g,
    # and the exclusion columns do not change.
    honest = reduction.crosscheck(family, t_min, t_min + 3, point_cap=3000)
    real = PolyFamily.answers

    def under(self, t):
        return -10**9, real(self, t)[1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PolyFamily, "answers", under)
        low = reduction.crosscheck(family, t_min, t_min + 3, point_cap=3000)
    for row, start in zip(honest.rows, low.rows):
        assert (row.status == reduction.SKIPPED) == (
            start.status == reduction.SKIPPED), (row, start)
        if row.status == reduction.SKIPPED:
            continue
        assert (start.r, start.f_exclusion, start.g_exclusion) == (
            row.r, row.f_exclusion, row.g_exclusion), (row, start)
        coins = family.coins(row.t)
        f, _, _ = oracles.dp_answers(coins, family.m)
        largest = family.l + f(1) // coins.g
        assert largest < row.t**row.r, row
        assert row.r == 1 or row.t**(row.r - 1) <= largest, row
