"""Exact quasi-polynomial fitting: round trips, thresholds, refusals."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import eventually_equal, lifted, newton_interpolate, validate
from parafrob import eqpfit
from parafrob.eqpfit import Fit, NoFit
from parafrob.errors import InputError
from parafrob.qpoly import BOTTOM, Poly, QuasiPolynomial, SampleSeries

U = Poly.variable()


def series_of(fn, t_min, t_max):
    return SampleSeries(t_min, tuple(fn(t) for t in range(t_min, t_max + 1)))


def test_sample_series_contiguity():
    s = SampleSeries.from_pairs([(3, 1), (5, 3), (4, 2)])
    assert s.t_min == 3 and s.t_max == 5 and s.values == (1, 2, 3)
    with pytest.raises(InputError):
        SampleSeries.from_pairs([(1, 0), (3, 0)])
    with pytest.raises(InputError, match="^series must be nonempty$"):
        SampleSeries(1, ())


def test_fit_bounds_validation():
    s = series_of(lambda t: t, 1, 60)
    for bounds in ({"d_max": 0}, {"deg_max": -1}):
        with pytest.raises(InputError, match="d_max must be >= 1 and "
                                             "deg_max >= 0"):
            eqpfit.fit_quasipolynomial(s, **bounds)


def test_interpolate_examples():
    # A class's polynomial runs through the earliest deg_max + 1 points of
    # its suffix and must match every later one.
    def fit(fn, deg_max):
        return eqpfit.fit_quasipolynomial(series_of(fn, 1, 20), d_max=1,
                                          deg_max=deg_max)

    assert fit(lambda t: t + 1, 1).qp.components == (U + Poly.constant(1),)
    assert fit(lambda t: t * t, 2).qp.components == (U**2,)
    assert fit(lambda t: t * t, 1).diagnostics == (
        (1, 0, "no run of 4 points of degree <= 1 ends the class"),)


MIX = "trailing values mix -inf and finite samples"
PAST_HALF = "threshold past the first half of the training window"


def no_run(deg_max):
    return (f"no run of {deg_max + 3} points of degree <= {deg_max} ends "
            f"the class")


def reference_class(points, deg_max):
    """A class's (component, last t before its suffix or None), or its
    reason for failing, by the fitter's rule with Fraction interpolation:
    the class's trailing run of one kind holds at least deg_max + 3 points,
    and a finite run's suffix is its longest tail, of deg_max + 3 points at
    least, that the polynomial through the tail's earliest deg_max + 1
    points matches."""
    bottom = points[-1][1] is BOTTOM
    start = len(points)
    while start and (points[start - 1][1] is BOTTOM) == bottom:
        start -= 1
    if len(points) - start < deg_max + 3:
        return MIX
    if bottom:
        return BOTTOM, points[start - 1][0] if start else None
    for s in range(start, len(points) - deg_max - 2):
        poly = newton_interpolate(points[s:s + deg_max + 1])
        if all(poly(t) == v for t, v in points[s + deg_max + 1:]):
            return poly, points[s - 1][0] if s else None
    return no_run(deg_max)


def fit_checked(series, d_max, deg_max):
    """fit_quasipolynomial's verdict, after checking each class diagnostic,
    each fitted component, the fitted threshold and the midpoint guard
    against reference_class."""
    res = eqpfit.fit_quasipolynomial(series, d_max, deg_max)
    holdout = min(2 * d_max, len(series) // 2)
    training = series.items()[:len(series) - holdout]
    midpoint_2 = series.t_min + training[-1][0]  # twice the midpoint

    def judged(d):
        return [reference_class([(t, v) for t, v in training if t % d == r],
                                deg_max) for r in range(d)]

    def threshold(classes):
        return max([series.t_min - 1] + [t for _, t in classes
                                         if t is not None])

    if isinstance(res, Fit):
        classes = judged(res.qp.period)
        assert res.qp.components == tuple(comp for comp, _ in classes)
        assert res.qp.threshold == threshold(classes)
        assert 2 * res.qp.threshold <= midpoint_2
    else:
        for d, r, reason in res.diagnostics:
            if r is not None:
                got = judged(d)
                assert got[r] == reason
                assert not any(isinstance(g, str) for g in got[:r])
            elif reason == PAST_HALF:
                assert 2 * threshold(judged(d)) > midpoint_2
    return res


@st.composite
def drawn_classes(draw):
    """(d, deg_max, t_min, classes, values) of a quasi-polynomial of period
    d = 1..6: each class is a rational polynomial of degree <= deg_max + 1
    after a head of up to three samples, or -inf throughout. A head is -inf
    (offset None) or off the polynomial by a nonzero offset. Every class
    has deg_max + 8 training points when 2d samples are held out."""
    d, deg_max = draw(st.integers(1, 6)), draw(st.integers(0, 4))
    t_min = draw(st.integers(-20, 20))
    coefficient = st.fractions(-12, 12, max_denominator=6)
    offset = st.one_of(st.none(), st.sampled_from([1, -2, Fraction(1, 2)]))
    classes = [None if draw(st.integers(0, 9)) == 0 else
               (draw(st.integers(0, 3)), draw(offset),
                Poly(draw(st.lists(coefficient, min_size=1,
                                   max_size=deg_max + 2))))
               for _ in range(d)]
    values = []
    for i in range(d * (deg_max + 10)):
        t, cls = t_min + i, classes[(t_min + i) % d]
        if cls is None or (i // d < cls[0] and cls[1] is None):
            values.append(BOTTOM)
        else:
            values.append(cls[2](t) + (cls[1] if i // d < cls[0] else 0))
    return d, deg_max, t_min, classes, values


@settings(max_examples=150, deadline=None)
@given(drawn_classes(), st.data())
def test_fit_matches_the_fraction_reference(drawn, data):
    # A class of degree <= deg_max fits with the reference's interpolant
    # through the earliest deg_max + 1 points of its suffix, past its head,
    # and a steeper one gets the reference's diagnostic. A class perturbed
    # at one point past every head matches the reference too: a fit starts
    # its suffix after that point and agrees with the unperturbed fit.
    d, deg_max, t_min, classes, values = drawn
    finite = [r for r, cls in enumerate(classes) if cls is not None]
    steep = any(classes[r][2].degree > deg_max for r in finite)
    res = fit_checked(SampleSeries(t_min, tuple(values)), d, deg_max)
    assert isinstance(res, NoFit if steep else Fit)
    if steep or not finite:
        return
    r = data.draw(st.sampled_from(finite))
    heads = max(classes[j][0] for j in finite)
    k = data.draw(st.integers(heads, deg_max + 7))
    i = (r - t_min) % d + k * d
    values[i] += data.draw(st.sampled_from([1, -1, Fraction(1, 3)]))
    perturbed = fit_checked(SampleSeries(t_min, tuple(values)), d, deg_max)
    if isinstance(perturbed, Fit):
        assert perturbed.qp.threshold >= t_min + i
        assert eventually_equal(perturbed.qp, res.qp)
    else:
        assert {(d, r, no_run(deg_max)), (d, None, PAST_HALF)} & set(
            perturbed.diagnostics)


def test_fit_floor_half():
    s = series_of(lambda t: t // 2, 1, 60)
    res = eqpfit.fit_quasipolynomial(s)
    assert isinstance(res, Fit)
    qp = res.qp
    assert qp.period == 2
    assert qp.components[0] == Poly([0, Fraction(1, 2)])
    assert qp.components[1] == Poly([Fraction(-1, 2), Fraction(1, 2)])
    assert qp.threshold == 0


def test_fit_non_eqp_log_series():
    s = series_of(lambda t: t * (t.bit_length() - 1), 1, 120)
    res = eqpfit.fit_quasipolynomial(s, d_max=6, deg_max=4)
    assert isinstance(res, NoFit)
    assert "bounded-search" in res.note
    assert any(d == 1 for d, _, _ in res.diagnostics)


def test_fit_thresholds_a_finite_transient_head():
    # A finite garbage head lifts the threshold as a BOTTOM head does: the
    # suffix starts past the last nonzero (deg_max+1)-th difference.
    def f(t):
        return 999 if t < 7 else 3 * t + 1

    s = series_of(f, 1, 70)
    res = eqpfit.fit_quasipolynomial(s, d_max=4, deg_max=3)
    assert isinstance(res, Fit)
    assert res.qp.threshold == 6
    assert res.qp.components == (3 * U + Poly.constant(1),)


def test_fit_refuses_a_threshold_past_the_training_midpoint():
    # 3t + 1 from t = s on: 2 of 60 samples are held out, so training is
    # t = 1..58 with midpoint 29.5. From s = 31 the suffix holds 28 points
    # but its threshold is 30; from s = 30 the threshold 29 is allowed.
    def fit(s):
        series = series_of(lambda t: 999 if t < s else 3 * t + 1, 1, 60)
        return eqpfit.fit_quasipolynomial(series, d_max=1, deg_max=3)

    assert fit(31).diagnostics == ((1, None, PAST_HALF),)
    assert fit(30).qp.threshold == 29


def test_fit_bottom_heads_and_components():
    # Residue 0: constantly BOTTOM; residue 1: BOTTOM below 9, then square.
    def f(t):
        if t % 2 == 0:
            return BOTTOM
        return BOTTOM if t < 9 else t * t

    s = series_of(f, 1, 80)
    res = eqpfit.fit_quasipolynomial(s, d_max=4, deg_max=3)
    assert isinstance(res, Fit)
    qp = res.qp
    assert qp.period == 2
    assert qp.components[0] is BOTTOM
    assert qp.components[1] == U**2
    # last disagreeing sample is the BOTTOM at t = 7 (t = 8 is BOTTOM on a
    # BOTTOM component, which agrees)
    assert qp.threshold == 7
    assert qp.eval(8) is BOTTOM and qp.eval(9) == 81


def test_fit_rejects_mixed_trailing():
    values = tuple(BOTTOM if t % 3 == 0 else t for t in range(1, 41))
    res = eqpfit.fit_quasipolynomial(
        SampleSeries(1, values), d_max=2, deg_max=2
    )
    assert isinstance(res, NoFit)
    assert any("mix" in reason for _, _, reason in res.diagnostics)


def test_fit_minimality_period_one_never_inflated():
    s = series_of(lambda t: 5 * t - 3, 1, 50)
    res = eqpfit.fit_quasipolynomial(s, d_max=8, deg_max=3)
    assert isinstance(res, Fit) and res.qp.period == 1


def test_fit_insufficient_data():
    with pytest.raises(InputError, match=r"4 training samples cannot support "
                                         r"any fit \(min_support=9\)"):
        eqpfit.fit_quasipolynomial(series_of(lambda t: t, 1, 8))


def test_fit_period_bound_far_above_the_data():
    # 40 samples: 20 train, 20 held out, min_support 9. Every period from
    # 20 // 9 + 1 = 3 on has a class of at most 20 // 3 = 6 training
    # points: periods 1 and 2 are tried, one diagnostic covers the rest.
    rng = random.Random(5)
    s = SampleSeries(1, tuple(rng.randint(-99, 99) for _ in range(40)))
    res = eqpfit.fit_quasipolynomial(s, d_max=200_000)
    assert isinstance(res, NoFit)
    assert [d for d, _, _ in res.diagnostics] == [1, 2, 3]
    assert res.diagnostics[-1] == (
        3, None, "up to period 200000, each period has a class of at most "
                 "6 training points (min_support=9)")


def test_fit_determinism():
    s = series_of(lambda t: (t // 3) ** 2, 1, 90)
    a = eqpfit.fit_quasipolynomial(s, d_max=6, deg_max=4)
    b = eqpfit.fit_quasipolynomial(s, d_max=6, deg_max=4)
    assert a == b


def _random_qp(rng, d_max=4, deg_max=3):
    d = rng.randint(1, d_max)
    comps = []
    for _ in range(d):
        if rng.random() < 0.15:
            comps.append(BOTTOM)
        else:
            deg = rng.randint(0, deg_max)
            num = [rng.randint(-20, 20) for _ in range(deg + 1)]
            den = rng.choice([1, 2, 2, 3])
            p = Poly(Fraction(c, den) for c in num)
            # keep values integral on its residue class: sample and use only
            # if integer-valued there; constants always work
            comps.append(p)
    return QuasiPolynomial(tuple(comps), rng.randint(0, 4))


def test_round_trip_random_quasipolynomials():
    rng = random.Random(42)
    done = 0
    while done < 30:
        qp = _random_qp(rng)
        t_min = qp.threshold + 1
        t_max = t_min + 150
        values = []
        ok = True
        for t in range(t_min, t_max + 1):
            v = qp.eval(t)
            if not (v is BOTTOM or isinstance(v, int)):
                ok = False
                break
            values.append(v)
        if not ok:
            continue  # non-integer component; series would not be integral
        s = SampleSeries(t_min, tuple(values))
        res = eqpfit.fit_quasipolynomial(s, d_max=6, deg_max=4)
        assert isinstance(res, Fit)
        assert eventually_equal(res.qp, qp)
        done += 1


def test_fitted_period_divides_other_fitting_periods():
    s = series_of(lambda t: t // 3, 2, 120)
    res = eqpfit.fit_quasipolynomial(s, d_max=9, deg_max=2)
    assert isinstance(res, Fit)
    assert res.qp.period == 3
    # the same data admits fits at multiples of 3 only
    assert eventually_equal(res.qp, lifted(res.qp, 2))


def test_validate_reports():
    qp = QuasiPolynomial((U,), 0)
    s = series_of(lambda t: t, 1, 20)
    rep = validate(qp, s)
    assert rep.agree_count == rep.compared_count == 20
    assert rep.first_disagreement is None

    s2 = series_of(lambda t: t + 1, 1, 20)
    rep2 = validate(qp, s2)
    assert rep2.agree_count == 0
    assert rep2.first_disagreement == (1, 2, 1)

    qp3 = QuasiPolynomial((BOTTOM, U), 0)
    s3 = SampleSeries(1, (1, BOTTOM, 3, BOTTOM))
    assert validate(qp3, s3).agree_count == 4


def test_fit_reproduces_every_post_threshold_sample():
    rng = random.Random(9)
    s = series_of(lambda t: (t // 2) * t, 1, 100)
    res = eqpfit.fit_quasipolynomial(s, d_max=4, deg_max=4)
    assert isinstance(res, Fit)
    rep = validate(res.qp, s)
    assert rep.agree_count == rep.compared_count
