"""Polynomial, BOTTOM, and quasi-polynomial behavior."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from oracles import eventually_equal, lifted
from parafrob import qpoly
from parafrob.errors import InputError
from parafrob.qpoly import (
    BOTTOM,
    Poly,
    QuasiPolynomial,
    eventually_positive,
)

U = Poly.variable()
HALF_SQUARE = Poly([0, Fraction(-1, 2), Fraction(1, 2)])  # u(u-1)/2


def test_poly_eval_examples():
    assert (U**2 + Poly.constant(1))(3) == 10
    assert HALF_SQUARE(5) == 10 == comb(5, 2)
    assert Poly()(10**6) == 0


def test_eval_is_int_when_integral():
    v = HALF_SQUARE(7)
    assert isinstance(v, int)
    w = Poly([Fraction(1, 2)])(3)
    assert isinstance(w, Fraction) and w == Fraction(1, 2)


def test_integer_valued_examples():
    assert HALF_SQUARE.is_integer_valued()
    assert not Poly([0, Fraction(1, 2)]).is_integer_valued()
    assert (3 * U**2 - U).is_integer_valued()
    assert Poly().is_integer_valued()
    half = Fraction(1, 2)
    assert (half * U**400 + half * U).is_integer_valued()
    assert not (Fraction(1, 3) * U + half * U**400).is_integer_valued()


def test_int_coefficients_skip_the_binomial_test(monkeypatch):
    # Int coefficients answer at once: a row with t^3000 once took seconds
    # to validate. The test proper starts from the lcm of the denominators.
    calls = []

    def lcm(*denominators):
        calls.append(denominators)
        raise AssertionError("integer-valued test on int coefficients")

    monkeypatch.setattr(qpoly, "lcm", lcm)
    assert (U**3000 - 7 * U).is_integer_valued()
    assert Poly().is_integer_valued()
    with pytest.raises(AssertionError):
        HALF_SQUARE.is_integer_valued()
    assert calls == [(1, 2, 2)]


@given(st.lists(st.integers(-30, 30), min_size=1, max_size=6))
def test_binomial_basis_integer_coeffs_always_integer_valued(coeffs):
    # Integer combinations of binomial-coefficient polynomials map Z to Z.
    p = Poly()
    basis = Poly.constant(1)
    for i, c in enumerate(coeffs):
        p = p + basis * c
        basis = basis * (U - Poly.constant(i)) * Fraction(1, i + 1)
    assert p.is_integer_valued()
    assert _ref_binomial(_trim(p.coeffs)) == [
        Fraction(c) for c in coeffs[: p.degree + 1]
    ] or p.is_zero()


@given(
    st.lists(
        st.fractions(min_value=-10, max_value=10, max_denominator=6),
        min_size=1,
        max_size=5,
    ),
    st.integers(-50, 50),
)
def test_binomial_criterion_agrees_with_direct_evaluation(coeffs, offset):
    # The canonical check must agree with evaluating at deg+1 consecutive
    # integers anywhere on the line.
    p = Poly(coeffs)
    direct = all(
        isinstance(p(offset + k), int) for k in range(p.degree + 2)
    )
    assert p.is_integer_valued() == direct


# Coefficients as parsing and interpolation make them: ints, and Fractions
# that may or may not be integral.
EXACT = st.one_of(st.integers(-20, 20),
                  st.fractions(-20, 20, max_denominator=6))


def _trim(coeffs):
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _ref_add(a, b):
    n = max(len(a), len(b))
    return _trim(x + y for x, y in zip(a + [0] * (n - len(a)),
                                       b + [0] * (n - len(b))))


def _ref_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _ref_eval(a, t):
    return sum((c * Fraction(t) ** i for i, c in enumerate(a)), Fraction(0))


def _ref_binomial(a):
    values = [_ref_eval(a, k) for k in range(len(a))] or [Fraction(0)]
    out = []
    while values:
        out.append(values[0])
        values = [y - x for x, y in zip(values, values[1:])]
    return out


def _assert_exact(value):
    """An int when integral, else a Fraction; never a float."""
    assert type(value) in (int, Fraction), value
    assert type(value) is int or value.denominator != 1, value


@given(st.lists(EXACT, max_size=5), st.lists(EXACT, max_size=4),
       st.integers(-30, 30))
def test_mixed_coefficients_match_a_fraction_reference(a, b, t):
    p, q = Poly(a), Poly(b)
    ra, rb = _trim(a), _trim(b)
    pairs = [(p + q, _ref_add(ra, rb)),
             (p - q, _ref_add(ra, [-c for c in rb])),
             (p * q, _ref_mul(ra, rb))]
    for got, want in pairs + [(p, ra), (q, rb)]:
        assert got.coeffs == tuple(want)
        for c in got.coeffs:
            _assert_exact(c)
    assert p(t) == _ref_eval(ra, t)
    _assert_exact(p(t))
    assert p.is_integer_valued() == all(
        c.denominator == 1 for c in _ref_binomial(ra))


def test_poly_arith_round_trips():
    p = U**3 - 2 * U + Poly.constant(5)
    q = HALF_SQUARE
    assert (p + q) - q == p
    assert (p * q)(7) == p(7) * q(7)
    assert 1 - U == Poly([1, -1])
    assert hash(U) == hash(Poly([0, 1]))
    assert repr(U**2 - 1) == "Poly('t^2 - 1')"
    with pytest.raises(InputError, match="^negative polynomial power$"):
        U ** -1


def test_eventual_order():
    assert eventually_positive(U - Poly.constant(10**6))
    assert not eventually_positive(-U)
    assert not eventually_positive(Poly())


def test_bottom_ordering():
    assert BOTTOM < 0
    assert BOTTOM < Fraction(-10**9)
    assert not (BOTTOM < BOTTOM)
    assert BOTTOM <= BOTTOM
    assert BOTTOM >= BOTTOM and not (BOTTOM >= -10**9)
    assert BOTTOM == BOTTOM
    assert 5 > BOTTOM
    assert sorted([3, BOTTOM, -7])[0] is BOTTOM
    assert repr(BOTTOM) == "-inf"


def test_qp_eval_examples():
    q = QuasiPolynomial((Poly([0, Fraction(1, 2)]),
                            Poly([Fraction(-1, 2), Fraction(1, 2)])), 0)
    assert q.eval(7) == 3
    assert QuasiPolynomial((U + Poly.constant(1),), 0).eval(41) == 42
    q2 = QuasiPolynomial((BOTTOM, U), 5)
    assert q2.period == 2
    assert q2.eval(8) is BOTTOM
    assert q2.eval(9) == 9


def test_qp_eval_below_threshold():
    q = QuasiPolynomial((BOTTOM, U), 5)
    with pytest.raises(InputError, match="t=5 is not above the threshold 5"):
        q.eval(5)


@pytest.mark.parametrize("components, message", [
    ((), "a quasi-polynomial needs at least one component"),
    ((3,), "components must be Poly or BOTTOM"),
], ids=["period", "component-type"])
def test_invalid_quasipolynomial_is_an_input_error(components, message):
    with pytest.raises(InputError) as info:
        QuasiPolynomial(components, 0)
    assert str(info.value) == message


def test_eventually_equal_examples():
    q1 = QuasiPolynomial((U,), 0)
    q2 = QuasiPolynomial((U, U), 0)
    assert eventually_equal(q1, q2)
    assert not eventually_equal(q1, QuasiPolynomial((U + Poly.constant(1),), 0))
    a = QuasiPolynomial((BOTTOM, U**2), 3)
    b = QuasiPolynomial((BOTTOM, U**2), 9)
    assert eventually_equal(a, b)


def _random_qp(rng):
    d = rng.randint(1, 4)
    comps = []
    for _ in range(d):
        if rng.random() < 0.2:
            comps.append(BOTTOM)
        else:
            comps.append(Poly([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                               for _ in range(rng.randint(1, 3))]))
    return QuasiPolynomial(tuple(comps), rng.randint(-1, 5))


def test_eventually_equal_is_an_equivalence_relation():
    rng = random.Random(7)
    qps = [_random_qp(rng) for _ in range(25)]
    for q in qps:
        assert eventually_equal(q, q)
    for a in qps:
        for b in qps:
            assert eventually_equal(a, b) == eventually_equal(b, a)
    for a in qps:
        for b in qps:
            for c in qps:
                if eventually_equal(a, b) and eventually_equal(b, c):
                    assert eventually_equal(a, c)


def test_eventually_equal_invariant_under_lifting():
    rng = random.Random(11)
    for _ in range(25):
        q = _random_qp(rng)
        k = rng.randint(1, 4)
        assert eventually_equal(q, lifted(q, k))


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4),
       st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_rational_arithmetic_stays_in_lowest_terms(a, b, c, d):
    x = Fraction(a, b)
    y = Fraction(c, d)
    for v in (x + y, x * y, x - y):
        assert v.denominator > 0
        assert Fraction(v.numerator, v.denominator) == v
        from math import gcd
        assert gcd(v.numerator, v.denominator) == 1
