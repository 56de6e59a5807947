"""Text grammar round trips and rejections."""

from fractions import Fraction

import pytest

from parafrob import formats
from parafrob.errors import InputError
from parafrob.pilp import EQ, LE
from parafrob.qpoly import BOTTOM, Poly

U = Poly.variable()


def test_rational_round_trip():
    for text, value in [("3", 3), ("-3/2", Fraction(-3, 2)), ("0", 0)]:
        assert formats.parse_rational(text) == value
    assert formats.format_rational(Fraction(-3, 2)) == "-3/2"
    with pytest.raises(InputError):
        formats.parse_rational("1.5")


def test_poly_list_grammar():
    p = formats.parse_poly("[1, -3/2, 1/2]")
    assert p == Poly([1, Fraction(-3, 2), Fraction(1, 2)])
    assert formats.format_poly_list(p) == "[1, -3/2, 1/2]"
    assert formats.parse_poly("poly: [0, 1]") == U
    assert formats.parse_poly("[0]") == Poly()
    assert formats.parse_poly("[]") == Poly()
    assert formats.format_poly_list(Poly()) == "[0]"


def test_poly_expression_grammar():
    assert formats.parse_poly("2t+1") == 2 * U + Poly.constant(1)
    assert formats.parse_poly("t^2") == U**2
    assert formats.parse_poly("-3") == Poly.constant(-3)
    assert formats.parse_poly("u^2 - 4u + 2") == U**2 - 4 * U + Poly.constant(2)
    assert formats.parse_poly("(1/2)t^2 - (3/2)t") == Poly([0, Fraction(-3, 2), Fraction(1, 2)])
    assert formats.parse_poly("2*t") == 2 * U
    with pytest.raises(InputError):
        formats.parse_poly("t**2")


def test_poly_expr_formatting_round_trip():
    for p in (Poly(), U, -U, 2 * U**3 - U + Poly.constant(5),
              Poly([Fraction(1, 2), 0, Fraction(-3, 2)])):
        assert formats.parse_poly(formats.format_poly_expr(p)) == p
        assert formats.parse_poly(formats.format_poly_list(p)) == p


def test_coins_grammar():
    for text in ("a: [6, 10, 15]", "[6,10,15]", "6, 10, 15"):
        assert formats.parse_coins(text).a == (6, 10, 15)
    assert formats.format_coins(formats.parse_coins("3,5")) == "a: [3, 5]"
    with pytest.raises(InputError):
        formats.parse_coins("3; 5")
    for text in ("[6, 10, 15", "6,10]]", "[[6, 10]]"):
        with pytest.raises(InputError, match="misplaced bracket in tuple"):
            formats.parse_coins(text)


def test_series_grammar():
    text = "# comment\n3 7\n4 -2\n5 -inf\n6 1/2\n"
    s = formats.parse_series(text)
    assert s.t_min == 3
    assert s.values == (7, -2, BOTTOM, Fraction(1, 2))
    assert formats.parse_series(formats.format_series(s)).values == s.values
    with pytest.raises(InputError):
        formats.parse_series("3 7\n3 8\n")
    with pytest.raises(InputError):
        formats.parse_series("3 7\n5 8\n")


def test_family_grammar():
    text = "poly: [0, 1]\npoly: t^2+2t-1\nm: 2\nl: 1\n"
    fam = formats.parse_family(text)
    assert fam.polys == (U, U**2 + 2 * U - Poly.constant(1))
    assert fam.m == 2 and fam.l == 1
    with pytest.raises(InputError):
        formats.parse_family("poly: [0, 1]\npoly: [1, 1]\nm: 1\n")


def test_system_file_plain():
    text = """
vars: 2
nonneg: all
c: 1, 1
row: 1, 1 | <= | t
row: 2t+1, -3 | <= | t^2
row: 1, 0 | == | t
"""
    kind, sys = formats.parse_system_file(text)
    assert kind == "system"
    assert sys.n == 2
    assert sys.rows[0].sense == LE and sys.rows[2].sense == EQ
    assert sys.rows[1].coeffs[0] == 2 * U + Poly.constant(1)
    assert sys.rows[1].rhs == U**2
    assert sys.c == (Poly.constant(1), Poly.constant(1))


def test_system_file_exclusion():
    text = """
# cleared-denominator projection example
m: 1
n1: 1
n2: 1
c: 1
sys1:
nonneg: all
row: 3, -5 | <= | 0
row: -5, 8 | <= | 0
row: 1, 0 | <= | t
sys2:
row: 1 | <= | t
"""
    kind, ex = formats.parse_system_file(text)
    assert kind == "exclusion"
    assert ex.m == 1
    assert ex.sys1.n == 2 and ex.sys2.n == 1
    from parafrob import pilp
    assert [p[0] for p in pilp.exclusion_profile(ex, 10, None)[0]] == \
        [1, 2, 3, 4, 6, 7, 9]


def test_system_file_rejections():
    with pytest.raises(InputError):
        formats.parse_system_file("row: 1 | <= | t\n")  # no vars
    with pytest.raises(InputError):
        formats.parse_system_file("vars: 2\nrow: 1 | <= | t\n")  # width
    with pytest.raises(InputError):
        formats.parse_system_file("vars: 1\nrow: 1 | < | t\n")  # bad sense
    with pytest.raises(InputError):
        formats.parse_system_file("m: 1\nn1: 1\nn2: 1\nsys1:\nrow: 1, 1 | <= | t\nsys2:\nrow: 1 | <= | t\n")  # no c


def test_non_integer_valued_rows_rejected():
    with pytest.raises(InputError):
        formats.parse_system_file("vars: 1\nrow: [0, 1/2] | <= | t\n")
