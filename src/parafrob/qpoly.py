"""Exact rational arithmetic substrate: one-variable polynomials with
rational coefficients, the BOTTOM value, and quasi-polynomials.

Everything here is exact: ints, and fractions.Fraction only for numbers
that are not integral; no floating point is used anywhere in the package.
All types are immutable after construction and safe to share between
threads.
"""

from math import lcm

from .errors import InputError, frozen


class _Bottom:
    """The minimum element: compares strictly below every finite value.

    There is a single instance, ``BOTTOM``. It stands in for the value a
    ranking function takes when fewer elements exist than were asked for.
    """

    __slots__ = ()

    def __repr__(self):
        return "-inf"

    def __lt__(self, other):
        return not isinstance(other, _Bottom)

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return isinstance(other, _Bottom)


BOTTOM = _Bottom()


def _normalize(value):
    """An exact number as an int when it is integral, else unchanged."""
    if value.__class__ is int or value.denominator != 1:
        return value
    return int(value)


def _divide(a, b):
    """a / b exactly: an int when b divides a, else a Fraction."""
    quotient, remainder = divmod(a, b)
    if not remainder:
        return quotient
    from fractions import Fraction

    return Fraction(a) / b


class Poly:
    """One-variable polynomial with exact rational coefficients.

    Coefficients are stored in ascending degree, as ints where integral;
    the zero polynomial has an empty coefficient tuple. A polynomial may map
    the integers to the integers without having integer coefficients
    (u*(u-1)/2 does); use :meth:`is_integer_valued` for that test.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_normalize(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls((c,))

    @classmethod
    def variable(cls) -> "Poly":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        """Degree of the leading term; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading_coefficient(self) -> "int | Fraction":
        return self.coeffs[-1] if self.coeffs else 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, t):
        """Exact value at t (int when the result is integral)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc if acc.__class__ is int else _normalize(acc)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return Poly(x + y for x, y in zip(a, b))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return Poly(-c for c in self.coeffs)

    def __mul__(self, other):
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            for j, d in enumerate(other.coeffs):
                out[i + j] += c * d
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise InputError("negative polynomial power")
        result = Poly.constant(1)
        for _ in range(n):
            result = result * self
        return result

    def shift(self, k: int) -> "Poly":
        """Multiply by u^k."""
        if self.is_zero():
            return self
        return Poly((0,) * k + self.coeffs)

    def compose(self, inner: "Poly") -> "Poly":
        """Substitute ``inner`` for the variable."""
        acc = Poly()
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly.constant(c)
        return acc

    def __divmod__(self, other: "Poly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quo = Poly()
        rem = self
        while not rem.is_zero() and rem.degree >= other.degree:
            c = _divide(rem.leading_coefficient, other.leading_coefficient)
            term = Poly.constant(c).shift(rem.degree - other.degree)
            quo = quo + term
            rem = rem - term * other
        return quo, rem

    @staticmethod
    def _coerce(value) -> "Poly":
        if isinstance(value, Poly):
            return value
        return Poly.constant(value)

    def is_integer_valued(self) -> bool:
        """True iff p(k) is an integer for every integer k: at once when
        every coefficient is an int, else iff p(0), ..., p(deg) are
        integers (Polya: the binomial-basis coordinates are the forward
        differences of those values), tested as d*p(k) = 0 mod d, where d
        is the lcm of the denominators."""
        if all(c.__class__ is int for c in self.coeffs):
            return True
        d = lcm(*(c.denominator for c in self.coeffs))
        scaled = [c.numerator * (d // c.denominator)
                  for c in reversed(self.coeffs)]
        for k in range(len(scaled)):
            acc = 0
            for c in scaled:
                acc = (acc * k + c) % d
            if acc:
                return False
        return True

    def __repr__(self):
        from .formats import format_poly_expr

        return f"Poly({format_poly_expr(self)!r})"


def eventually_positive(p: Poly) -> bool:
    """True iff p(t) > 0 for all sufficiently large t."""
    return not p.is_zero() and p.leading_coefficient > 0


@frozen
class QuasiPolynomial:
    """Periodic family of polynomial components valid beyond a threshold.

    ``components[t % period]`` gives the value at t for every t >
    ``threshold``; a component may be BOTTOM, meaning the function is
    constantly BOTTOM along that residue class.
    """

    period: int
    components: tuple
    threshold: int

    def __post_init__(self):
        if self.period < 1:
            raise InputError("period must be >= 1")
        if len(self.components) != self.period:
            raise InputError("component count must equal the period")
        for comp in self.components:
            if not (comp is BOTTOM or isinstance(comp, Poly)):
                raise InputError("components must be Poly or BOTTOM")

    def eval(self, t: int):
        """Exact value at t; raises InputError for t <= threshold."""
        if t <= self.threshold:
            raise InputError(
                f"t={t} is not above the threshold {self.threshold}"
            )
        comp = self.components[t % self.period]
        if comp is BOTTOM:
            return BOTTOM
        return comp(t)
