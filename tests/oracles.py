"""Test-side oracles.

enumerate_lattice lists the points of a system's leaf runs, for tests that
check the search point by point. rep_count_table counts representations
by the capped coin DP, the residue table's oracle. positivity_start finds
where a family's entries stay positive by a scan, for tests that sample
from there. The rest share no code with the fitter:
newton_interpolate is the fitter's reference, Newton's divided differences
over Fractions through any points; eventually_equal decides symbolically
whether two quasi-polynomials agree for all large t; validate compares a
quasi-polynomial with a sample series point by point. The closed forms are
classical theorems, built as quasi-polynomials in t, that the fitted F and
G series of their families must equal.
"""

from fractions import Fraction
from itertools import repeat
from math import ceil, gcd, lcm

from parafrob import pilp
from parafrob.errors import DEFAULT_POINT_CAP, InputError, frozen
from parafrob.frobenius import Coins
from parafrob.qpoly import Poly, QuasiPolynomial


def enumerate_lattice(sys, t: int, point_cap: int = DEFAULT_POINT_CAP) -> tuple:
    """All integer points of the instantiated system, sorted.

    Raises InputError when propagation cannot bound every coordinate and
    ResourceLimitError once search nodes plus points pass point_cap.
    """
    points = []

    def collect(first, step, length):
        points.extend(zip(*(range(a, a + d * length, d) if d else repeat(a)
                            for a, d in zip(first, step))))

    pilp._stream(sys, t, collect, point_cap)
    points.sort()
    return tuple(points)


def rep_count_table(coins: Coins, bound: int, cap: int) -> tuple:
    """min(h(k), cap) for k = 0..bound, by coin DP, one pass per denomination.

    Addition saturates at ``cap``, which keeps every cell small no matter
    how large the true counts grow.
    """
    if bound < 0:
        raise InputError("bound must be >= 0")
    if cap < 1:
        raise InputError("cap must be >= 1")
    counts = [0] * (bound + 1)
    counts[0] = 1
    for a in coins.a:
        for k in range(a, bound + 1):
            prev = counts[k - a]
            if prev:
                s = counts[k] + prev
                counts[k] = s if s < cap else cap
    return tuple(counts)


def positivity_start(family) -> int:
    """Smallest t0 >= 1 with every entry of the family positive for all
    t >= t0, by a scan up to Cauchy's bound 1 + max |c_i| / lead, past
    which no entry has a root."""
    ceiling = max(ceil(1 + Fraction(max(map(abs, p.coeffs[:-1]), default=0))
                       / p.leading_coefficient) for p in family.polys)
    return 1 + max((t for t in range(1, ceiling + 1)
                    if any(p(t) <= 0 for p in family.polys)), default=0)


def newton_interpolate(points) -> Poly:
    """Exact Newton-form interpolation through all given points."""
    ts = [Fraction(t) for t, _ in points]
    coeffs = [Fraction(v) for _, v in points]
    # Divided differences in place.
    for j in range(1, len(points)):
        for i in range(len(points) - 1, j - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (ts[i] - ts[i - j])
    poly = Poly()
    basis = Poly.constant(1)
    for i, c in enumerate(coeffs):
        poly = poly + basis * c
        basis = basis * (Poly.variable() - Poly.constant(ts[i]))
    return poly


def lifted(q: QuasiPolynomial, factor: int) -> QuasiPolynomial:
    """The same function presented with period multiplied by ``factor``."""
    if factor < 1:
        raise InputError("lift factor must be >= 1")
    comps = tuple(q.components[r % q.period] for r in range(q.period * factor))
    return QuasiPolynomial(comps, q.threshold)


def eventually_equal(q1: QuasiPolynomial, q2: QuasiPolynomial) -> bool:
    """True iff the two quasi-polynomials agree for all sufficiently large t.

    Decided symbolically: lift both to the lcm of the periods and compare
    components; thresholds are irrelevant.
    """
    d = lcm(q1.period, q2.period)
    a = lifted(q1, d // q1.period)
    b = lifted(q2, d // q2.period)
    return a.components == b.components


@frozen
class ValidationReport:
    agree_count: int
    compared_count: int
    first_disagreement: tuple | None  # (t, sample value, qp value)


def validate(qp: QuasiPolynomial, series) -> ValidationReport:
    """Compare qp against every sample above its threshold."""
    agree = 0
    compared = 0
    first = None
    for t, v in series.items():
        if t <= qp.threshold:
            continue
        compared += 1
        got = qp.eval(t)
        if got == v:
            agree += 1
        elif first is None:
            first = (t, v, got)
    return ValidationReport(agree, compared, first)


def pair_closed_forms(p1: Poly, p2: Poly, m: int, gcd_period: int, t_min: int):
    """(F_{m,1}, G_m) of the pair (p1(t), p2(t)) as quasi-polynomials.

    For coprime a, b, Popoviciu's formula gives h(k + ab) = h(k) + 1 with h
    in {0, 1} on [0, ab), hence F_{m,1}(a, b) = m*ab - a - b and G_m(a, b)
    = (m-1)*ab + (a-1)(b-1)/2 - [m >= 2]. With g(t) = gcd(p1(t), p2(t)),
    constant on each class mod ``gcd_period`` (read at the class's first t
    from ``t_min``), a = p1/g and b = p2/g: F scales by g, and G counts the
    multiples of g, so it does not.
    """
    f_comps, g_comps = [], []
    for r in range(gcd_period):
        t = t_min + (r - t_min) % gcd_period
        g = gcd(p1(t), p2(t))
        a, b = p1 * Fraction(1, g), p2 * Fraction(1, g)
        f_comps.append((a * b * m - a - b) * g)
        g_comps.append(a * b * (m - 1) + (a - 1) * (b - 1) * Fraction(1, 2)
                       - (1 if m >= 2 else 0))
    return (QuasiPolynomial(tuple(f_comps), t_min - 1),
            QuasiPolynomial(tuple(g_comps), t_min - 1))


def roberts_closed_form(s: int) -> QuasiPolynomial:
    """F(t, t+1, ..., t+s) = (floor((t-2)/s) + 1)*t - 1 (Roberts, Proc. AMS
    7, 1956, with a = t and d = 1), period s.

    On the class t = r (mod s), floor((t-2)/s) = (t - c)/s with c = 2 +
    ((r-2) mod s).
    """
    comps = []
    for r in range(s):
        c = 2 + (r - 2) % s
        comps.append(Poly((-1, 1 - Fraction(c, s), Fraction(1, s))))
    return QuasiPolynomial(tuple(comps), 1)
