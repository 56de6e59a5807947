"""Test-side oracles.

enumerate_lattice lists the points of a system's leaf runs, for tests that
check the search point by point; propagate_reference is the earlier bound
propagation, the reference of pilp._propagate. rep_count_table counts
representations by the capped coin DP, and dp_answers reads F_{m,l} and
G_m off it: the residue table's oracle. frobenius_genus_3 gives F and G of
three entries in O(log a) steps, for fits checked far past any table.
positivity_start finds where a family's entries stay positive by a scan,
for tests that sample from there, and direct_series samples its answers
over a t range. The rest share no code with the fitter:
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
from parafrob.pilp import EQ, MAX_SWEEPS
from parafrob.qpoly import Poly, QuasiPolynomial, SampleSeries
from windows import qualifying_bound


def enumerate_lattice(sys, t: int, point_cap: int = DEFAULT_POINT_CAP) -> tuple:
    """All integer points of the instantiated system, sorted.

    Raises InputError when propagation cannot bound every coordinate and
    ResourceLimitError once search nodes plus points pass point_cap: the
    collector builds each point of a run, so its work is the run length.
    """
    points = []

    def collect(first, step, length):
        points.extend(zip(*(range(a, a + d * length, d) if d else repeat(a)
                            for a, d in zip(first, step))))
        return length

    pilp._stream(sys, t, collect, point_cap)
    points.sort()
    return tuple(points)


def propagate_reference(rows, nonneg):
    """Iterated single-row interval tightening to a fixpoint: the reference
    of pilp._propagate, kept as it was before rows were read as sparse <=
    rows.

    Returns (lo, hi) integer bound lists, or None when a contradiction
    proves the region empty. Raises InputError when some coordinate still
    has no finite bound after MAX_SWEEPS sweeps.
    """
    n = len(nonneg)
    lo = [0 if flag else None for flag in nonneg]
    hi = [None] * n

    les = []
    for coeffs, sense, rhs in rows:
        if all(c == 0 for c in coeffs):
            if rhs < 0 or (sense == EQ and rhs != 0):
                return None
            continue
        les.append((coeffs, rhs))
        if sense == EQ:
            les.append((tuple(-c for c in coeffs), -rhs))

    for _ in range(MAX_SWEEPS):
        changed = False
        for coeffs, rhs in les:
            # Minimum possible value of each term, None when unbounded below.
            mins = []
            total = 0
            infinite = 0
            for k, c in enumerate(coeffs):
                if c == 0:
                    mins.append(0)
                    continue
                bound = lo[k] if c > 0 else hi[k]
                if bound is None:
                    mins.append(None)
                    infinite += 1
                else:
                    mins.append(c * bound)
                    total += c * bound
            for j, c in enumerate(coeffs):
                if c == 0:
                    continue
                others_infinite = infinite - (1 if mins[j] is None else 0)
                if others_infinite:
                    continue
                rest = total - (mins[j] if mins[j] is not None else 0)
                slack = rhs - rest
                if c > 0:
                    new_hi = slack // c
                    if hi[j] is None or new_hi < hi[j]:
                        hi[j] = new_hi
                        changed = True
                else:
                    new_lo = -(slack // (-c))
                    if lo[j] is None or new_lo > lo[j]:
                        lo[j] = new_lo
                        changed = True
                if lo[j] is not None and hi[j] is not None and lo[j] > hi[j]:
                    return None
        if not changed:
            break

    missing = [i for i in range(n) if lo[i] is None or hi[i] is None]
    if missing:
        raise InputError(
            f"no finite bounds derivable for coordinate(s) {missing}"
        )
    return lo, hi


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


def dp_answers(coins, m):
    """(F_{m,l} as a function of l, G_m, the number of nonnegative
    qualifiers) from one capped DP over the qualifying_bound window."""
    g = coins.g
    bound = max(qualifying_bound(coins, m) // g, 0)
    counts = rep_count_table(Coins(e // g for e in coins.a), bound, cap=m)
    qualifying = [k for k in range(bound, -1, -1) if counts[k] < m]

    def f(l):
        if l <= len(qualifying):
            return g * qualifying[l - 1]
        return -g * (l - len(qualifying))

    return f, sum(1 for k in qualifying if k > 0), len(qualifying)


def frobenius_genus_3(a1: int, a2: int, a3: int) -> tuple:
    """(F, G) of three positive entries with gcd 1, in O(log a) steps.

    Entries that share a factor d are first divided by it (Johnson):
    F = d*F(a/d, b/d, c) + (d-1)*c and G = d*G(a/d, b/d, c) + (d-1)(c-1)/2.
    For pairwise coprime entries, the ceiling Euclidean algorithm on a1
    and s0 = a3 * a2^-1 mod a1, s_{i+1} = q*s_i - s_{i-1} and p_{i+1} =
    q*p_i - p_{i-1} with q = ceil(s_{i-1}/s_i), from (s_{-1}, s_0) = (a1,
    s0) and (p_{-1}, p_0) = (0, 1), stops at the v with s_{v+1}/p_{v+1} <=
    a3/a2 < s_v/p_v. F is Rodseth's formula (J. reine angew. Math. 301,
    1978), -a1 + a2(s_v - 1) + a3(p_{v+1} - 1) - min(a2 s_{v+1}, a3 p_v):
    the largest element of the Apery set of a1, less a1. That set is the
    grid x*a2 + y*a3, x < s_v, y < p_{v+1}, without the corner x >= s_v -
    s_{v+1}, y >= p_{v+1} - p_v, and Selmer's formula gives G = (sum of the
    set)/a1 - (a1 - 1)/2. A run of quotients q = 2 moves s and p
    arithmetically, so it is taken in one jump.
    """
    a = (a1, a2, a3)
    if min(a) < 1 or gcd(*a) != 1:
        raise InputError("need three positive entries with gcd 1")
    if 1 in a:
        return -1, 0
    for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        d = gcd(a[i], a[j])
        if d > 1:
            f, g = frobenius_genus_3(a[i] // d, a[j] // d, a[k])
            return d * f + (d - 1) * a[k], d * g + (d - 1) * (a[k] - 1) // 2
    s_prev, p_prev, s, p = a1, 0, a3 * pow(a2, -1, a1) % a1, 1
    while a2 * s > a3 * p:
        q = -(-s_prev // s)
        if q == 2:
            ds, dp = s_prev - s, p - p_prev
            # Steps stay at q = 2 while s >= ds; stop at the first step
            # past the bracket, a2 * s <= a3 * p.
            j = min(s // ds, -(-(a2 * s - a3 * p) // (a2 * ds + a3 * dp)))
            s_prev, p_prev = s - (j - 1) * ds, p + (j - 1) * dp
            s, p = s - j * ds, p + j * dp
        else:
            s_prev, p_prev, s, p = s, p, q * s - s_prev, q * p - p_prev
    sv, pv, sw, pw = s_prev, p_prev, s, p

    def grid_sum(x0, x1, y0, y1):
        return (a2 * (y1 - y0) * ((x0 + x1 - 1) * (x1 - x0) // 2)
                + a3 * (x1 - x0) * ((y0 + y1 - 1) * (y1 - y0) // 2))

    apery = grid_sum(0, sv, 0, pw) - grid_sum(sv - sw, sv, pw - pv, pw)
    genus, rest = divmod(2 * apery - a1 * (a1 - 1), 2 * a1)
    assert rest == 0
    return -a1 + a2 * (sv - 1) + a3 * (pw - 1) - min(a2 * sw, a3 * pv), genus


def positivity_start(family) -> int:
    """Smallest t0 >= 1 with every entry of the family positive for all
    t >= t0, by a scan up to Cauchy's bound 1 + max |c_i| / lead, past
    which no entry has a root."""
    ceiling = max(ceil(1 + Fraction(max(map(abs, p.coeffs[:-1]), default=0))
                       / p.leading_coefficient) for p in family.polys)
    return 1 + max((t for t in range(1, ceiling + 1)
                    if any(p(t) <= 0 for p in family.polys)), default=0)


def direct_series(family, t_min: int, t_max: int) -> tuple:
    """The family's F_{m,l} and G_m series over t_min..t_max, one
    ``answers`` call per t."""
    answers = [family.answers(t) for t in range(t_min, t_max + 1)]
    return tuple(SampleSeries(t_min, values) for values in zip(*answers))


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
