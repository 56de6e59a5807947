"""From polynomial families to Frobenius series and exclusion problems.

A family is a tuple of integer-valued, eventually-positive polynomials
together with the multiplicity bound m and rank l. This module reduces a
family by its gcd along residue classes, derives from Schur's bound on the
Frobenius number the exponent r of a box [0, t^r) that eventually holds all
answers, constructs the equivalent projection-exclusion problem, and
cross-validates the two computation paths against each other, each t in
the smallest box that holds its answers.
"""

from math import gcd

from . import frobenius
from .eqpfit import SampleSeries
from .errors import DEFAULT_POINT_CAP, InputError, ResourceLimitError, frozen
from .frobenius import Coins
from .qpoly import BOTTOM, Poly, QuasiPolynomial, eventually_positive


@frozen
class PolyFamily:
    """n >= 2 integer-valued polynomials with positive leading coefficients,
    plus the multiplicity bound m and rank l."""

    polys: tuple
    m: int
    l: int

    def __post_init__(self):
        if len(self.polys) < 2:
            raise InputError("a family needs at least two polynomials")
        if self.m < 1 or self.l < 1:
            raise InputError("m and l must be >= 1")
        for p in self.polys:
            if not isinstance(p, Poly) or p.is_zero():
                raise InputError("family entries must be nonzero polynomials")
            if not p.is_integer_valued():
                raise InputError("family entries must be integer-valued")
            if not eventually_positive(p):
                raise InputError("family entries must be eventually positive")

    def values(self, t: int) -> tuple:
        return tuple(p(t) for p in self.polys)


def positivity_start(fam: PolyFamily) -> int:
    """Smallest t0 >= 1 with every family entry positive for all t >= t0."""
    start = 1
    for p in fam.polys:
        start = _positive_from(p, start)
    return start


def _positive_from(p: Poly, low: int) -> int:
    """Smallest t0 >= low with p(t) > 0 for all t >= t0; p's leading
    coefficient is positive.

    Exact: p increases strictly from s on, s the same start for its forward
    difference p(t+1) - p(t). If p(s) <= 0, bisection finds the first
    positive t in (s, 1 + ceil(B)], where B is the largest |c| / lead over
    p's negative coefficients c: by Cauchy's bound every positive root lies
    below 1 + B.
    Otherwise the scan runs down from s and stops at the first t with
    p(t) <= 0.
    """
    if p.degree < 1:
        return low
    s = _positive_from(p.compose(Poly((1, 1))) - p, low)
    if p(s) <= 0:
        negative = [-c for c in p.coeffs[:-1] if c < 0]
        lo, hi = s, -(-max(negative) // p.leading_coefficient) + 1
        while hi - lo > 1:  # p(lo) <= 0 < p(hi)
            mid = (lo + hi) // 2
            if p(mid) > 0:
                hi = mid
            else:
                lo = mid
        return hi
    while s > low and p(s - 1) > 0:
        s -= 1
    return s


def _check_range(fam: PolyFamily, t_min: int, t_max: int):
    if t_min > t_max:
        raise InputError("empty t range")
    t0 = positivity_start(fam)
    if t_min < t0:
        raise InputError(
            f"t range must start at or above the positivity start {t0}"
        )


def gcd_series(fam: PolyFamily, t_min: int, t_max: int) -> SampleSeries:
    """gcd(P_1(t), ..., P_n(t)) sampled on [t_min, t_max]."""
    _check_range(fam, t_min, t_max)
    return SampleSeries(
        t_min, tuple(gcd(*fam.values(t)) for t in range(t_min, t_max + 1))
    )


def reduce_by_gcd(fam: PolyFamily, gcd_fit: QuasiPolynomial,
                  residue: int) -> PolyFamily:
    """The family along t = residue + s*d, divided by the fitted gcd.

    d is the fitted period; the result is a family in the variable s whose
    entry gcd is eventually 1 along the class. Exact polynomial division
    with an integer-valued quotient is required; anything else means the
    fit was not the true gcd and raises InputError.
    """
    d = gcd_fit.period
    if not 0 <= residue < d:
        raise InputError("residue must lie in [0, period)")
    divisor = gcd_fit.components[residue]
    if divisor is BOTTOM:
        raise InputError("gcd fit has a -inf component; not a gcd")
    substitution = Poly((residue, d))  # t = residue + d*s
    divisor_s = divisor.compose(substitution)
    reduced = []
    for p in fam.polys:
        quo, rem = divmod(p.compose(substitution), divisor_s)
        if not rem.is_zero():
            raise InputError(
                "fitted gcd does not divide the family symbolically"
            )
        if not quo.is_integer_valued():
            raise InputError(
                "quotient is not integer-valued; fitted gcd too small"
            )
        reduced.append(quo)
    return PolyFamily(tuple(reduced), fam.m, fam.l)


def window_bound_poly(fam: PolyFamily) -> Poly:
    """l + frobenius.window_end over the entries in eventual order.

    It bounds l + F_{m,l}(t) at every t where the entries are positive with
    gcd 1 and their concrete order matches the eventual one.
    """
    # With positive leading coefficients this key is the eventual order.
    ordered = sorted(fam.polys, key=lambda p: (p.degree, p.coeffs[::-1]))
    return fam.l + frobenius.window_end(ordered[0], ordered[1], ordered[-1],
                                        fam.m)


def box_exponent(fam: PolyFamily) -> int:
    """Smallest r with the window bound eventually below t^r.

    Ties at equal degree resolve upward: t^r must strictly dominate the
    bound for large t. Intended for families whose entry gcd is eventually
    1 (reduce first).
    """
    bound = window_bound_poly(fam)
    r = 1
    while not eventually_positive(Poly.variable() ** r - bound):
        r += 1
    return r


def frobenius_to_exclusion(fam: PolyFamily, r: int) -> "pilp.ExclusionProblem":
    """The exclusion problem whose answers shift the family's by +l.

    Variables are (k, b_1, ..., b_n), all nonnegative, with two rows: the
    equality k - sum b_i P_i(t) = l and the box edge k <= t^r - 1. Where
    every entry is positive, the equality bounds each b_i by
    (t^r - 1 - l) / P_i(t). The kept coordinate k runs over l plus the
    integers representable in each multiplicity. Fibers of size below m
    survive, hence the l-th largest surviving k is l plus the family's
    l-th answer, valid exactly where l plus the largest answer, F_{m,1}(t)
    + l, stays below t^r. crosscheck picks the smallest such r at each t;
    box_exponent gives one r that holds eventually.
    """
    from . import pilp  # here, so that `series` does not load the engine

    n = len(fam.polys)
    one = Poly.constant(1)
    box_edge = pilp.Row((one,) + (Poly(),) * n, pilp.LE,
                        Poly.variable() ** r - one)
    equality = pilp.Row((one,) + tuple(-p for p in fam.polys), pilp.EQ,
                        Poly.constant(fam.l))
    sys1 = pilp.ParametricConstraintSystem(n + 1, (equality, box_edge),
                                           (True,) * (n + 1))
    sys2 = pilp.ParametricConstraintSystem(
        1, (pilp.Row((one,), pilp.LE, box_edge.rhs),), (True,)
    )
    return pilp.ExclusionProblem(fam.m, n, 1, sys1, sys2, (one,))


def direct_series(fam: PolyFamily, t_min: int, t_max: int):
    """(series of the l-th answers, series of the counts), computed directly.

    This is the oracle path: each t is handled independently by its own
    residue table, never via the exclusion construction.
    """
    _check_range(fam, t_min, t_max)
    f_vals = []
    g_vals = []
    for t in range(t_min, t_max + 1):
        table = frobenius.apery_table(Coins(fam.values(t)), fam.m)
        f_vals.append(table.frobenius(fam.m, fam.l))
        g_vals.append(table.genus(fam.m))
    return SampleSeries(t_min, tuple(f_vals)), SampleSeries(t_min, tuple(g_vals))


EQUAL = "EQUAL"
G_OFFSET = "G_OFFSET"  # f equal, g columns differ (reported, not adjusted)
DIFF = "DIFF"  # the l-th answers differ: hard failure
SKIPPED = "SKIPPED"


@frozen
class CrosscheckRow:
    """One t of the exclusion-path versus direct-path comparison.

    f columns both show the family's l-th answer (the exclusion value is
    shifted back by -l). g columns show the raw feasible-set size next to
    the direct count plus l, the quantity claimed equal to it; any gap
    between them is reported as-is, never adjusted away. (For m >= 2 the
    feasible set also contains the value 0, which the direct count does
    not, so a constant gap of 1 is the expected outcome there.)
    """

    t: int
    status: str
    f_exclusion: object  # l-th answer via exclusion, shifted by -l
    f_direct: int | None
    g_exclusion: int | None  # raw feasible-set size
    g_direct: int | None  # direct count plus l
    note: str = ""
    r: int | None = None  # the row's box is [0, t^r); None if none was chosen


@frozen
class CrosscheckReport:
    """The rows of one crosscheck; every total is read off them."""

    rows: tuple

    @property
    def checked(self) -> int:
        return sum(row.status != SKIPPED for row in self.rows)

    @property
    def f_all_equal(self) -> bool:
        return all(row.status != DIFF for row in self.rows)

    @property
    def g_offsets(self) -> tuple:
        """Sorted distinct g_exclusion - g_direct deltas of checked rows."""
        return tuple(sorted({row.g_exclusion - row.g_direct
                             for row in self.rows if row.status != SKIPPED}))

    @property
    def g_offset_constant(self) -> bool:
        return len(self.g_offsets) <= 1

    @property
    def ok(self) -> bool:
        return self.checked > 0 and self.f_all_equal and self.g_offset_constant


def crosscheck(fam: PolyFamily, t_min: int, t_max: int,
               point_cap: int = DEFAULT_POINT_CAP) -> CrosscheckReport:
    """Compare exclusion-path and direct-path answers on a t window.

    Each row reads l plus the largest answer, F_{m,1}(t) + l, from the
    direct path's residue table and runs the exclusion construction in the
    smallest box [0, t^r) that holds it, where the construction is exact;
    rows that share r share one construction. At small t that r may lie
    above box_exponent, which Schur's bound proves only eventually.
    Rows are SKIPPED (with the reason) where an entry is nonpositive, the
    entry gcd is not 1, the residue table hits its limit, t < 2 and no box
    t^1 holds the answer, the box is too large for the point cap, or the
    enumeration hits its limit.
    """
    from . import pilp

    if t_min > t_max:
        raise InputError("empty t range")
    problems = {}  # r -> frobenius_to_exclusion(fam, r)

    def skipped(t, note, r=None):
        return CrosscheckRow(t, SKIPPED, None, None, None, None, note, r)

    def row(t):
        values = fam.values(t)
        if any(v <= 0 for v in values):
            return skipped(t, "entry not positive")
        if gcd(*values) != 1:
            return skipped(t, "entry gcd is not 1")
        try:
            table = frobenius.apery_table(Coins(values), fam.m)
        except ResourceLimitError as exc:
            return skipped(t, str(exc))
        largest = table.frobenius(fam.m, 1) + fam.l
        r = 1
        while t >= 2 and largest >= t**r:
            r += 1
        if largest >= t**r:  # t < 2: no power of t grows, t^1 was the one try
            return skipped(t, f"no box t^r holds the largest answer plus l, "
                              f"{largest}, at t < 2")
        if t**r > point_cap:
            return skipped(t, f"box size t^{r} exceeds the point cap", r)
        if r not in problems:
            problems[r] = frobenius_to_exclusion(fam, r)
        try:
            feasible, top = pilp.exclusion_profile(problems[r], t, fam.l,
                                                   point_cap)
        except ResourceLimitError:
            return skipped(t, "enumeration exceeded the point cap", r)

        f_direct = table.frobenius(fam.m, fam.l)
        g_direct = table.genus(fam.m) + fam.l
        g_val = len(feasible)
        f_val = top[fam.l - 1]
        f_shifted = f_val - fam.l if f_val is not BOTTOM else BOTTOM
        if f_shifted != f_direct:
            status = DIFF
        elif g_val != g_direct:
            status = G_OFFSET
        else:
            status = EQUAL
        return CrosscheckRow(t, status, f_shifted, f_direct, g_val, g_direct,
                             r=r)

    return CrosscheckReport(tuple(row(t) for t in range(t_min, t_max + 1)))
