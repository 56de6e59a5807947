"""From polynomial families to Frobenius series and exclusion problems.

A family is a tuple of integer-valued, eventually-positive polynomials
together with the multiplicity bound m and rank l. ``PolyFamily.coins(t)``
gives its entries at a t where all are positive, as its answers need, and
both the direct path ``PolyFamily.answers`` and each crosscheck row start
from it. This module derives from Schur's bound on the Frobenius number
the exponent r of a box [0, t^r) that eventually holds all answers,
constructs the equivalent projection-exclusion problem, and
cross-validates the two paths against each other at each t: on that t's
entries divided by their gcd, in the smallest box that holds their
answers. F_{m,l} of the entries is their gcd times that of the quotients,
and G_m of both is the same.
"""

from . import frobenius
from .errors import DEFAULT_POINT_CAP, InputError, ResourceLimitError, frozen
from .frobenius import Coins
from .qpoly import BOTTOM, Poly, eventually_positive


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

    def coins(self, t: int) -> Coins:
        """The entries at t, where the answers exist: all positive. Where one
        is not, InputError names t and the entry before anything is built."""
        values = self.values(t)
        for i, v in enumerate(values, 1):
            if v <= 0:
                raise InputError(f"family entry {i} is not positive at "
                                 f"t = {t}")
        return Coins(values)

    def answers(self, t: int) -> tuple:
        """(F_{m,l}, G_m) at t, directly from its own residue table: the
        oracle path, never via the exclusion construction."""
        table = frobenius.apery_table(self.coins(t), self.m)
        return table.frobenius(self.m, self.l), table.genus(self.m)


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
    bound for large t. Intended for families whose entry gcd is
    eventually 1.
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
    sys1 = pilp.ParametricConstraintSystem((equality, box_edge),
                                           (True,) * (n + 1))
    sys2 = pilp.ParametricConstraintSystem(
        (pilp.Row((one,), pilp.LE, box_edge.rhs),), (True,), (one,))
    return pilp.ExclusionProblem(fam.m, sys1, sys2)


EQUAL = "EQUAL"
G_OFFSET = "G_OFFSET"  # f equal, g columns differ (reported, not adjusted)
DIFF = "DIFF"  # the l-th answers differ: hard failure
SKIPPED = "SKIPPED"


@frozen
class CrosscheckRow:
    """One t of the exclusion-path versus direct-path comparison.

    f columns both show the family's l-th answer (the exclusion value, on
    the entries divided by their gcd g, is shifted back by -l and scaled
    by g). g columns show the raw feasible-set size next to the direct
    count plus l, the quantity claimed equal to it; any gap between them
    is reported as-is, never adjusted away. (For m >= 2 the feasible set
    also contains the value 0, which the direct count does not, so a
    constant gap of 1 is the expected outcome there.)
    A row with no f_direct was skipped, and ``note`` says why.
    """

    t: int
    f_exclusion: object  # l-th answer via exclusion, shifted by -l, times g
    f_direct: int | None
    g_exclusion: int | None  # raw feasible-set size
    g_direct: int | None  # direct count plus l
    note: str = ""
    r: int | None = None  # the row's box is [0, t^r); None if none was chosen

    @property
    def status(self) -> str:
        """SKIPPED, DIFF, G_OFFSET or EQUAL, read off the columns."""
        if self.f_direct is None:
            return SKIPPED
        if self.f_exclusion != self.f_direct:
            return DIFF
        return G_OFFSET if self.g_exclusion != self.g_direct else EQUAL


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
    def ok(self) -> bool:
        """Some row checked, no DIFF, and at most one g offset."""
        return (self.checked > 0 and self.f_all_equal
                and len(self.g_offsets) <= 1)


def crosscheck(fam: PolyFamily, t_min: int, t_max: int,
               point_cap: int = DEFAULT_POINT_CAP) -> CrosscheckReport:
    """Compare exclusion-path and direct-path answers on a t window.

    Each row divides that t's entries by their gcd g and runs the exclusion
    construction on the quotients, as constants, in the smallest box
    [0, t^r) that holds l plus their largest answer, F_{m,1}(t) / g + l,
    read from the direct path's residue table; there the construction is
    exact, and g times its l-th answer is the family's. At small t that r
    may lie above box_exponent, which Schur's bound proves only eventually.
    Rows are SKIPPED (with the reason) where an entry is nonpositive, the
    residue table hits its limit, t < 2 and no box t^1 holds the answer,
    the box is too large for the point cap, or the enumeration hits its
    limit.
    """
    if t_min > t_max:
        raise InputError("empty t range")
    from . import pilp

    def skipped(t, note, r=None):
        return CrosscheckRow(t, None, None, None, None, note, r)

    def row(t):
        try:
            coins = fam.coins(t)
        except InputError:
            return skipped(t, "entry not positive")
        try:
            table = frobenius.apery_table(coins, fam.m)
        except ResourceLimitError as exc:
            return skipped(t, str(exc))
        g = coins.g
        largest = table.frobenius(fam.m, 1) // g + fam.l
        r = 1
        while t >= 2 and largest >= t**r:
            r += 1
        if largest >= t**r:  # t < 2: no power of t grows, t^1 was the one try
            return skipped(t, f"no box t^r holds the largest answer plus l, "
                              f"{largest}, at t < 2")
        if t**r > point_cap:
            return skipped(t, f"box size t^{r} exceeds the point cap", r)
        reduced = PolyFamily(tuple(Poly.constant(a // g) for a in coins.a),
                             fam.m, fam.l)
        try:
            feasible, top = pilp.exclusion_profile(
                frobenius_to_exclusion(reduced, r), t, fam.l, point_cap)
        except ResourceLimitError:
            return skipped(t, "enumeration exceeded the point cap", r)

        f_val = top[fam.l - 1]
        f_scaled = g * (f_val - fam.l) if f_val is not BOTTOM else BOTTOM
        return CrosscheckRow(t, f_scaled, table.frobenius(fam.m, fam.l),
                             len(feasible), table.genus(fam.m) + fam.l, r=r)

    return CrosscheckReport(tuple(row(t) for t in range(t_min, t_max + 1)))
