"""From polynomial families to Frobenius series and exclusion problems.

A family is a tuple of integer-valued, eventually-positive polynomials
together with the multiplicity bound m and rank l. ``PolyFamily.coins(t)``
gives its entries at a t where all are positive, as its answers need, and
``PolyFamily.answers`` is the direct path from them. This module derives
from Schur's bound the exponent r of a box [0, t^r) that eventually holds
all answers, constructs the equivalent projection-exclusion problem, and
checks it against the direct path at each t: on that t's entries divided
by their gcd g, in the smallest box that the construction proves holds
their answers. F_{m,l} of the entries is g times that of the quotients,
and G_m of both is the same.
"""

from . import frobenius
from .errors import DEFAULT_POINT_CAP, InputError, ResourceLimitError, frozen
from .frobenius import Coins
from .qpoly import Poly, eventually_positive


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


def _eventual_order(p: Poly) -> tuple:  # given a positive leading coeff
    return p.degree, p.coeffs[::-1]


def window_bound_poly(fam: PolyFamily) -> Poly:
    """l + frobenius.window_end over the entries in eventual order.

    It bounds l + F_{m,l}(t) at every t where the entries are positive with
    gcd 1 and their concrete order matches the eventual one.
    """
    ordered = sorted(fam.polys, key=_eventual_order)
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
    equality k - sum b_i P_i(t) = l and the box edge k <= t^r + P(t) - 1,
    P the eventually smallest entry. The kept coordinate k runs over l plus
    the integers representable in each multiplicity. Fibers of size below
    m survive, so the l-th largest surviving k is l plus the family's l-th
    answer once the box holds l plus every answer. The box proves that
    itself: as h(k + P(t)) >= h(k), its largest surviving k lies below t^r
    exactly when l + F_{m,1}(t) does. box_exponent gives one r where it
    eventually does.
    """
    from . import pilp  # here, so that `series` does not load the engine

    n = len(fam.polys)
    one = Poly.constant(1)
    box_edge = pilp.Row((one,) + (Poly(),) * n, pilp.LE,
                        Poly.variable() ** r
                        + min(fam.polys, key=_eventual_order) - one)
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
    r: int | None = None  # r_t if checked, else the last r tried, if any

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

    Each row takes its direct columns from ``fam.answers(t)``. It runs the
    exclusion construction on that t's entries divided by their gcd g, as
    constants, from the smallest r with t^r above l plus their l-th answer,
    and grows r until the box proves that it holds l plus every answer
    (see frobenius_to_exclusion). That r is r_t, the smallest exact box; at
    small t it may lie above box_exponent, which holds only eventually.
    Rows are SKIPPED (with the reason) where an entry is nonpositive, the
    residue table hits its limit, t < 2 and no box t^1 holds the answers,
    or the enumeration hits the point cap: the work meter alone decides
    that, and a box too large for the cap trips it on sys2's one leaf run,
    before sys1 is searched.
    """
    if t_min > t_max:
        raise InputError("empty t range")
    from . import pilp

    def skipped(t, note, r=None):
        return CrosscheckRow(t, None, None, None, None, note, r)

    def row(t):
        try:
            f_direct, g_direct = fam.answers(t)
        except InputError:
            return skipped(t, "entry not positive")
        except ResourceLimitError as exc:
            return skipped(t, str(exc))
        g = (coins := fam.coins(t)).g
        reduced = PolyFamily(tuple(Poly.constant(a // g) for a in coins.a),
                             fam.m, fam.l)
        r = 1
        while t >= 2 and fam.l + f_direct // g >= t**r:
            r += 1
        # No power of t grows at t < 2: there t^1 is the one try.
        while t >= 2 or (r == 1 and fam.l + f_direct // g < t):
            try:
                feasible, top = pilp.exclusion_profile(
                    frobenius_to_exclusion(reduced, r), t, fam.l, point_cap)
            except ResourceLimitError:
                return skipped(t, "enumeration exceeded the point cap", r)
            if top[0] < t**r:  # proven; keys below l are kept: l values
                return CrosscheckRow(t, g * (top[fam.l - 1] - fam.l),
                                     f_direct, len(feasible),
                                     g_direct + fam.l, r=r)
            r += 1
        return skipped(t, "no box t^r holds the answers at t < 2")

    return CrosscheckReport(tuple(row(t) for t in range(t_min, t_max + 1)))
