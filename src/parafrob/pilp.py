"""Desk-scale semantics for parametric integer linear constraint systems.

A system holds its rows, a >= 0 flag per variable and its objective,
every entry an integer-valued polynomial in t, checked once when built.
It is instantiated at a concrete integer parameter t, its integer points
are enumerated exactly (interval bound propagation followed by
depth-first search), and counting / ranking / projection-exclusion
questions are answered from one stream of leaf runs per system:
lattice_profile gives the size and the l largest values of the system's
objective (l = None for the size alone), and exclusion_profile the
feasible set of an exclusion problem (m, sys1, sys2) with the l largest
values of sys2's objective over it: its sys2 runs recorded first, then
sys1 searched by the projection where B <= K <= point cap, else by the
fiber search (see _iter_points), both filling one set of sys1's full
keys, at which the runs are cut. Each search is capped on its nodes plus
the work each leaf run's consumer reports. Propagation and search read
one row form, the halves _instantiate gives: coeffs . x <= rhs, an
equality as two such halves. This is the engine of pilp and crosscheck.
"""

from heapq import heappush, heapreplace
from itertools import accumulate, compress, groupby, product, repeat
from math import gcd, prod
from operator import mul

from .errors import DEFAULT_POINT_CAP, InputError, ResourceLimitError, frozen
from .qpoly import BOTTOM, Poly

LE = "<="
EQ = "=="

# Propagation sweeps before giving up on deriving finite bounds.
MAX_SWEEPS = 100


@frozen
class Row:
    """One constraint: coeffs . x  (<= or ==)  rhs, entries in Z[u]."""

    coeffs: tuple
    sense: str
    rhs: Poly

    def __post_init__(self):
        if self.sense not in (LE, EQ):
            raise InputError(f"sense must be {LE!r} or {EQ!r}")
        for p in self.coeffs + (self.rhs,):
            if not isinstance(p, Poly):
                raise InputError("row entries must be Poly")
            if not p.is_integer_valued():
                raise InputError("row entries must be integer-valued polynomials")


@frozen
class ParametricConstraintSystem:
    """Constraint rows over n = len(nonneg) integer variables, a >= 0 flag
    per variable, and the objective c . x: one integer-valued polynomial
    per variable, or c = () for none."""

    rows: tuple
    nonneg: tuple
    c: tuple = ()

    def __post_init__(self):
        if self.n < 1:
            raise InputError("need at least one variable")
        for row in self.rows:
            if len(row.coeffs) != self.n:
                raise InputError("row width must match variable count")
        if self.c and len(self.c) != self.n:
            raise InputError("objective width must match variable count")
        for p in self.c:
            if not (isinstance(p, Poly) and p.is_integer_valued()):
                raise InputError(
                    "objective entries must be integer-valued polynomials")

    @property
    def n(self) -> int:
        return len(self.nonneg)


def _instantiate(sys: ParametricConstraintSystem, t: int):
    """The rows at an integer t as halves: (coeffs, rhs) ints, each read
    coeffs . x <= rhs, an equality as the row itself and then its negation."""
    if not isinstance(t, int):
        raise InputError("t must be an integer")
    halves = []
    for row in sys.rows:
        coeffs, rhs = tuple(c(t) for c in row.coeffs), row.rhs(t)
        halves.append((coeffs, rhs))
        if row.sense == EQ:
            halves.append((tuple(-c for c in coeffs), -rhs))
    return halves


def _propagate(rows, nonneg):
    """Iterated single-row interval tightening to a fixpoint.

    Each row, a half as _instantiate gives it, is read as terms . x <= rhs
    over its nonzero terms (k, c). Its slack is rhs less the least values
    of its terms bounded below. With two terms unbounded below the row
    says nothing; with one, that term is at most the slack; with none, each
    term is at most the slack plus its least value, and a negative slack (a
    row with no terms and rhs < 0, say) proves the region empty.

    Returns (lo, hi) integer bound lists, None when the region is proven
    empty; raises InputError if a coordinate is unbounded after MAX_SWEEPS.
    """
    lo = [0 if flag else None for flag in nonneg]
    hi = [None] * len(nonneg)
    les = [([(k, c) for k, c in enumerate(coeffs) if c], rhs)
           for coeffs, rhs in rows]

    for _ in range(MAX_SWEEPS):
        box = lo + hi
        for terms, slack in les:
            free = None
            for k, c in terms:
                least = lo[k] if c > 0 else hi[k]
                if least is not None:
                    slack -= c * least
                elif free:
                    break
                else:
                    free = [(k, c)]
            else:
                if not free and slack < 0:
                    return None
                for k, c in free or terms:
                    room = slack if free else slack + c * (
                        lo[k] if c > 0 else hi[k])
                    if c > 0 and (hi[k] is None or room // c < hi[k]):
                        hi[k] = room // c
                    elif c < 0 and (lo[k] is None or -(room // -c) > lo[k]):
                        lo[k] = -(room // -c)
        if lo + hi == box:
            break

    missing = [i for i, bounds in enumerate(zip(lo, hi)) if None in bounds]
    if missing:
        raise InputError("no finite bounds derivable for coordinate(s) "
                         f"{missing}")
    return lo, hi


def propagated_box(sys: ParametricConstraintSystem, t: int):
    """The (lo, hi) box the propagation derives at t; None if proven empty."""
    return _propagate(_instantiate(sys, t), sys.nonneg)


def _plan(rows, lo, hi, n2=0):
    """(order, leaf) of a search: its static variable order, smallest range
    first except that coordinates 0..n2-1 (the kept block of a fiber search)
    come first, and the level where it stops. Output order does not depend
    on the order (points are re-sorted); it only controls how early equality
    rows pin their last free variable. The leaf is the second-last level when
    an equality's two halves alone reach the last coordinate, unless kept."""
    order = sorted(range(len(lo)), key=lambda i: (i >= n2, hi[i] - lo[i], i))
    on_last = [half for half in rows if half[0][order[-1]]]
    n = len(order)
    equality = len(on_last) == 2 and on_last[1] == (
        tuple(-c for c in on_last[0][0]), -on_last[0][1])
    return order, n - 2 if n - 2 >= n2 and equality else n - 1


def _iter_points(rows, lo, hi, visit, point_cap, fiber=None, project=None):
    """Depth-first enumeration over the propagated box of the lattice
    points satisfying all rows. They come in leaf runs, arithmetic
    progressions along the last search level: visit(first, step, length)
    gets the points first + k * step, k = 0..length-1, with one step for
    all runs, and returns its work on them (>= 1). Returns the total work.

    The last level is never searched: once every other coordinate is set,
    the tightened range of the last one is exact, so all its values are
    points. When the only halves on the last coordinate are an equality's,
    the last two levels collapse together: the points are the values of
    the second-last coordinate in one residue class, each fixing the last,
    so a run steps both coordinates.

    With fiber = (n2, m, full) visit is None and not called: either pass
    adds to the set full each key of coordinates 0..n2-1 with at least m
    points above it. Where B, the product of the ranges above the leaf in
    the default order, is at most K, the number of keys in the box, and K
    fits the point cap, the projection searches in that order, credits
    each leaf run in O(1) to a difference array over the flattened keys,
    chained by the run step, and adds the full keys in one update.
    Otherwise the fiber search takes the kept block first and stops each
    key at m points. project = True or False forces one pass.

    point_cap bounds the work: search nodes entered below the root plus,
    per leaf run, what visit returns (1 in the projection), or 1 at a
    fiber-search leaf. After its search the projection scans all K cells,
    accumulating each chain and testing every key, uncharged: K <=
    point_cap is what bounds that scan.
    """
    n = len(lo)
    # A half from _instantiate that holds at every corner never tightens.
    rows = [(coeffs, rhs) for coeffs, rhs in rows
            if rhs < sum(c * (hi[v] if c > 0 else lo[v])
                         for v, c in enumerate(coeffs))]
    n2, m, keys = 0, None, 0  # fiber search: kept block, stop; projection: K
    order, leaf = _plan(rows, lo, hi)
    if fiber:
        kept, least, full = fiber
        width = [h - l + 1 for l, h in zip(lo, hi)]
        keys = prod(width[:kept])
        if project is None:
            project = prod(width[v] for v in order[:leaf]) <= keys <= point_cap
        if not project:
            keys, n2, m = 0, kept, least
            order, leaf = _plan(rows, lo, hi, n2)

    # Per level, (half, coefficient, room) for the halves with a nonzero
    # coefficient there: room is the half's rhs less the least value of its
    # later terms over the box, so the level's term is at most room less
    # the half's partial sum. Any other half is as satisfiable as its own
    # last level (or the box, before its first) left it.
    levels = [[] for _ in range(n)]
    for r, (coeffs, room) in enumerate(rows):
        for i in range(n - 1, -1, -1):
            v = order[i]
            c = coeffs[v]
            if c:
                levels[i].append((r, c, room))
                room -= c * (lo[v] if c > 0 else hi[v])
        if room < 0:
            return 0  # broken at the root: MAX_SWEEPS cut propagation short

    # At a collapsed leaf the equality's first half e, whose negation is
    # the only other half on the last coordinate y, reads ca * x + cb * y
    # == s: the points are the x in the tightened range with ca * x == s
    # (mod cb), one residue class mod stride, each with y = (s - ca * x) /
    # cb. Along a run x steps by stride and y by -ca * stride / cb.
    stride = 1
    run_step = [0] * n
    if leaf < n - 1:
        e, cb, rhs = levels[n - 1][0]
        ca = rows[e][0][order[n - 2]]
        g = gcd(ca, cb)
        stride = abs(cb) // g
        inverse = pow(ca // g, -1, stride)
        y = order[n - 1]
        run_step[y] = -ca * stride // cb
    run_step[order[leaf]] = stride
    run_step = tuple(run_step)

    psum = [0] * len(rows)
    point = [0] * n
    work = 0
    found = 0  # points of the current fiber; stays 0 outside fiber mode

    over_cap = (f"search exceeded the point cap of {point_cap} "
                "(search nodes plus the work of each leaf run)")

    if keys:
        # Key k is cell sum_j (k_j - lo_j) * weight[j]. A run moves it by
        # `move` cells a point: it adds its length to one cell, or 1 to every
        # step-th cell from its lowest, x: +1 at x and -1 past its end.
        weight = [prod(width[j + 1:kept]) for j in range(kept)]
        offset = sum(map(mul, lo, weight))
        move = sum(map(mul, run_step, weight))
        step = abs(move)
        counts = [0] * keys

        def visit(first, _, length):
            x = (sum(map(mul, first, weight)) - offset
                 + min(move, 0) * (length - 1))
            counts[x] += 1 if move else length
            if move and x + length * step < keys:
                counts[x + length * step] -= 1
            return 1

    def rec(i):
        nonlocal work, found
        v = order[i]
        lo_i, hi_i = lo[v], hi[v]
        on_level = levels[i]
        for r, c, room in on_level:
            if c > 0:
                b = (room - psum[r]) // c
                if b < hi_i:
                    hi_i = b
            else:
                b = -((room - psum[r]) // -c)
                if b > lo_i:
                    lo_i = b
        if lo_i > hi_i:
            return
        if i == leaf:
            if i == n - 1:
                first = lo_i
            else:
                s = rhs - psum[e]
                if s % g:
                    return
                first = lo_i + (s // g * inverse - lo_i) % stride
            if first > hi_i:
                return
            take = (hi_i - first) // stride + 1
            if m is not None:
                found = min(found + take, m)
                work += 1
            else:
                point[v] = first
                if i < n - 1:
                    point[y] = (s - ca * first) // cb
                work += visit(tuple(point), run_step, take)
            if work > point_cap:
                raise ResourceLimitError(over_cap)
            return
        point[v] = lo_i
        for r, c, _ in on_level:
            psum[r] += c * lo_i
        for value in range(lo_i, hi_i + 1):
            if value != lo_i:
                point[v] = value
                for r, c, _ in on_level:
                    psum[r] += c
            work += 1
            if work > point_cap:
                raise ResourceLimitError(over_cap)
            rec(i + 1)
            if i == n2 - 1:
                if found == m:
                    full.add(tuple(point[:n2]))
                found = 0
            elif found == m:
                break
        for r, c, _ in on_level:
            psum[r] -= c * point[v]

    rec(0)
    if keys:
        for r in range(min(step, keys)):  # a step of 0 or >= K chains nothing
            counts[r::step] = accumulate(counts[r::step])
        box = product(*(range(lo[j], hi[j] + 1) for j in range(kept)))
        full.update(compress(box, map(least.__le__, counts)))
    return work


def _stream(sys: ParametricConstraintSystem, t: int, visit, point_cap,
            fiber=None):
    rows = _instantiate(sys, t)
    box = _propagate(rows, sys.nonneg)
    if box is not None:
        _iter_points(rows, *box, visit, point_cap, fiber)


class _Ranking:
    """Counts the points of the offered runs and keeps the l largest values
    of c . x over them, with multiplicity, in a min-heap of at most l
    values. l = None asks for the count only: no objective value is
    computed. An l above point_cap, or with no objective, is refused
    before any search."""

    def __init__(self, c, t: int, l, point_cap):
        if l is not None and l < 1:
            raise InputError("l must be >= 1")
        if l is not None and l > point_cap:
            raise ResourceLimitError(
                f"l exceeds the point cap of {point_cap}")
        if l and not c:
            raise InputError("ranking needs an objective")
        self.l = l or 0
        self.c = [p(t) for p in c] if l else ()
        self.heap = []
        self.size = 0

    def offer(self, first, step, length):
        """Take the run first + k * step, k = 0..length-1. c . x is linear
        along it, so its values are tried from the better end, at most l,
        until one cannot enter the heap. Returns how many, 1 if counting."""
        self.size += length
        if not self.l:
            return 1
        value = sum(map(mul, self.c, first))
        slope = sum(map(mul, self.c, step))
        if slope > 0:
            value += (length - 1) * slope
            slope = -slope
        heap = self.heap
        for tried in range(1, min(length, self.l) + 1):
            if len(heap) < self.l:
                heappush(heap, value)
            elif value > heap[0]:
                heapreplace(heap, value)
            else:
                break
            value += slope
        return tried

    def top(self) -> tuple:
        """The kept values, largest first, padded with BOTTOM to length l."""
        top = sorted(self.heap, reverse=True)
        return tuple(top) + (BOTTOM,) * (self.l - len(top))


def lattice_profile(sys: ParametricConstraintSystem, t: int, l,
                    point_cap: int = DEFAULT_POINT_CAP):
    """(number of lattice points, the l largest values of sys's objective).

    One enumeration. The values count multiplicity and are padded with
    BOTTOM past the last point; l = None returns () for them and needs no
    objective.
    """
    ranking = _Ranking(sys.c, t, l, point_cap)
    _stream(sys, t, ranking.offer, point_cap)
    return ranking.size, ranking.top()


@frozen
class ExclusionProblem:
    """Exclude from one lattice set the heavily-covered fibers of another.

    Variables of sys1 are ordered kept-block first: its first sys2.n
    coordinates are the projection target, the rest are projected out. The
    feasible set at t consists of the sys2 points whose fiber in the sys1
    points has fewer than m elements; it is ranked by sys2's objective.
    """

    m: int
    sys1: ParametricConstraintSystem
    sys2: ParametricConstraintSystem

    def __post_init__(self):
        if self.m < 1:
            raise InputError("m must be >= 1")
        if self.sys1.n <= self.sys2.n:
            raise InputError("sys1 must have more variables than sys2")


def exclusion_profile(ex: ExclusionProblem, t: int, l,
                      point_cap: int = DEFAULT_POINT_CAP):
    """(the feasible set, the l largest values of sys2's objective over it).

    The feasible set is the sorted tuple of the sys2 points whose sys1 fiber
    has fewer than m points. Each system is searched once. sys2 goes first,
    as in lattice_profile: its leaf runs are recorded, each charged its
    length, the points it will build, so an oversized sys2 stops the search
    before sys1's. sys1 goes next, by the projection where its search above
    the leaf is no larger than its kept box and the box fits the point cap,
    else by the fiber search (see _iter_points). Each kept stretch of a
    recorded run, cut at the keys of sys1's full fibers, is ranked as one
    run.
    """
    ranking = _Ranking(ex.sys2.c, t, l, point_cap)
    runs = []

    def record(first, step, length):
        runs.append((first, step, length))
        return length

    _stream(ex.sys2, t, record, point_cap)
    full = set()  # keys with at least m sys1 points above them
    _stream(ex.sys1, t, None, point_cap, (ex.sys2.n, ex.m, full))
    kept = []
    for first, step, length in runs:
        points = zip(*(range(a, a + d * length, d) if d else repeat(a, length)
                       for a, d in zip(first, step)))
        for excluded, stretch in groupby(points, full.__contains__):
            if not excluded:
                stretch = list(stretch)
                kept.extend(stretch)
                ranking.offer(stretch[0], step, len(stretch))
    kept.sort()
    return tuple(kept), ranking.top()
