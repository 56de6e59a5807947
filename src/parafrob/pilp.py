"""Desk-scale semantics for parametric integer linear constraint systems.

A system is instantiated at a concrete integer parameter t, its integer
points are enumerated exactly (interval bound propagation followed by
depth-first search), and counting / ranking / projection-exclusion
questions are answered from one enumeration per system: enumerate_lattice
gives the points, lattice_profile the size and the l largest objective
values (l = None for the size alone), and exclusion_profile the feasible
set of an exclusion problem with its l largest values, its sys1 searched
by a projection or a fiber search, whichever its box bounds smaller. This
is the engine behind the pilp and crosscheck commands.
"""

from heapq import heappush, heapreplace
from itertools import accumulate, compress, product, repeat
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
    """Constraint rows over n integer variables with per-variable >=0 flags."""

    n: int
    rows: tuple
    nonneg: tuple

    def __post_init__(self):
        if self.n < 1:
            raise InputError("need at least one variable")
        if len(self.nonneg) != self.n:
            raise InputError("one nonneg flag per variable required")
        for row in self.rows:
            if len(row.coeffs) != self.n:
                raise InputError("row width must match variable count")


def _int_value(p: Poly, t: int) -> int:
    v = p(t)
    if not isinstance(v, int):
        raise InputError("non-integer instantiation; t must be an integer")
    return v


def _instantiate(sys: ParametricConstraintSystem, t: int):
    return [
        (tuple(_int_value(c, t) for c in row.coeffs), row.sense, _int_value(row.rhs, t))
        for row in sys.rows
    ]


def _propagate(rows, nonneg, n):
    """Iterated single-row interval tightening to a fixpoint.

    Returns (lo, hi) integer bound lists, or None when a contradiction
    proves the region empty. Raises InputError when some coordinate still
    has no finite bound after MAX_SWEEPS sweeps.
    """
    lo = [0 if nonneg[i] else None for i in range(n)]
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


def propagated_box(sys: ParametricConstraintSystem, t: int):
    """The (lo, hi) box the propagation derives at t; None if proven empty."""
    return _propagate(_instantiate(sys, t), sys.nonneg, sys.n)


def _search_order(lo, hi, n2=0):
    """Static variable order for the search: smallest range first, except
    that coordinates 0..n2-1 (the kept block of a fiber search) come first.

    Output order does not depend on this (points are re-sorted); it only
    controls how early equality rows pin their last free variable.
    """
    return sorted(range(len(lo)), key=lambda i: (i >= n2, hi[i] - lo[i], i))


def _leaf(rows, order, n2):
    """The level where a search in this order stops: the second-last when
    an equality is the only row on the last coordinate, unless kept."""
    on_last = [sense for coeffs, sense, _ in rows if coeffs[order[-1]]]
    n = len(order)
    return n - 2 if n - 2 >= n2 and on_last == [EQ] else n - 1


def _iter_points(rows, lo, hi, visit, point_cap, fiber=None, project=None):
    """Depth-first enumeration over the propagated box of the lattice
    points satisfying all rows. They come in leaf runs, arithmetic
    progressions along the last search level: visit(first, step, length)
    gets the points first + k * step for k = 0..length-1 at once, step
    being the same tuple for every run. Returns the work done.

    The last level is never searched: once every other coordinate is set,
    the tightened range of the last one is exact, so all its values are
    points. When the only row on the last coordinate is an equality, the
    last two levels collapse together: the points are the values of the
    second-last coordinate in one residue class, each fixing the last, so
    a run steps both coordinates.

    With fiber = (n2, m) it calls visit(key) instead, once per key of
    coordinates 0..n2-1 with at least m points above it. Where B, the
    product of the ranges above the leaf in the default order, is at most
    K, the number of keys in the box, the projection searches in that
    order and credits each leaf run in O(1) to a difference array over
    the flattened keys, chained by the run step. Otherwise the fiber
    search takes the kept block first and stops each key at m points.
    project = True or False forces one pass.

    point_cap bounds the work: search nodes entered below the root plus
    points taken; the projection counts K, before it allocates the
    counts, then search nodes plus leaf runs.
    """
    n = len(lo)
    # A <= row that holds at every corner of the box never tightens.
    rows = [(coeffs, sense, rhs) for coeffs, sense, rhs in rows
            if sense == EQ or rhs < sum(c * (hi[v] if c > 0 else lo[v])
                                        for v, c in enumerate(coeffs))]
    n2, m, keys = 0, None, 0  # fiber search: kept block, stop; projection: K
    order = _search_order(lo, hi)
    leaf = _leaf(rows, order, 0)
    if fiber:
        kept, least = fiber
        width = [h - l + 1 for l, h in zip(lo, hi)]
        keys = prod(width[:kept])
        if project is None:
            project = prod(width[v] for v in order[:leaf]) <= keys
        if not project:
            keys, n2, m = 0, kept, least
            order = _search_order(lo, hi, n2)
            leaf = _leaf(rows, order, n2)

    # Per-row data in search order: coefficients, suffix min/max of the
    # still-unassigned terms, running partial sums.
    coeffs = [[row[0][v] for v in order] for row in rows]
    senses = [row[1] for row in rows]
    rhss = [row[2] for row in rows]
    nrows = len(rows)
    sufmin = []
    sufmax = []
    for r in range(nrows):
        mins = [0] * (n + 1)
        maxs = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            c = coeffs[r][i]
            v = order[i]
            cmin = c * lo[v] if c >= 0 else c * hi[v]
            cmax = c * hi[v] if c >= 0 else c * lo[v]
            mins[i] = mins[i + 1] + cmin
            maxs[i] = maxs[i + 1] + cmax
        if mins[0] > rhss[r] or senses[r] == EQ and maxs[0] < rhss[r]:
            return 0  # broken at the root: MAX_SWEEPS cut propagation short
        sufmin.append(mins)
        sufmax.append(maxs)
    # Per level, (row, coefficient) for the rows with a nonzero coefficient
    # there; any other row is still as satisfiable as its own last level
    # (or the box, before its first) left it.
    levels = [[(r, coeffs[r][i]) for r in range(nrows) if coeffs[r][i]]
              for i in range(n)]

    # At a collapsed leaf the equality e, the only row on the last
    # coordinate y, reads ca * x + cb * y == s: the points are the x in the
    # tightened range with ca * x == s (mod cb), one residue class mod
    # stride, each with y = (s - ca * x) / cb. Along a run x steps by
    # stride and y by -ca * stride / cb.
    stride = 1
    run_step = [0] * n
    if leaf < n - 1:
        (e, cb), = levels[n - 1]
        ca = coeffs[e][n - 2]
        g = gcd(ca, cb)
        stride = abs(cb) // g
        inverse = pow(ca // g, -1, stride)
        y = order[n - 1]
        run_step[y] = -ca * stride // cb
    run_step[order[leaf]] = stride
    run_step = tuple(run_step)

    psum = [0] * nrows
    point = [0] * n
    work = 0
    found = 0  # points of the current fiber; stays 0 outside fiber mode

    def over_cap():
        counted = ("kept keys plus search nodes plus leaf runs" if keys
                   else "search nodes plus lattice points")
        return ResourceLimitError(
            f"search exceeded the point cap of {point_cap} ({counted})")

    if keys:
        work = keys
        if work > point_cap:
            raise over_cap()
        # Key k is cell sum_j (k_j - lo_j) * weight[j]. A run moves it by
        # `move` cells a point: it adds its length to one cell, or 1 to every
        # step-th cell from its lowest, x: +1 at x and -1 past its end.
        weight = [prod(width[j + 1:kept]) for j in range(kept)]
        offset = sum(map(mul, lo, weight))
        move = sum(map(mul, run_step, weight))
        step = abs(move)
        counts = [0] * keys
        full = visit  # gets the keys; the search's runs go to the counts

        def visit(first, _, length):
            x = (sum(map(mul, first, weight)) - offset
                 + min(move, 0) * (length - 1))
            counts[x] += 1 if move else length
            if move and x + length * step < keys:
                counts[x + length * step] -= 1

    def rec(i):
        nonlocal work, found
        v = order[i]
        lo_i, hi_i = lo[v], hi[v]
        on_level = levels[i]
        for r, c in on_level:
            slack = rhss[r] - psum[r]
            if c > 0:
                b = (slack - sufmin[r][i + 1]) // c
                if b < hi_i:
                    hi_i = b
                if senses[r] == EQ:
                    b = -((sufmax[r][i + 1] - slack) // c)
                    if b > lo_i:
                        lo_i = b
            else:
                b = -((slack - sufmin[r][i + 1]) // (-c))
                if b > lo_i:
                    lo_i = b
                if senses[r] == EQ:
                    b = (sufmax[r][i + 1] - slack) // (-c)
                    if b < hi_i:
                        hi_i = b
        if lo_i > hi_i:
            return
        if i == leaf:
            if i == n - 1:
                first = lo_i
            else:
                s = rhss[e] - psum[e]
                if s % g:
                    return
                first = lo_i + (s // g * inverse - lo_i) % stride
            if first > hi_i:
                return
            take = (hi_i - first) // stride + 1
            if m is not None:
                take = min(take, m - found)
                found += take
            work += 1 if keys else take
            if work > point_cap:
                raise over_cap()
            if m is None:
                point[v] = first
                if i < n - 1:
                    point[y] = (s - ca * first) // cb
                visit(tuple(point), run_step, take)
            return
        point[v] = lo_i
        for r, c in on_level:
            psum[r] += c * lo_i
        for value in range(lo_i, hi_i + 1):
            if value != lo_i:
                point[v] = value
                for r, c in on_level:
                    psum[r] += c
            work += 1
            if work > point_cap:
                raise over_cap()
            rec(i + 1)
            if i == n2 - 1:
                if found == m:
                    visit(tuple(point[:n2]))
                found = 0
            elif found == m:
                break
        for r, c in on_level:
            psum[r] -= c * point[v]

    rec(0)
    if keys:
        for r in range(min(step, keys)):  # a step of 0 or >= K chains nothing
            counts[r::step] = accumulate(counts[r::step])
        box = product(*(range(lo[j], hi[j] + 1) for j in range(kept)))
        for key in compress(box, map(least.__le__, counts)):
            full(key)  # the box in cell order, reaching m
    return work


def _stream(sys: ParametricConstraintSystem, t: int, visit, point_cap,
            fiber=None):
    rows = _instantiate(sys, t)
    box = _propagate(rows, sys.nonneg, sys.n)
    if box is None:
        return
    lo, hi = box
    _iter_points(rows, lo, hi, visit, point_cap, fiber)


def enumerate_lattice(sys: ParametricConstraintSystem, t: int,
                      point_cap: int = DEFAULT_POINT_CAP) -> tuple:
    """All integer points of the instantiated system, sorted.

    Raises InputError when propagation cannot bound every
    coordinate and ResourceLimitError once search nodes plus points pass
    point_cap.
    """
    points = []

    def collect(first, step, length):
        points.extend(zip(*(range(a, a + d * length, d) if d else repeat(a)
                            for a, d in zip(first, step))))

    _stream(sys, t, collect, point_cap)
    points.sort()
    return tuple(points)


class _Ranking:
    """Counts the points of the offered runs and keeps the l largest values
    of c . x over them, with multiplicity, in a min-heap of at most l
    values. l = None asks for the count only: no objective value is
    computed. An l above point_cap is refused before any search."""

    def __init__(self, c, t: int, l, point_cap):
        if l is not None and l < 1:
            raise InputError("l must be >= 1")
        if l is not None and l > point_cap:
            raise ResourceLimitError(
                f"l exceeds the point cap of {point_cap}")
        self.l = l or 0
        self.c = [_int_value(p, t) for p in c] if l else ()
        self.heap = []
        self.size = 0

    def offer(self, first, step, length):
        """Take the run first + k * step, k = 0..length-1. The objective is
        linear along it, so its values are tried from the better end, at
        most l of them, until one cannot enter the heap."""
        self.size += length
        if not self.l:
            return
        value = sum(map(mul, self.c, first))
        slope = sum(map(mul, self.c, step))
        if slope > 0:
            value += (length - 1) * slope
            slope = -slope
        heap = self.heap
        for _ in range(min(length, self.l)):
            if len(heap) < self.l:
                heappush(heap, value)
            elif value > heap[0]:
                heapreplace(heap, value)
            else:
                break
            value += slope

    def top(self) -> tuple:
        """The kept values, largest first, padded with BOTTOM to length l."""
        top = sorted(self.heap, reverse=True)
        return tuple(top) + (BOTTOM,) * (self.l - len(top))


def lattice_profile(sys: ParametricConstraintSystem, t: int, c, l,
                    point_cap: int = DEFAULT_POINT_CAP):
    """(number of lattice points, the l largest objective values c . x).

    One enumeration. The values count multiplicity and are padded with
    BOTTOM past the last point; l = None returns () for them.
    """
    if l is not None and len(c) != sys.n:
        raise InputError("objective width must match variable count")
    ranking = _Ranking(c, t, l, point_cap)
    _stream(sys, t, ranking.offer, point_cap)
    return ranking.size, ranking.top()


@frozen
class ExclusionProblem:
    """Exclude from one lattice set the heavily-covered fibers of another.

    Variables of sys1 are ordered kept-block first: coordinates 1..n2 are
    the projection target, coordinates n2+1..n1+n2 are projected out. The
    feasible set at t consists of the sys2 points whose fiber in the sys1
    points has fewer than m elements.
    """

    m: int
    n1: int
    n2: int
    sys1: ParametricConstraintSystem
    sys2: ParametricConstraintSystem
    c: tuple

    def __post_init__(self):
        if self.m < 1 or self.n1 < 1 or self.n2 < 1:
            raise InputError("m, n1, n2 must be >= 1")
        if self.sys1.n != self.n1 + self.n2:
            raise InputError("sys1 must have n1 + n2 variables")
        if self.sys2.n != self.n2:
            raise InputError("sys2 must have n2 variables")
        if len(self.c) != self.n2:
            raise InputError("objective must have n2 entries")


def exclusion_profile(ex: ExclusionProblem, t: int, l,
                      point_cap: int = DEFAULT_POINT_CAP):
    """(the feasible set, the l largest objective values over it).

    The feasible set is the sorted tuple of the sys2 points whose sys1 fiber
    has fewer than m points. Each system is searched once: sys1 by the
    projection where its search above the leaf is no larger than its kept
    box, else by the fiber search (see _iter_points), and sys2 through
    enumerate_lattice. Each kept point is ranked as a one-point run, as in
    lattice_profile.
    """
    ranking = _Ranking(ex.c, t, l, point_cap)
    full = set()  # keys with at least m sys1 points above them
    _stream(ex.sys1, t, full.add, point_cap, (ex.n2, ex.m))
    points = enumerate_lattice(ex.sys2, t, point_cap)
    kept = tuple(pt for pt in points if pt not in full)
    no_step = (0,) * ex.n2
    for pt in kept:
        ranking.offer(pt, no_step, 1)
    return kept, ranking.top()
