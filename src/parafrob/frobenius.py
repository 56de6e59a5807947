"""Exact Frobenius-type quantities for concrete positive integer tuples.

h(k) counts the nonnegative integer tuples (b_1, ..., b_n) with
sum b_i * a_i = k (ordered tuples: duplicate denominations count
separately). F, G, F_{m,l} and G_m all come from one residue table per
tuple and m: apery_table(coins, m).frobenius(m, l) is F_{m,l}, its
.genus(m) is G_m, and m = l = 1 gives F and G, all from one count. The
capped coin DP that counts h(k) itself is the table's oracle in
tests/oracles.py.
window_end is the one bound past which every k has h(k) >= m; on Polys it
gives the box exponent of the reduction module.
"""

from heapq import heappop, heappush
from math import gcd
from operator import index

from .errors import InputError, ResourceLimitError, frozen

# A residue table with a*m*n above this aborts: a the smallest reduced entry.
APERY_LIMIT = 10**7
# The brute-force oracle refuses k above this.
EXACT_LIMIT = 10**4


@frozen
class Coins:
    """An ordered tuple a of n >= 2 positive integers; g is their gcd."""

    a: tuple

    def __post_init__(self):
        try:
            a = tuple(map(index, self.a))
        except TypeError:
            raise InputError("entries must be integers") from None
        if len(a) < 2:
            raise InputError("need at least two entries")
        if any(e <= 0 for e in a):
            raise InputError("entries must be strictly positive")
        object.__setattr__(self, "a", a)

    @property
    def g(self) -> int:
        return gcd(*self.a)


def rep_count_exact(coins: Coins, k: int) -> int:
    """Uncapped h(k) by recursive enumeration; the brute-force oracle.

    Only intended for small k: raises ResourceLimitError beyond EXACT_LIMIT.
    """
    if k > EXACT_LIMIT:
        raise ResourceLimitError(
            f"exact enumeration capped at k <= {EXACT_LIMIT}")
    if k < 0:
        return 0

    a = coins.a

    def count(i: int, rem: int) -> int:
        if i == len(a) - 1:
            return 1 if rem % a[i] == 0 else 0
        total = 0
        b = 0
        while b * a[i] <= rem:
            total += count(i + 1, rem - b * a[i])
            b += 1
        return total

    return count(0, k)


def window_end(s1, s2, x_max, m):
    """(m-1)*s1*s2 + (s1-1)*(x_max-1) - 1, on ints or on Polys.

    With gcd 1, s1 <= s2 the two smallest entries and x_max the largest,
    every k above this has h(k) >= m. The last two terms are Schur's bound
    on F (A. Brauer, "On a problem of partitions", Amer. J. Math. 64,
    1942): each residue mod s1 is reached within s1-1 steps of at most
    x_max each. The first is the exchange term: for k past the bound,
    k - (m-1)*s1*s2 is representable, and exchanging s1-coins for s2-coins
    m-1 times yields m distinct representations of k.
    """
    return (m - 1) * s1 * s2 + (s1 - 1) * (x_max - 1) - 1


@frozen
class AperyTable:
    """values[(j-1)*a + r] = w_r at level j: the least k = r (mod a) with
    h(k) >= j on the reduced tuple, j = 1..m, a the smallest reduced entry
    and g the tuple's gcd. As h(k + a) >= h(k), class r's qualifiers (h(k) <
    m) are its k < w_r; C(x) = sum of (w_r - x) // a over w_r > x counts
    those >= x >= 0."""

    g: int
    a: int
    values: tuple

    def _level(self, m: int) -> tuple:
        if not 1 <= m <= (levels := len(self.values) // self.a):
            raise InputError(f"the table answers m = 1..{levels}")
        return self.values[(m - 1) * self.a:m * self.a]

    def _count(self, w: tuple, x: int) -> int:
        return sum((w_r - x) // self.a for w_r in w if w_r > x)

    def frobenius(self, m: int, l: int) -> int:
        """F_{m,l}: the l-th largest multiple k of the gcd with h(k) < m.

        With C(0) >= l, the largest x with C(x) >= l: a bisection from
        max(0, W - a*l), where the class of W = max w_r holds l qualifiers,
        to W - a + 1, where C is 0. Every negative multiple qualifies (h = 0
        there) and 0 does exactly when m >= 2, so the answer is negative
        for C(0) < l, but never below -l * gcd; F = frobenius(1, 1) is -gcd
        when every nonnegative multiple of the gcd is representable.
        """
        if l < 1:
            raise InputError("l must be >= 1")
        w = self._level(m)
        if (nonnegative := self._count(w, 0)) < l:
            return -self.g * (l - nonnegative)
        lo, hi = max(0, max(w) - self.a * l), max(w) - self.a + 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if self._count(w, mid) >= l else (lo, mid)
        return self.g * lo

    def genus(self, m: int) -> int:
        """G_m = C(1): the number of positive multiples of the gcd with
        h(k) < m; G = genus(1)."""
        return self._count(self._level(m), 1)


def apery_table(coins: Coins, m: int) -> AperyTable:
    """Least k = r (mod a) with h(k) >= m' for each level m' <= m and class r
    mod the smallest reduced entry a: the m'-th smallest combination of the
    other entries in class r. A heap pops combinations in value order, each
    walk adding entries in nondecreasing index order, and expands a (class,
    last index) state at most m times, since m cheaper walks through it
    outdo any later one with the same continuation."""
    if m < 1:
        raise InputError("m must be >= 1")
    g = coins.g
    rest = sorted(e // g for e in coins.a)
    a = rest.pop(0)
    size = a * m * (len(rest) + 1)
    if size > APERY_LIMIT:
        raise ResourceLimitError(f"residue table a*m*n = {size} exceeds {APERY_LIMIT}")
    values = [0] * (a * m)
    found = [0] * a
    expanded = [0] * (a * len(rest))
    left = a * m
    heap = [(0, 0, 0)]
    while left:
        v, r, i = heappop(heap)
        state = r * len(rest) + i
        if expanded[state] == m:
            continue
        expanded[state] += 1
        if found[r] < m:
            values[found[r] * a + r] = v
            found[r] += 1
            left -= 1
        for j in range(i, len(rest)):
            heappush(heap, (v + rest[j], (r + rest[j]) % a, j))
    return AperyTable(g, a, tuple(values))
