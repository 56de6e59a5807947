"""Reference answers computed without the code paths the benchmark times.

The Frobenius answers come from m-Apery sets: in each residue class r
modulo the smallest entry a1, h(k) >= m holds exactly for k >= w_r, where
w_r is the m-th smallest value (with multiplicity) of b2*a2 + ... + bn*an
in that class. The program instead fills a capped count table over a
window, so the two share no algorithm. Lattice counts and ranked
objectives come from column sums over the last coordinate, not from the
program's depth-first search.
"""

import heapq
from itertools import product
from math import gcd


def apery(coins, m):
    """[w_0, ..., w_{a1-1}]: the least k in each class mod a1 with h(k) >= m.

    Needs an entry coprime to the smallest one: with that entry alone every
    class already holds m values at most (m*a1 - 1)*a2, so enumerating the
    other entries' combinations up to that bound finds the m smallest.
    """
    a1 = min(coins)
    rest = list(coins)
    rest.remove(a1)
    partner = next((a for a in rest if gcd(a, a1) == 1), None)
    if partner is None:
        raise ValueError(f"no entry of {coins} is coprime to {a1}")
    limit = (m * a1 - 1) * partner
    classes = [[] for _ in range(a1)]

    def walk(i, total):
        if i == len(rest):
            classes[total % a1].append(total)
            return
        while total <= limit:
            walk(i + 1, total)
            total += rest[i]

    walk(0, 0)
    return [sorted(values)[m - 1] for values in classes]


def frobenius_answers(coins, m, l):
    """(F_{m,l}, G_m) for a tuple with gcd 1, from its m-Apery set."""
    a1 = min(coins)
    w = apery(coins, m)
    genus = sum((w_r - r) // a1 for r, w_r in enumerate(w)) - (1 if m > 1 else 0)
    # The l largest qualifying k of class r are w_r - a1, ..., w_r - l*a1.
    top = heapq.nlargest(l, (w_r - j * a1 for w_r in w for j in range(1, l + 1)))
    return top[l - 1], genus


def brute_answers(coins, m, l, rep_count):
    """(F_{m,l}, G_m) from h(k) = rep_count(k) over a window that is sound
    for any coprime pair (a, b) of entries: every k > m*a*b - a - b has m
    representations, because k - j*a*b is representable for j < m."""
    a, b = next((x, y) for x in coins for y in coins if x < y and gcd(x, y) == 1)
    window = m * a * b - a - b
    qualifying = [k for k in range(window + 1) if rep_count(k) < m]
    genus = sum(1 for k in qualifying if k > 0)
    ranked = sorted(qualifying, reverse=True)
    if len(ranked) >= l:
        return ranked[l - 1], genus
    return -(l - len(ranked)), genus


def _columns(a, bound):
    """Yield (prefix, room) for every prefix point (x1..x_{n-1}) >= 0 with
    a[:-1] . prefix <= bound; room = bound - a[:-1] . prefix."""
    ranges = [range(bound // ai + 1) for ai in a[:-1]]
    for prefix in product(*ranges):
        room = bound - sum(ai * xi for ai, xi in zip(a, prefix))
        if room >= 0:
            yield prefix, room


def simplex_count(a, bound):
    """Number of x >= 0 with a . x <= bound (all a_i > 0)."""
    last = a[-1]
    return sum(room // last + 1 for _, room in _columns(a, bound))


def simplex_top(a, c, bound, l):
    """The l largest values of c . x over x >= 0 with a . x <= bound."""
    last, c_last = a[-1], c[-1]
    best = []
    for prefix, room in _columns(a, bound):
        base = sum(ci * xi for ci, xi in zip(c, prefix))
        top = room // last
        lasts = range(top, max(top - l, -1), -1) if c_last >= 0 else range(min(l, top + 1))
        best = heapq.nlargest(l, best + [base + c_last * x for x in lasts])
    return best


def exclusion_kept(coins, m, bound):
    """The k in [0, bound] with fewer than m representations, ascending."""
    a1 = min(coins)
    w = apery(coins, m)
    return [k for k in range(bound + 1) if k < w[k % a1]]
