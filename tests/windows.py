"""The window bound on concrete tuples, for tests that need a window which
does not come from the residue table: a wrong table cannot shrink its own
oracle."""

from parafrob.errors import InputError
from parafrob.frobenius import Coins, window_end


def qualifying_bound(coins: Coins, m: int) -> int:
    """B such that every multiple k of the gcd with k > B has h(k) >= m."""
    if m < 1:
        raise InputError("m must be >= 1")
    g = coins.g
    xs = sorted(e // g for e in coins.a)
    return g * window_end(xs[0], xs[1], xs[-1], m)
