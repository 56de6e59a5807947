"""Frobenius quantities against independent brute-force oracles."""

import random
import tracemalloc
from fractions import Fraction
from itertools import count
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from parafrob import frobenius as fr
from parafrob.errors import InputError, ResourceLimitError
from parafrob.frobenius import Coins
from oracles import (
    dp_answers,
    frobenius_genus_3,
    rep_count_table,
    roberts_closed_form,
)
from windows import qualifying_bound


def brute_h(a, k):
    """Independent denumerant: recursion over coordinates, no DP."""
    if k < 0:
        return 0
    if len(a) == 1:
        return 1 if k % a[0] == 0 else 0
    return sum(brute_h(a[1:], k - b * a[0]) for b in range(k // a[0] + 1))


def brute_qualifying(a, m, bound):
    """All k in [0, bound] with h(k) < m, descending."""
    return [k for k in range(bound, -1, -1) if brute_h(a, k) < m]


def test_coins_validation():
    with pytest.raises(InputError):
        Coins([5])
    with pytest.raises(InputError):
        Coins([3, 0])
    # Entries are converted with operator.index, never truncated: 3.9
    # would otherwise become 3 and answer F(3, 5) = 7.
    for entry in (3.9, 3.5, Fraction(7, 2), "3"):
        with pytest.raises(InputError, match="entries must be integers"):
            Coins([entry, 5])
    assert Coins([6, 10, 15]).g == 1
    assert vars(Coins([6, 10])) == {"a": (6, 10)}
    assert Coins([6, 10]).g == 2


def test_rep_count_table_examples():
    assert rep_count_table(Coins([2, 3]), 6, 10)[6] == 2
    assert rep_count_table(Coins([3, 5]), 7, 10)[7] == 0
    for a in ([2, 3], [3, 5], [1, 1]):
        assert rep_count_table(Coins(a), 0, 5) == (1,)


def test_rep_count_table_gcd_and_cap_invariants():
    coins = Coins([6, 10])
    counts = rep_count_table(coins, 40, 3)
    assert len(counts) == 41
    for k, count in enumerate(counts):
        assert count <= 3
        if k % 2 == 1:
            assert count == 0


def test_rep_count_exact_examples():
    assert fr.rep_count_exact(Coins([1, 1]), 4) == 5
    assert fr.rep_count_exact(Coins([3, 5]), 8) == 1
    assert fr.rep_count_exact(Coins([6, 10, 15]), 29) == 0
    assert fr.rep_count_exact(Coins([2, 3]), -1) == 0
    with pytest.raises(ResourceLimitError):
        fr.rep_count_exact(Coins([2, 3]), fr.EXACT_LIMIT + 1)


def test_dp_agrees_with_brute_force_oracle():
    rng = random.Random(0)
    for _ in range(40):
        n = rng.randint(2, 3)
        a = [rng.randint(1, 30) for _ in range(n)]
        cap = rng.choice([1, 2, 4])
        bound = rng.randint(0, 60)
        counts = rep_count_table(Coins(a), bound, cap)
        assert counts == tuple(min(brute_h(tuple(a), k), cap)
                               for k in range(bound + 1))


def test_qualifying_bound_examples():
    # Schur's bound (s1-1)*(x_max-1) - 1 over the sorted reduced entries,
    # duplicates kept, plus (m-1)*s1*s2, times the gcd.
    for a, bound in (([3, 5], 7), ([6, 10, 15], 69), ([5, 6, 11], 39),
                     ([2, 17, 23, 34], 32), ([3, 3, 5], 7), ([1, 7], -1),
                     ([6, 10], 14)):
        assert qualifying_bound(Coins(a), 1) == bound
    assert qualifying_bound(Coins([3, 5]), 2) == 22


def test_frobenius_number_examples():
    # F is -gcd when every nonnegative multiple of the gcd is representable.
    for a, want in (([3, 5], 7), ([6, 10], 14), ([6, 10, 15], 29),
                    ([1, 7], -1), ([2, 2], -2)):
        assert fr.apery_table(Coins(a), 1).frobenius(1, 1) == want


def test_genus_examples():
    for a, want in (([3, 5], 4), ([6, 10], 4), ([2, 3], 1)):
        assert fr.apery_table(Coins(a), 1).genus(1) == want


def test_generalized_frobenius_examples():
    assert fr.apery_table(Coins([1, 1]), 1).frobenius(1, 1) == -1
    # largest k with h(k) <= 1 for (3, 5), checked against the oracle
    want = next(k for k in count(100, -1) if brute_h((3, 5), k) <= 1)
    assert fr.apery_table(Coins([3, 5]), 2).frobenius(2, 1) == want


def test_generalized_genus_examples():
    assert fr.apery_table(Coins([6, 10]), 2).genus(2) == \
        fr.apery_table(Coins([3, 5]), 2).genus(2)


def test_generalized_values_match_brute_force():
    rng = random.Random(1)
    for _ in range(25):
        a = tuple(rng.randint(1, 20) for _ in range(rng.randint(2, 3)))
        m = rng.randint(1, 3)
        l = rng.randint(1, 3)
        coins = Coins(a)
        g = coins.g
        reduced = tuple(sorted(e // g for e in a))
        bound = qualifying_bound(coins, m) // g
        qualifying = brute_qualifying(reduced, m, bound)
        if l <= len(qualifying):
            want = g * qualifying[l - 1]
        else:
            want = -g * (l - len(qualifying))
        table = fr.apery_table(coins, m)
        assert table.frobenius(m, l) == want
        assert table.genus(m) == sum(1 for k in qualifying if k > 0)


def assert_table_matches_dp(a, m):
    # l = 1..5, and every l up to two past the last nonnegative qualifier:
    # the ends of frobenius's bisection and the switch to negative answers.
    coins = Coins(a)
    table = fr.apery_table(coins, m)
    for level in range(1, m + 1):
        want_f, want_g, nonnegative = dp_answers(coins, level)
        assert table.genus(level) == want_g, (a, level)
        for l in range(1, max(6, nonnegative + 3)):
            assert table.frobenius(level, l) == want_f(l), (a, level, l)


def test_apery_table_agrees_with_capped_dp_at_every_level():
    # Duplicates, an entry equal to 1 and gcd > 1 by construction, then
    # random tuples with n <= 5.
    for a in ([3, 3, 5], [1, 4], [1, 1, 3], [6, 10, 15], [4, 6, 6, 9], [2, 2]):
        assert_table_matches_dp(a, 5)
    rng = random.Random(8)
    for _ in range(60):
        c = rng.choice([1, 1, 2, 3])
        a = [c * rng.randint(1, 15) for _ in range(rng.randint(2, 5))]
        assert_table_matches_dp(a, rng.randint(1, 5))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=2, max_size=5),
       st.integers(1, 3), st.integers(1, 5))
def test_apery_table_agrees_with_capped_dp_hypothesis(a, c, m):
    assert_table_matches_dp([c * e for e in a], m)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 400), min_size=3, max_size=3)
       .filter(lambda a: gcd(*a) == 1))
def test_triple_oracle_matches_apery_table(a):
    table = fr.apery_table(Coins(a), 1)
    assert frobenius_genus_3(*a) == (table.frobenius(1, 1), table.genus(1))


def test_triple_oracle_edges():
    # An entry 1, duplicates and shared factors go through Johnson's
    # reduction.
    assert frobenius_genus_3(1, 7, 9) == (-1, 0)
    assert frobenius_genus_3(6, 6, 7) == (29, 15)
    assert frobenius_genus_3(6, 10, 15) == (29, 15)
    with pytest.raises(InputError):
        frobenius_genus_3(4, 6, 8)
    # In the order (t+1, t, t+2), s0 = t = a1 - 1: about t quotients 2,
    # taken as one jump. Roberts' formula gives F.
    for t in (10**12, 10**12 + 1):
        f, _ = frobenius_genus_3(t + 1, t, t + 2)
        assert f == roberts_closed_form(2).eval(t)


def test_apery_table_levels_and_limit():
    table = fr.apery_table(Coins([3, 5]), 2)
    with pytest.raises(InputError):
        table.genus(3)
    with pytest.raises(InputError):
        table.frobenius(1, 0)
    with pytest.raises(InputError):
        fr.apery_table(Coins([3, 5]), 0)
    # a * m * n just above the limit fails before any allocation.
    with pytest.raises(ResourceLimitError, match=str(fr.APERY_LIMIT)):
        fr.apery_table(Coins([fr.APERY_LIMIT // 2 + 1, fr.APERY_LIMIT]), 1)


def test_generalized_frobenius_large_l():
    # Expected values are those of the capped DP. For (1000, 1001) there
    # are a * l = 10^9 candidates, and at m = 2 the l-th qualifier is found
    # by bisection on the count of qualifiers above x, with no list of them.
    big = 10**6
    table = fr.apery_table(Coins([3, 5]), 2)
    assert table.frobenius(2, big) == -999981
    assert table.frobenius(1, big) == -999996
    table = fr.apery_table(Coins([1000, 1001]), 2)
    assert table.frobenius(1, big) == -500500
    tracemalloc.start()
    try:
        assert table.frobenius(2, big) == 500500
        assert tracemalloc.get_traced_memory()[1] < 4 * 10**6
    finally:
        tracemalloc.stop()


def test_sylvester_random_pairs():
    rng = random.Random(2)
    done = 0
    while done < 60:
        a, b = rng.randint(2, 60), rng.randint(2, 60)
        if a == b or gcd(a, b) != 1:
            continue
        table = fr.apery_table(Coins([a, b]), 1)
        assert table.frobenius(1, 1) == a * b - a - b
        assert table.genus(1) == (a - 1) * (b - 1) // 2
        done += 1


def test_pair_closed_forms_at_every_level():
    # Popoviciu's formula for coprime a, b gives h(k + ab) = h(k) + 1 with
    # h in {0, 1} on [0, ab) (Beck & Robins, Computing the Continuous
    # Discretely, ch. 1), hence F_{m,1} and G_m in closed form.
    cases = 0
    for a in range(2, 25):
        for b in range(a + 1, 40):
            if gcd(a, b) != 1:
                continue
            for m in range(1, 5):
                table = fr.apery_table(Coins([a, b]), m)
                assert table.frobenius(m, 1) == m * a * b - a - b
                assert table.genus(m) == ((m - 1) * a * b
                                          + (a - 1) * (b - 1) // 2 - (m >= 2))
                cases += 1
    assert cases == 1460


def test_scaling_identities():
    rng = random.Random(3)
    for _ in range(60):
        a = [rng.randint(1, 40) for _ in range(rng.randint(2, 4))]
        c = rng.randint(1, 5)
        m = rng.randint(1, 3)
        l = rng.randint(1, 3)
        table = fr.apery_table(Coins(a), m)
        multiple = fr.apery_table(Coins([c * e for e in a]), m)
        assert multiple.frobenius(1, 1) == c * table.frobenius(1, 1)
        assert multiple.genus(1) == table.genus(1)
        assert multiple.frobenius(m, l) == c * table.frobenius(m, l)
        assert multiple.genus(m) == table.genus(m)


def test_qualifying_bound_soundness():
    rng = random.Random(4)
    for _ in range(30):
        a = [rng.randint(1, 25) for _ in range(rng.randint(2, 3))]
        m = rng.randint(1, 3)
        coins = Coins(a)
        bound = qualifying_bound(coins, m)
        g = coins.g
        counts = rep_count_table(Coins(e // g for e in a), bound // g + 50,
                                 cap=m)
        for k in range(bound // g + 1, bound // g + 51):
            assert counts[k] >= m


def test_qualifying_bound_scales():
    assert qualifying_bound(Coins([3, 5]), 1) >= 7  # F(3, 5) = 7 qualifies
    for c in (1, 2, 5):
        assert qualifying_bound(Coins([3 * c, 5 * c]), 1) == \
            c * qualifying_bound(Coins([3, 5]), 1)


def test_monotonicity_and_definition_consistency():
    rng = random.Random(6)
    for _ in range(25):
        a = [rng.randint(1, 20) for _ in range(rng.randint(2, 3))]
        coins = Coins(a)
        m = rng.randint(1, 3)
        table = fr.apery_table(coins, 3)
        values = [table.frobenius(m, l) for l in range(1, 6)]
        # strictly decreasing in l, by at least the gcd per step
        for prev, nxt in zip(values, values[1:]):
            assert nxt <= prev - coins.g
        # non-decreasing in m (for fixed l), and same for the counts
        for l in (1, 2):
            series = [table.frobenius(mm, l) for mm in range(1, 4)]
            assert series == sorted(series)
        counts = [table.genus(mm) for mm in range(1, 4)]
        assert counts == sorted(counts)
        # exactly l-1 qualifying multiples above the answer; answer qualifies
        g = coins.g
        reduced = tuple(sorted(e // g for e in a))
        for l in (1, 2, 3):
            val = table.frobenius(m, l)
            assert val % g == 0
            k = val // g
            assert brute_h(reduced, k) < m
            above = sum(
                1
                for j in range(max(k + 1, 0), qualifying_bound(coins, m) // g + 1)
                if brute_h(reduced, j) < m
            )
            above += max(0, -k - 1) if k < 0 else 0  # negatives above val
            assert above == l - 1
