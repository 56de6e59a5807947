"""Acceptance suite: one test per criterion, one PASS line each.

Everything here is exact; no tolerances anywhere. Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import random
import time
from itertools import product
from math import gcd

import oracles
import proofs
import pytest
from clirun import run_cli
from parafrob import eqpfit, formats, frobenius, pilp, reduction
from parafrob.eqpfit import Fit, NoFit
from parafrob.frobenius import Coins
from parafrob.pilp import (
    EQ,
    LE,
    ExclusionProblem,
    ParametricConstraintSystem,
    Row,
)
from parafrob.qpoly import Poly, QuasiPolynomial, SampleSeries
from parafrob.reduction import PolyFamily
from proofs import Atom, DnfFormula, base_map, truth_table_sets
from windows import qualifying_bound

U = Poly.variable()
ONE = Poly.constant(1)
ZERO = Poly()


def const(c):
    return Poly.constant(c)


def report(number, message):
    print(f"PASS criterion {number}: {message}")


def system(n, rows, c=()):
    return ParametricConstraintSystem(tuple(rows), (True,) * n, c)


def test_criterion_01_sylvester_suite():
    start = time.perf_counter()
    pairs = 0
    for a in range(2, 61):
        for b in range(a + 1, 61):
            if gcd(a, b) != 1:
                continue
            coins = Coins([a, b])
            table = frobenius.apery_table(coins, 1)
            assert table.frobenius(1, 1) == a * b - a - b
            assert table.genus(1) == (a - 1) * (b - 1) // 2
            pairs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(1, f"{pairs} coprime pairs match the two-denomination formulas "
              f"exactly in {elapsed:.2f}s")


def test_criterion_02_parametric_pair_formula(tmp_path):
    start = time.perf_counter()
    family_file = tmp_path / "fam.txt"
    family_file.write_text("poly: [0, 1]\npoly: [-2, 1]\nm: 1\nl: 1\n")
    out_prefix = tmp_path / "series"
    res = run_cli([
        "series", "--family", str(family_file),
        "--t-min", "4", "--t-max", "120", "--out", str(out_prefix),
    ])
    assert res.exit_code == 0
    series = formats.parse_series((tmp_path / "series.fml.series").read_text())
    assert series.t_min == 4 and series.t_max == 120
    for t, v in series.items():
        if t % 2 == 1:
            assert v == t * (t - 2) - t - (t - 2)
        else:
            half, half2 = t // 2, (t - 2) // 2
            assert v == 2 * (half * half2 - half - half2)
    fit_res = run_cli([
        "fit", str(tmp_path / "series.fml.series"), "--format", "machine",
    ])
    assert fit_res.exit_code == 0
    lines = fit_res.output.splitlines()
    assert "fit FIT" in lines[0]
    assert "period 2" in lines
    # the two pieces, simplified: even (u^2-6u+4)/2, odd u^2-4u+2
    assert "component 0 [2, -3, 1/2]" in lines
    assert "component 1 [2, -4, 1]" in lines
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, f"t=4..120 matches the two-denomination piecewise formula and "
              f"the fitted period-2 components equal both pieces ({elapsed:.2f}s)")


def test_criterion_03_scaling_identities():
    rng = random.Random(101)
    for _ in range(200):
        a = [rng.randint(1, 40) for _ in range(rng.randint(2, 4))]
        c = rng.randint(1, 5)
        m = rng.randint(1, 3)
        l = rng.randint(1, 3)
        table = frobenius.apery_table(Coins(a), m)
        multiple = frobenius.apery_table(Coins([c * e for e in a]), m)
        assert multiple.frobenius(1, 1) == c * table.frobenius(1, 1)
        assert multiple.genus(1) == table.genus(1)
        assert multiple.frobenius(m, l) == c * table.frobenius(m, l)
        assert multiple.genus(m) == table.genus(m)
    report(3, "200 randomized scaling cases hold exactly for F, G, and both "
              "generalizations")


def test_criterion_04_bound_soundness():
    rng = random.Random(102)
    done = 0
    while done < 100:
        a = [rng.randint(1, 40) for _ in range(rng.randint(2, 4))]
        coins = Coins(a)
        if coins.g != 1:
            continue
        assert frobenius.apery_table(coins, 1).frobenius(1, 1) <= \
            qualifying_bound(coins, 1)
        for m in (1, 2, 3):
            window_end = qualifying_bound(coins, m)
            counts = oracles.rep_count_table(coins, window_end + 50, cap=m)
            for k in range(window_end + 1, window_end + 51):
                assert counts[k] >= m
        done += 1
    report(4, "100 randomized coprime tuples: F within Schur's bound "
              "and h >= m on (B, B+50] for m <= 3")


def test_criterion_05_dp_vs_enumeration_oracle():
    # Each probed tuple's capped DP against brute-force enumeration, then
    # the residue table, which every command reads, against the DP.
    caps = (1, 2, 4)
    checked = 0
    tuples = []
    for a1 in range(1, 31):
        for a2 in range(a1, 31):
            coins = Coins([a1, a2])
            tuples.append(coins)
            tables = {cap: oracles.rep_count_table(coins, 200, cap)
                      for cap in caps}
            for k in range(0, 201, 7):
                exact = frobenius.rep_count_exact(coins, k)
                for cap in caps:
                    assert tables[cap][k] == min(exact, cap)
                checked += 1
    rng = random.Random(103)
    for _ in range(40):
        a = sorted(rng.randint(1, 30) for _ in range(3))
        coins = Coins(a)
        tuples.append(coins)
        counts = oracles.rep_count_table(coins, 200, 4)
        for k in rng.sample(range(201), 12):
            assert counts[k] == min(frobenius.rep_count_exact(coins, k), 4)
            checked += 1
    for coins in tuples:
        for m in caps:
            table = frobenius.apery_table(coins, m)
            f, g, _ = oracles.dp_answers(coins, m)
            assert table.genus(m) == g, (coins.a, m)
            for l in (1, 2):
                assert table.frobenius(m, l) == f(l), (coins.a, m, l)
    report(5, f"capped DP equals capped brute-force enumeration on "
              f"{checked} (tuple, k) probes with entries <= 30, k <= 200; "
              f"the residue table's G_m and F_(m,l), l <= 2, equal the DP's "
              f"on all {len(tuples)} tuples at m = 1, 2, 4")


def _pilp_test_systems():
    # (name, system with its objective), constant coefficient matrices
    return [
        ("triangle", system(2, [Row((ONE, ONE), LE, U)], (ONE, ONE))),
        ("halfline-period-2",
         system(1, [Row((const(2),), LE, U)], (const(2),))),
        ("modular-period-3",
         system(2, [Row((ONE, const(3)), EQ, U)], (ONE, ZERO))),
        ("slab", system(3, [Row((ONE, ONE, ONE), EQ, U),
                            Row((ZERO, ZERO, ONE), LE, const(2))],
                        (ONE, ONE, ONE))),
        ("grid-period-4", system(2, [Row((const(2), ZERO), LE, U),
                                     Row((ZERO, const(4)), LE, U)],
                                 (ONE, ONE))),
    ]


def test_criterion_06_pilp_eqp_realization():
    fits = 0
    periods = []
    for name, sys in _pilp_test_systems():
        # t = 1..80 train the fit, t = 81..90 are predicted.
        profiles = [pilp.lattice_profile(sys, t, 2)
                    for t in range(1, 91)]
        samples = {
            "size": [size for size, _ in profiles],
            "f1": [top[0] for _, top in profiles],
            "f2": [top[1] for _, top in profiles],
        }
        for label, values in samples.items():
            series = SampleSeries(1, tuple(values[:80]))
            res = eqpfit.fit_quasipolynomial(series, d_max=8, deg_max=4)
            assert isinstance(res, Fit), (name, label, res)
            for t in range(81, 91):
                assert res.qp.eval(t) == values[t - 1], (name, label, t)
            fits += 1
            if label == "size":
                periods.append(res.qp.period)
    assert max(periods) > 1  # a genuinely periodic system is in the set
    report(6, f"{fits} size/f1/f2 series over t=1..80 fitted exactly and all "
              f"10 held-out values t=81..90 predicted exactly per series")


def _consecutive_checked(report_rows):
    best = run = 0
    prev_t = None
    for row in report_rows:
        if row.status == reduction.SKIPPED:
            run = 0
            prev_t = None
            continue
        run = run + 1 if prev_t == row.t - 1 else 1
        prev_t = row.t
        best = max(best, run)
    return best


def test_criterion_07_exclusion_crosscheck():
    windows = []
    for m in (1, 2):
        for l in (1, 2):
            windows.append((PolyFamily((U, U - ONE), m, l), 2, 15))
            # gcd 2 at even t: each row is checked on its entries over 2.
            windows.append((PolyFamily((U, U + const(2)), m, l), 4, 41))
            # Schur's bound puts this family in a t^4 box at m = 1 and 2;
            # every t from 3 on is checked in its own box, t^3 or t^4.
            windows.append((PolyFamily(
                (U, U**2 + ONE, U**2 + 2 * U - ONE), m, l), 3, 11))
    checked_total = 0
    for fam, t_min, t_max in windows:
        rep = reduction.crosscheck(fam, t_min, t_max, point_cap=5_000_000)
        assert rep.f_all_equal, fam
        assert len(rep.g_offsets) <= 1, fam
        expected_offset = 0 if fam.m == 1 else 1
        assert rep.g_offsets == (expected_offset,), fam
        assert _consecutive_checked(rep.rows) >= 8, fam
        checked_total += rep.checked
    report(7, f"exclusion path equals direct path on {checked_total} t values "
              f"across 12 family/(m,l) windows; f exact everywhere, g offset "
              f"constant (0 for m=1, 1 for m=2, reported not adjusted)")


# Past the t = 3..60 window: every t to 110, then 10^k - 1 and 10^k, one
# of each parity, for k = 3..30.
FAR_T = tuple(range(61, 111)) + tuple(
    10**k + r for k in range(3, 31) for r in (-1, 0))


def _far_misses(fam, qp, index):
    """The t in FAR_T where qp differs from the oracle's F (index 0) or G
    (index 1) of the family's three entries."""
    return [t for t in FAR_T
            if qp.eval(t) != oracles.frobenius_genus_3(*fam.values(t))[index]]


def test_criterion_08_degree_two_family_witness():
    fam = PolyFamily((U, U**2 + ONE, U**2 + 2 * U - ONE), 1, 1)
    f_series, g_series = oracles.direct_series(fam, 3, 60)
    fits = {}
    for t, v in f_series.items():
        assert 0 <= v < t**3
    for label, series in (("F", f_series), ("G", g_series)):
        res = eqpfit.fit_quasipolynomial(series)  # default config
        assert isinstance(res, Fit), label
        assert res.qp.period == 2
        check = oracles.validate(res.qp, series)
        assert check.agree_count == check.compared_count
        fits[label] = res.qp
    # Far past any table: the O(log a) oracle for three entries.
    for label, index in (("F", 0), ("G", 1)):
        assert _far_misses(fam, fits[label], index) == [], label
    # Guard: the check fails a fit with one coefficient off by 1.
    comps = fits["F"].components
    off = Poly(comps[0].coeffs[:-1] + (comps[0].coeffs[-1] + 1,))
    wrong = QuasiPolynomial((off,) + comps[1:], fits["F"].threshold)
    assert _far_misses(fam, wrong, 0)
    report(8, f"the degree-2 family's F and G series over t=3..60 fit "
              f"exactly under the default config, 0 <= F(t) < t^3 at every "
              f"t, and both fits equal the three-entry oracle at "
              f"{len(FAR_T)} t up to 10^30")



# Three-entry families whose F and G settle only after a few finite
# samples, with the period and threshold of their fits over t = 2..400.
LATE_FAMILIES = [
    ((U, U + const(3), U + const(7)), 7, 11),
    ((2 * U + ONE, 3 * U + const(2), 5 * U + ONE), 7, 2),
    ((U + ONE, 2 * U**2 + const(3), 3 * U**2 + U + ONE), 5, 17),
    ((3 * U + ONE, 4 * U + const(3), 7 * U + const(2)), 13, 11),
]


@pytest.mark.parametrize("polys, period, threshold", LATE_FAMILIES,
                         ids=["t,t+3,t+7", "2t+1,3t+2,5t+1",
                              "t+1,2t^2+3,3t^2+t+1", "3t+1,4t+3,7t+2"])
def test_late_settling_families_fit_past_their_threshold(polys, period,
                                                         threshold):
    # Criterion 8's far-t check, for families whose fit needs a threshold.
    fam = PolyFamily(polys, 1, 1)
    for index, series in enumerate(oracles.direct_series(fam, 2, 400)):
        res = eqpfit.fit_quasipolynomial(series, d_max=40, deg_max=4)
        assert isinstance(res, Fit), index
        assert (res.qp.period, res.qp.threshold) == (period, threshold)
        assert _far_misses(fam, res.qp, index) == [], index


def test_late_settling_series_at_m_2():
    # No oracle covers m = 2: the residue table past the sampled range is
    # the check.
    fam = PolyFamily((U, U + const(3), U + const(7)), 2, 1)
    f_fit, g_fit = (eqpfit.fit_quasipolynomial(series, d_max=40, deg_max=4)
                    for series in oracles.direct_series(fam, 2, 400))
    assert isinstance(f_fit, Fit) and isinstance(g_fit, Fit)
    assert f_fit.qp.period == g_fit.qp.period == 7
    assert f_fit.qp.threshold == g_fit.qp.threshold == 38
    for t in range(401, 601):
        table = frobenius.apery_table(Coins(fam.values(t)), 2)
        assert f_fit.qp.eval(t) == table.frobenius(2, 1), t
        assert g_fit.qp.eval(t) == table.genus(2), t

def _ranked(ex, l, t):
    feasible, top = pilp.exclusion_profile(ex, t, l)
    return top, len(feasible)


def test_criterion_09_digit_bijection():
    rng = random.Random(104)
    for _ in range(500):
        t = rng.randint(2, 16)
        r = rng.randint(1, 4)
        n = rng.randint(1, 4)
        x = tuple(rng.randrange(t**r) for _ in range(n))
        assert proofs.digit_decode(proofs.digit_encode(x, t, r), t, r) == x

    edge = U * U - ONE
    example5_sys1 = system(2, [
        Row((const(3), const(-5)), LE, ZERO),
        Row((const(-5), const(8)), LE, ZERO),
        Row((ONE, ZERO), LE, U),
    ])
    example5_sys2 = system(1, [Row((ONE,), LE, U)], (ONE,))
    cases = [
        ExclusionProblem(1, example5_sys1, example5_sys2),
        ExclusionProblem(2, system(2, [
            Row((ONE, const(-3)), EQ, ONE),
            Row((ONE, ZERO), LE, edge),
            Row((ZERO, ONE), LE, edge),
        ]), system(1, [Row((ONE,), LE, edge)], (ONE,))),
        ExclusionProblem(2, system(3, [
            Row((ONE, ONE, ONE), EQ, U),
            Row((ZERO, ZERO, ONE), LE, const(2)),
            Row((ONE, ZERO, ZERO), LE, edge),
            Row((ZERO, ONE, ZERO), LE, edge),
            Row((ZERO, ZERO, ONE), LE, edge),
        ]), system(2, [
            Row((ONE, ZERO), LE, edge),
            Row((ZERO, ONE), LE, edge),
            Row((ONE, ONE), LE, U),
        ], (const(2), ONE))),
    ]
    for ex in cases:
        transformed = proofs.digit_transform_exclusion(ex, 2)
        for t in (5, 7, 11):
            assert _ranked(ex, 3, t) == _ranked(transformed, 3, t)
    report(9, "500 random digit round-trips are the identity; 3 exclusion "
              "systems give identical answers before and after the digit "
              "rewrite at t in {5, 7, 11}")


def test_criterion_10_disjoint_disjunction():
    def atom(cx, cy, rhs):
        return Atom((const(cx), const(cy)), const(rhs))

    # the 2-clause case must expand to exactly this 3-clause form
    A, B, C, D = atom(1, 0, 3), atom(0, 1, 2), atom(1, 1, 5), atom(1, -1, 1)
    expanded = proofs.disjoint_expand(DnfFormula(("z1", "z2"), ((A, B), (C, D))))
    assert expanded.clauses == (
        (A, B), (A, B.negated(), C, D), (A.negated(), C, D))

    def check(formula):
        out = proofs.disjoint_expand(formula)
        bases = base_map([formula, out])
        assert len(bases) <= 12
        sat_in, _ = truth_table_sets(formula, bases)
        sat_out, counts = truth_table_sets(out, bases)
        assert sat_in == sat_out
        assert max(counts) <= 1

    total = 0
    # every clause-count/clause-size shape, twice: all-distinct atoms
    # (maximal base count) and a shared 3-atom alphabet (maximal overlap)
    for n_clauses in range(1, 5):
        for sizes in product((1, 2, 3), repeat=n_clauses):
            fresh = [atom(1, k, k) for k in range(sum(sizes))]
            shared = [atom(1, k, k) for k in range(3)]
            idx = 0
            fresh_clauses, shared_clauses = [], []
            for size in sizes:
                fresh_clauses.append(tuple(fresh[idx + i] for i in range(size)))
                shared_clauses.append(
                    tuple(shared[(idx + i) % 3] for i in range(size)))
                idx += size
            for clauses in (fresh_clauses, shared_clauses):
                check(DnfFormula(("z1", "z2"), tuple(clauses)))
                total += 1
    # randomized formulas, including arithmetic negations in the pool
    rng = random.Random(105)
    for _ in range(200):
        pool = [atom(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-3, 3))
                for _ in range(5)]
        pool += [a.negated() for a in pool[:2]]
        clauses = tuple(
            tuple(rng.choice(pool) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 4))
        )
        check(DnfFormula(("z1", "z2"), clauses))
        total += 1
    report(10, f"{total} formulas (every shape up to 4x3, plus 200 random): "
               f"expansion preserves the satisfying set, clauses pairwise "
               f"disjoint, 2-clause case expands to the exact 3-clause form")


def test_criterion_11_negative_controls():
    series = {
        "l growing with t": SampleSeries(3, tuple(
            frobenius.apery_table(Coins([t, t - 1]), 1).frobenius(1, t)
            for t in range(3, 81))),
        "m growing with t (ranked)": SampleSeries(3, tuple(
            frobenius.apery_table(Coins([6, 10, 15]), t).frobenius(t, 1)
            for t in range(3, 81))),
        "m growing with t (count)": SampleSeries(3, tuple(
            frobenius.apery_table(Coins([6, 10, 15]), t).genus(t)
            for t in range(3, 81))),
    }
    for label, s in series.items():
        res = eqpfit.fit_quasipolynomial(s, d_max=12, deg_max=6)
        assert isinstance(res, NoFit), label
        assert "bounded-search" in res.note
        assert res.diagnostics
    report(11, "all three growing-parameter series yield NO_FIT at "
               "d_max=12, deg_max=6, reported as bounded-search verdicts")
