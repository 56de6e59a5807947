"""Seeded workload inputs, their command sequences and answer checks.

A workload is a fixed sequence of `parafrob` commands over input files
drawn from the seed. Every answer line a command prints (or writes) is
checked against `reference`, which never calls the code the benchmark
times. Shapes are drawn so that different seeds cost about the same work:
the crosscheck family and the rank inputs are picked by their lattice size.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path

import reference
from parafrob import formats, reduction
from parafrob.frobenius import Coins, rep_count_exact

M = L = 2  # the Frobenius workloads use m = l = 2

# (b, c) for the family (t, t^2+1, t^2+b*t+c) whose F_{2,2} and G_2
# series over t = 3..40 both fit (period <= 2) under the default fit
# bounds; the sweep checks that both fits are FIT.
SWEEP_FAMILIES = [(1, -1), (1, 0), (1, 1), (1, 2), (2, -1), (2, 0), (2, 1),
                  (2, 2), (3, 0), (3, 2)]

SIZES = {
    "full": {
        "sweep": {"span": (3, 40), "middle": (10, 32), "compute_t": 60, "fit": []},
        "crosscheck": {"span": (3, 8), "points": 450_000, "tolerance": 0.04},
        "rank": {"objectives": 3, "objective_points": 20_000, "objective_l": 10,
                 "exclusions": 2, "exclusion_points": 60_000, "exclusion_l": 3},
    },
    "tiny": {
        "sweep": {"span": (3, 20), "middle": (6, 14), "compute_t": 24,
                  "fit": ["--d-max", "2", "--deg-max", "3"]},
        "crosscheck": {"span": (3, 5), "points": None, "tolerance": None},
        "rank": {"objectives": 1, "objective_points": 2_000, "objective_l": 4,
                 "exclusions": 1, "exclusion_points": 2_000, "exclusion_l": 2},
    },
}


@dataclass
class Command:
    """One CLI call: its arguments after `parafrob`, how to read its answer
    lines from stdout (and files it wrote), and how to check them."""

    argv: list
    answer: object  # (stdout, workdir) -> list of answer lines
    check: object  # (answer lines) -> error message or None
    kind: str = ""


@dataclass
class Workload:
    name: str
    files: dict  # input file name -> text
    commands: list
    outputs: tuple = ()  # files the commands write; removed before each pass
    # (answer lines of one pass) -> [(system, t, lattice size)] for each
    # distinct system and t that pilp enumerates; sizes come from the
    # reference, not from pilp.
    pilp_inputs: object = lambda _answers: []

    def prepare(self, workdir: Path):
        for name, text in self.files.items():
            (workdir / name).write_text(text)
        for name in self.outputs:
            (workdir / name).unlink(missing_ok=True)


def stdout_lines(stdout, _workdir):
    return stdout.splitlines()


def expect_lines(expected):
    def check(lines):
        if lines == expected:
            return None
        for i, (got, want) in enumerate(zip(lines, expected)):
            if got != want:
                return f"line {i + 1}: got {got!r}, want {want!r}"
        return f"got {len(lines)} lines, want {len(expected)}"
    return check


def family_text(b, c):
    """The family (t, t^2+1, t^2+b*t+c) with m = l = 2."""
    return f"poly: [0, 1]\npoly: [1, 0, 1]\npoly: [{c}, {b}, 1]\nm: {M}\nl: {L}\n"


def family_values(b, c, t):
    return (t, t * t + 1, t * t + b * t + c)


def _format(v):
    return "-inf" if v is None else str(v)


# ---------------------------------------------------------------------------
# sweep


def sweep(seed: int, size: str) -> Workload:
    cfg = SIZES[size]["sweep"]
    rng = random.Random(f"sweep/{seed}")
    b, c = rng.choice(SWEEP_FAMILIES)
    lo, hi = cfg["span"]
    ref = {t: reference.frobenius_answers(family_values(b, c, t), M, L)
           for t in range(lo, hi + 1)}
    # The smallest t also go through the brute-force oracle, which guards
    # the reference itself.
    for t in range(lo, lo + 3):
        coins = family_values(b, c, t)
        brute = reference.brute_answers(
            coins, M, L, lambda k: rep_count_exact(Coins(coins), k))
        if brute != ref[t]:
            raise RuntimeError(f"reference disagrees with brute force at t={t}")

    def series_expected(t_lo, t_hi):
        return ([f"fml {t} {ref[t][0]}" for t in range(t_lo, t_hi + 1)]
                + [f"gm {t} {ref[t][1]}" for t in range(t_lo, t_hi + 1)])

    def series_answer(_stdout, workdir):
        lines = []
        for key in ("fml", "gm"):
            path = workdir / f"s.{key}.series"
            text = path.read_text() if path.exists() else ""
            lines += [f"{key} {line}" for line in text.splitlines()]
        return lines

    def fit_check(column):
        def check(lines):
            fields = dict(line.split(" ", 1) for line in lines)
            if fields.get("fit") != "FIT":
                return f"fit verdict {fields.get('fit')}"
            period, threshold = int(fields["period"]), int(fields["threshold"])
            if threshold >= lo:
                return f"threshold {threshold} leaves samples from t={lo} unfitted"
            comps = [_parse_poly_list(_component(lines, r)) for r in range(period)]
            for t in range(lo, hi + 1):
                got = _eval(comps[t % period], t)
                if got != ref[t][column]:
                    return f"fit gives {got} at t={t}, want {ref[t][column]}"
            return None
        return check

    def fit_answer(stdout, _workdir):
        return [line for line in stdout.splitlines()
                if not line.startswith(("note ", "diagnostic "))]

    t0 = cfg["compute_t"]
    coins0 = family_values(b, c, t0)
    f1, g1 = reference.frobenius_answers(coins0, 1, 1)
    fml, gm = reference.frobenius_answers(coins0, M, L)
    compute_expected = [f"F {f1}", f"G {g1}", f"F_m_l {fml}", f"G_m {gm}"] + [
        f"h {k} {min(rep_count_exact(Coins(coins0), k), max(M, 2))}" for k in range(17)]

    middle = cfg["middle"]
    commands = [
        Command(["series", "--family", "fam.txt", "--t-min", str(middle[0]),
                 "--t-max", str(middle[1]), "--out", "s"],
                series_answer, expect_lines(series_expected(*middle)), "series"),
        Command(["series", "--family", "fam.txt", "--t-min", str(lo),
                 "--t-max", str(hi), "--out", "s"],
                series_answer, expect_lines(series_expected(lo, hi)), "series"),
        Command(["fit", "s.fml.series", "--format", "machine"] + cfg["fit"],
                fit_answer, fit_check(0), "fit"),
        Command(["fit", "s.gm.series", "--format", "machine"] + cfg["fit"],
                fit_answer, fit_check(1), "fit"),
        Command(["compute", "--a", ",".join(map(str, coins0)), "--m", str(M),
                 "--l", str(L), "--format", "machine"],
                stdout_lines, expect_lines(compute_expected), "compute"),
    ]
    return Workload("sweep", {"fam.txt": family_text(b, c)}, commands,
                    outputs=("s.fml.series", "s.gm.series"))


def _component(lines, r):
    prefix = f"component {r} "
    return next(line[len(prefix):] for line in lines if line.startswith(prefix))


def _parse_poly_list(text):
    if text == "-inf":
        return None
    return [Fraction(x) for x in text.strip("[]").split(",") if x.strip()]


def _eval(coeffs, t):
    if coeffs is None:
        return None
    return sum(c * t**i for i, c in enumerate(coeffs))


# ---------------------------------------------------------------------------
# crosscheck


def _crosscheck_points(b, c, t, r):
    """Lattice sizes of the exclusion construction's two systems at t: sys1
    has one point per (b_1..b_n) with sum b_i P_i(t) <= t^r - 1 - l, sys2
    one per k in [0, t^r)."""
    coins = sorted(family_values(b, c, t), reverse=True)
    return reference.simplex_count(coins, t**r - 1 - L), t**r


def crosscheck(seed: int, size: str) -> Workload:
    cfg = SIZES[size]["crosscheck"]
    lo, hi = cfg["span"]
    r = 4  # box exponent of this family shape with m = 2, used for sizing only
    candidates = [(b, c) for b in range(1, 5) for c in range(-2, 7)
                  if all(b * t + c != 1 for t in range(lo, hi + 1))]
    if cfg["points"] is not None:
        def work(bc):
            return sum(sum(_crosscheck_points(*bc, t, r)) for t in range(lo, hi + 1))
        candidates = [bc for bc in candidates
                      if abs(work(bc) / cfg["points"] - 1) <= cfg["tolerance"]]
    b, c = random.Random(f"crosscheck/{seed}").choice(candidates)
    ref = {t: reference.frobenius_answers(family_values(b, c, t), M, L)
           for t in range(lo, hi + 1)}

    def answer(stdout, _workdir):
        return [line for line in stdout.splitlines()
                if "SKIPPED" not in line and not line.startswith("checked ")]

    def check(lines):
        fields = dict(line.rsplit(" ", 1) for line in lines if " | " not in line)
        if fields.get("verdict") != "OK" or fields.get("g_offsets") != "1":
            return (f"verdict {fields.get('verdict')}, "
                    f"g_offsets {fields.get('g_offsets')}")
        rows = [line.split(" | ") for line in lines if " | " in line]
        if not rows:
            return "no row was checked"
        for t, f_ex, f_direct, g_ex, g_direct, _status in rows:
            f_ref, g_ref = ref[int(t)]
            want = [str(f_ref), str(f_ref), str(g_ref + L + 1), str(g_ref + L)]
            if [f_ex, f_direct, g_ex, g_direct] != want:
                return f"row t={t}: got {[f_ex, f_direct, g_ex, g_direct]}, want {want}"
        return None

    fam = formats.parse_family(family_text(b, c))

    def pilp_inputs(answers):
        box = reduction.box_exponent(fam)
        ex = reduction.frobenius_to_exclusion(fam, box)
        out = []
        for line in answers[0]:
            if " | " in line:
                t = int(line.split(" | ")[0])
                sys1_points, sys2_points = _crosscheck_points(b, c, t, box)
                out += [(ex.sys1, t, sys1_points), (ex.sys2, t, sys2_points)]
        return out

    command = Command(["crosscheck", "--family", "fam.txt", "--t-min", str(lo),
                       "--t-max", str(hi), "--format", "machine"],
                      answer, check, "crosscheck")
    return Workload("crosscheck", {"fam.txt": family_text(b, c)}, [command],
                    pilp_inputs=pilp_inputs)


# ---------------------------------------------------------------------------
# rank


def _t_for_points(a, target):
    """The t whose simplex a . x <= t holds closest to `target` points."""
    lo, hi = 0, 1
    while reference.simplex_count(a, hi) < target:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reference.simplex_count(a, mid) < target:
            lo = mid
        else:
            hi = mid
    return min((lo, hi), key=lambda t: abs(reference.simplex_count(a, t) - target))


def _knapsack(rng, points, l):
    """A 3-variable knapsack simplex a . x <= t ranked by c . x: (file text,
    t, lattice size, expected answer lines)."""
    a = [rng.randint(1, 6) for _ in range(3)]
    c = [rng.choice([v for v in range(-9, 10) if v]) for _ in range(3)]
    t = _t_for_points(sorted(a, reverse=True), points)
    text = (f"vars: 3\nnonneg: all\nc: {', '.join(map(str, c))}\n"
            f"row: {', '.join(map(str, a))} | <= | t\n")
    top = reference.simplex_top(a, c, t, l)
    top += [None] * (l - len(top))
    expected = [f"objective {i} {_format(v)}" for i, v in enumerate(top, 1)]
    return text, t, reference.simplex_count(sorted(a, reverse=True), t), expected


def _exclusion(rng, points, l):
    """Keep k in [0, t] with fewer than m representations k = b . coins,
    i.e. the fibers of the projection to k: (file text, t, sys1 lattice
    size, expected answer lines)."""
    while True:
        a1 = rng.randint(3, 7)
        coins = sorted(rng.sample(range(a1 + 1, 3 * a1 + 1), 2))
        if all(x % a1 for x in coins) and any(gcd(x, a1) == 1 for x in coins):
            coins = [a1] + coins
            break
    m = rng.choice([2, 3])
    t = _t_for_points(coins[::-1], points)
    text = (f"m: {m}\nn1: 3\nn2: 1\nc: 1\nsys1:\n"
            f"row: 1, {', '.join(str(-x) for x in coins)} | == | 0\n"
            f"row: 1, 0, 0, 0 | <= | t\nsys2:\nrow: 1 | <= | t\n")
    kept = reference.exclusion_kept(coins, m, t)
    ranked = sorted(kept, reverse=True)[:l]
    ranked += [None] * (l - len(ranked))
    expected = ([f"size {len(kept)}"]
                + [f"objective {i} {_format(v)}" for i, v in enumerate(ranked, 1)]
                + [f"point {k}" for k in kept])
    return text, t, reference.simplex_count(coins[::-1], t), expected


def rank(seed: int, size: str) -> Workload:
    """Several drawn instances per pass: ranking cost depends on the shape
    (sorting the objective values dominates), and the mix evens it out."""
    cfg = SIZES[size]["rank"]
    rng = random.Random(f"rank/{seed}")
    files, commands, sizes = {}, [], []
    for i in range(cfg["objectives"]):
        name = f"knapsack{i}.txt"
        files[name], t, points, expected = _knapsack(rng, cfg["objective_points"],
                                                     cfg["objective_l"])
        sizes.append((name, "system", t, points))
        commands.append(Command(
            ["pilp", name, "--t", str(t), "--objective", "--l",
             str(cfg["objective_l"]), "--format", "machine"],
            stdout_lines, expect_lines(expected), "pilp"))
    for i in range(cfg["exclusions"]):
        name = f"exclusion{i}.txt"
        files[name], t, points, expected = _exclusion(rng, cfg["exclusion_points"],
                                                      cfg["exclusion_l"])
        sizes += [(name, "sys1", t, points), (name, "sys2", t, t + 1)]
        commands.append(Command(
            ["pilp", name, "--t", str(t), "--exclusion", "--l",
             str(cfg["exclusion_l"]), "--format", "machine"],
            stdout_lines, expect_lines(expected), "pilp"))

    def pilp_inputs(_answers):
        out = []
        for name, part, t, points in sizes:
            parsed = formats.parse_system_file(files[name])
            system = parsed[1] if part == "system" else getattr(parsed[1], part)
            out.append((system, t, points))
        return out

    return Workload("rank", files, commands, pilp_inputs=pilp_inputs)


BUILDERS = {"sweep": sweep, "crosscheck": crosscheck, "rank": rank}


def setup_command() -> Command:
    """The cold-start probe: `compute` on (3, 5), answers checked as usual."""
    coins = (3, 5)
    f, g = reference.frobenius_answers(coins, 1, 1)
    expected = [f"F {f}", f"G {g}", f"F_m_l {f}", f"G_m {g}"] + [
        f"h {k} {min(rep_count_exact(Coins(coins), k), 2)}" for k in range(17)]
    return Command(["compute", "--a", "3,5", "--format", "machine"],
                   stdout_lines, expect_lines(expected), "compute")
