"""A golden differential of the command line.

A fixed corpus of command lines, drawn from ``random.Random(SEED)``, runs
in process, each case in a fresh working directory that holds only its
input files and is named by relative paths. Per case, one SHA-256 covers
the argv of each step, its exit code, stdout and stderr, and every file in
the directory afterwards. ``tests/golden.json`` holds the digests, and
``tests/test_golden.py`` compares against them.

The corpus covers ``compute`` over random tuples at m = 1..4, ``pilp`` on
plain systems and on exclusion files in every mode (both sys1 passes,
sys2 runs longer than one point, point caps on either side of a search's
work), ``crosscheck`` windows, ``fit`` and ``series`` (with a resume) in
both formats, a few usage errors, the README commands, then ``fit`` on
drawn quasi-polynomials (default bounds and deg_max 0, periods 4-7 from a
nonzero t_min, rational values), one NO_FIT per diagnostic reason, and
``fit --out``, then family and system files in every grammar spelling,
``--out`` on ``compute``, ``crosscheck`` and ``pilp``, ``series`` where an
entry is not positive at some t of the range, ``pilp`` on objectives
that are not integer-valued or too wide, and last ``fit`` on series whose
classes settle late.

    python tests/golden.py --record   # rewrite tests/golden.json

Before it writes, ``--record`` lists each case whose digest differs from
the record, as ``#index label``, and then their count.

Re-recording states an intended change of output; it is not a way to make
a failure pass.
"""

import hashlib
import json
import os
import random
import shlex
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

SEED = 2015
HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"


def _compute_cases(rng):
    cases = []
    for _ in range(160):
        a = [rng.randint(1, 60) for _ in range(rng.randint(2, 4))]
        m = rng.randint(1, 4)
        l = rng.choice([1, 2, 3, 7, 50, 400])
        fmt = rng.choice(["table", "machine"])
        cases.append(({}, [["compute", "--a", ",".join(map(str, a)),
                            "--m", str(m), "--l", str(l), "--format", fmt]]))
    # Large l, with more nonnegative qualifiers than l and with fewer.
    for a, m in [((300, 301), 2), ((211, 250, 377), 3), ((97, 98), 4),
                 ((12, 30, 45), 4)]:
        cases.append(({}, [["compute", "--a", ",".join(map(str, a)), "--m",
                            str(m), "--l", "100000", "--format", "machine"]]))
    return cases


def _unit_row(n, i, sign, rhs):
    coeffs = ["0"] * n
    coeffs[i] = str(sign)
    return f"row: {', '.join(coeffs)} | <= | {rhs}"


def _rows(rng, n, widths):
    """Box rows x_i <= width (some as t + width - 6), then up to two
    random rows."""
    rows = []
    for i, w in enumerate(widths):
        shift = f"t - {6 - w}" if w < 6 else f"t + {w - 6}"
        rows.append(_unit_row(n, i, 1, rng.choice([str(w), shift])))
    for _ in range(rng.randint(0, 2)):
        coeffs = ", ".join(str(rng.randint(-2, 2)) for _ in range(n))
        sense = rng.choice(["<=", "<=", "=="])
        rhs = rng.choice([str(rng.randint(0, 12)), "t", "2t - 3"])
        rows.append(f"row: {coeffs} | {sense} | {rhs}")
    return rows


def exclusion_text(rng, project):
    """An exclusion file whose sys1 box favours the projection (wide kept
    block, narrow rest) or the fiber search (the reverse, two projected
    coordinates or more)."""
    n2 = rng.randint(1, 2)
    n1 = rng.randint(1, 2) if project else 2
    n = n1 + n2
    if project:
        widths = ([rng.randint(5, 12) for _ in range(n2)]
                  + [rng.randint(0, 2) for _ in range(n1)])
    else:
        widths = ([rng.randint(0, 2) for _ in range(n2)]
                  + [rng.randint(4, 9) for _ in range(n1)])
    c = ", ".join(str(rng.randint(-3, 3)) for _ in range(n2))
    sys2 = _rows(rng, n2, [rng.randint(3, 14) for _ in range(n2)])
    if rng.random() < 0.25:  # free sys2 coordinates, bounded below
        sys2 = ["nonneg: " + " ".join(["0"] * n2), *sys2,
                *(_unit_row(n2, i, -1, rng.randint(0, 3)) for i in range(n2))]
    lines = [f"m: {rng.randint(1, 4)}", f"n1: {n1}", f"n2: {n2}", f"c: {c}",
             "sys1:", *_rows(rng, n, widths), "sys2:", *sys2]
    return "\n".join(lines) + "\n"


def plain_text(rng):
    n = rng.randint(1, 3)
    free = rng.random() < 0.3
    lines = [f"vars: {n}", "nonneg: " + ("all" if not free else
                                          " ".join(["0"] * n)),
             "c: " + ", ".join(str(rng.randint(-4, 4)) for _ in range(n))]
    lines += _rows(rng, n, [rng.randint(1, 9) for _ in range(n)])
    if free:
        lines += [_unit_row(n, i, -1, rng.randint(0, 3)) for i in range(n)]
    if rng.random() < 0.3:
        lines.append(f"row: {', '.join(['1'] * n)} | <= | t")
    return "\n".join(lines) + "\n"


def _pilp_cases(rng):
    cases = []
    modes = [[], ["--count"], ["--objective"], ["--exclusion"]]
    for i in range(120):
        text = exclusion_text(rng, project=i % 2 == 0)
        for mode in rng.sample(modes, 2):
            argv = ["pilp", "ex.txt", "--t", str(rng.randint(0, 9)), *mode]
            if mode in (["--objective"], ["--exclusion"]):
                argv += ["--l", str(rng.choice([1, 2, 5, 30]))]
            if rng.random() < 0.2:
                argv += ["--point-cap", str(rng.randint(5, 80))]
            cases.append(({"ex.txt": text}, [argv]))
    for _ in range(60):
        text = plain_text(rng)
        t = str(rng.randint(-1, 9))
        cases.append(({"sys.txt": text}, [["pilp", "sys.txt", "--t", t]]))
        cases.append(({"sys.txt": text},
                      [["pilp", "sys.txt", "--t", t, "--objective", "--l",
                        str(rng.choice([1, 3, 10, 100])), "--format",
                        rng.choice(["table", "machine"])]]))
    # README's exclusion example at caps on either side of each search's
    # work, and a listing longer than the feasible set's first run.
    example = (
        "m: 1\nn1: 1\nn2: 1\nc: 1\nsys1:\nrow: 3, -5 | <= | 0\n"
        "row: -5, 8 | <= | 0\nrow: 1, 0 | <= | t\nsys2:\nrow: 1 | <= | t\n")
    for cap in (10, 11, 21, 22, 23):
        cases.append(({"ex.txt": example},
                      [["pilp", "ex.txt", "--t", "10", "--exclusion",
                        "--l", "3", "--point-cap", str(cap)]]))
    for m in (1, 2, 3):
        cases.append(({"ex.txt": example.replace("m: 1", f"m: {m}")},
                      [["pilp", "ex.txt", "--t", "60", "--exclusion",
                        "--l", "7"]]))
    return cases


FAMILIES = [
    ("poly: t\npoly: t^2 + 1\npoly: t^2 + 2t - 1\nm: 2\nl: 2\n", 3, 12),
    ("poly: 2t + 1\npoly: 3t + 2\npoly: 5t + 1\nm: 2\nl: 2\n", 2, 4),
    ("poly: 2t\npoly: 2t + 2\npoly: 3t + 1\nm: 1\nl: 1\n", 2, 6),
    ("poly: t\npoly: t + 1\nm: 3\nl: 1\n", 1, 8),
    ("poly: t\npoly: t + 3\npoly: t + 7\nm: 1\nl: 2\n", 2, 7),
]


def _family_cases(rng):
    cases = []
    for text, t_min, t_max in FAMILIES:
        for fmt in ("table", "machine"):
            cases.append(({"fam.txt": text},
                          [["crosscheck", "--family", "fam.txt", "--t-min",
                            str(t_min), "--t-max", str(t_max), "--format",
                            fmt]]))
    for _ in range(8):
        polys = [f"{rng.randint(1, 3)}t + {rng.randint(0, 4)}"
                 for _ in range(rng.randint(2, 3))]
        text = "".join(f"poly: {p}\n" for p in polys)
        text += f"m: {rng.randint(1, 3)}\nl: {rng.randint(1, 3)}\n"
        t_min = rng.randint(1, 6)
        cases.append(({"fam.txt": text},
                      [["crosscheck", "--family", "fam.txt", "--t-min",
                        str(t_min), "--t-max", str(t_min + 4), "--format",
                        rng.choice(["table", "machine"])]]))
    text = FAMILIES[3][0]
    cases.append(({"fam.txt": text}, [
        ["crosscheck", "--family", "fam.txt", "--t-min", "2", "--t-max", "5",
         "--point-cap", "40"],
        ["crosscheck", "--family", "fam.txt", "--t-min", "2", "--t-max", "5",
         "--inject-mismatch", "--format", "machine"]]))
    for text, _, _ in FAMILIES[3:]:
        cases.append(({"fam.txt": text}, [
            ["series", "--family", "fam.txt", "--t-min", "2", "--t-max", "30",
             "--out", "s"],
            ["series", "--family", "fam.txt", "--t-min", "20", "--t-max",
             "60", "--out", "s"],
            ["fit", "s.fml.series", "--d-max", "8", "--deg-max", "2"],
            ["fit", "s.gm.series", "--d-max", "8", "--deg-max", "3",
             "--format", "machine"]]))
    for _ in range(8):
        coeffs = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        period = rng.randint(1, 3)
        head = rng.randint(0, 6)
        den = rng.choice([1, 1, 2, 3])
        lines = []
        for t in range(0, 40):
            v = sum(c * t**i for i, c in enumerate(coeffs)) + t % period
            lines.append(f"{t} " + ("-inf" if t < head else
                                    str(v) if den == 1 else f"{v}/{den}"))
        text = "\n".join(lines) + "\n"
        for fmt in ("table", "machine"):
            cases.append(({"v.series": text},
                          [["fit", "v.series", "--d-max", "4", "--deg-max",
                            "3", "--format", fmt]]))
    return cases


def _series_text(t_min, values) -> str:
    return "".join(f"{t} {'-inf' if v is None else v}\n"
                   for t, v in enumerate(values, t_min))


def _quasi_values(rng, period, t_min, count, den, deg_max):
    """count samples from t_min of a random quasi-polynomial: each class is
    a polynomial of degree <= deg_max over den, after a head of up to two
    -inf samples, or -inf throughout (rarely)."""
    classes = []
    for _ in range(period):
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(0, deg_max) + 1)]
        head = t_min + period * rng.randint(0, 2)
        classes.append((coeffs, head, rng.random() < 0.1))
    values = []
    for t in range(t_min, t_min + count):
        coeffs, head, bottom = classes[t % period]
        v = sum(c * t**i for i, c in enumerate(coeffs))
        values.append(None if bottom or t < head else Fraction(v, den))
    return values


def _fit_cases(rng):
    """fit under the default bounds and at deg_max 0, periods 4-7 from a
    nonzero t_min, rational values, one NO_FIT per diagnostic reason, and
    --out."""
    cases = []
    for i in range(8):
        period = rng.randint(4, 7)
        t_min = rng.choice([-1, 1]) * rng.randint(1, 15)
        den = rng.randint(2, 6) if i % 4 else 1
        text = _series_text(t_min, _quasi_values(rng, period, t_min, 140,
                                                 den, 3))
        cases.append(({"v.series": text},
                      [["fit", "v.series", "--format",
                        ("table", "machine")[i % 2]]]))
    for i in range(3):
        period = rng.randint(1, 7)
        t_min = rng.randint(-20, 20)
        text = _series_text(t_min, _quasi_values(rng, period, t_min, 60,
                                                 rng.randint(1, 6), 0))
        cases.append(({"v.series": text},
                      [["fit", "v.series", "--d-max", "8", "--deg-max", "0",
                        "--format", ("table", "machine")[i % 2]]]))
    no_fits = [
        # trailing values mix -inf and finite samples
        _series_text(1, [None if t % 3 == 0 else t for t in range(1, 41)]),
        # no run of deg_max + 3 points of degree <= deg_max ends the class
        _series_text(-5, [t * t for t in range(-5, 45)]),
        # ... and class 1 of period 2, after class 0 fitted
        _series_text(0, [t if t % 2 == 0 else t**3 for t in range(60)]),
        # every period fits its training samples, not the holdout
        _series_text(3, [t if t < 83 else t + 1 for t in range(3, 87)]),
        # no period is supported past the first few
        _series_text(-7, [rng.randint(-99, 99) for _ in range(40)]),
    ]
    bounds = [["--d-max", "2", "--deg-max", "2"],
              ["--d-max", "3", "--deg-max", "1"],
              ["--d-max", "2", "--deg-max", "2"],
              ["--d-max", "2", "--deg-max", "2"], []]
    for text, extra in zip(no_fits, bounds):
        for fmt in ("table", "machine"):
            cases.append(({"v.series": text},
                          [["fit", "v.series", *extra, "--format", fmt]]))
    for text in (cases[0][0]["v.series"], no_fits[4]):
        cases.append(({"v.series": text},
                      [["fit", "v.series", "--d-max", "7", "--format",
                        "machine", "--out", "fit.txt"]]))
    return cases


# Family and system files in the grammar's other spellings: coefficient
# lists, rational entries, comments, blank lines and u as the variable.
# Each family is positive from its first t.
GRAMMAR_FAMILIES = [
    ("# coefficient lists\npoly: [1, 1]      # t + 1\n\npoly: [1, 0, 1]\n"
     "m: 2  # at most one representation\nl: 1\n", 2, 6),
    ("poly: t\npoly: (1/2)t^2 + (1/2)t + 1\npoly: [1, 3/2, 1/2]\n"
     "m: 1\nl: 2\n", 3, 7),
    ("l: 1\npoly: 2u + 1\npoly: u^2+u+1\npoly: -1 + 3*u\nm: 2\n", 1, 5),
]
GRAMMAR_SYSTEMS = [
    "# plain, x3 free\nvars: 3\nnonneg: 1, 1, 0\n"
    "c: [0, 1], [0, -1/2, 1/2], -1\n"
    "row: 1, [0], 0 | <= | [0, 1]   # x1 <= t\n"
    "row: 0, 1, 0 | <= | (1/2)u^2 + (1/2)u\n"
    "row: 0, 0, 1 | <= | 2\nrow: 0, 0, -1 | <= | 2\n"
    "row: 1, -1, 1 | = | [0]\n",
    "# exclusion in u\nm: 2\nn1: 1\nn2: 1\nc: [1]\nsys1:\nvars: 2\n"
    "nonneg: all\nrow: 3, -5 | <= | [0]\nrow: -5, 8 | <= | 0\n"
    "row: [1], 0 | <= | 2u   # k <= 2t\nsys2:\nnonneg: 1\n"
    "row: 1 | <= | 2*u\n",
]


def _grammar_cases():
    """crosscheck and series on each grammar family, pilp on each grammar
    system, and --out on compute, crosscheck and pilp."""
    cases = []
    for text, t_min, t_max in GRAMMAR_FAMILIES:
        window = ["--t-min", str(t_min), "--t-max", str(t_max)]
        cases.append(({"fam.txt": text}, [
            ["crosscheck", "--family", "fam.txt", *window],
            ["crosscheck", "--family", "fam.txt", *window, "--format",
             "machine", "--out", "x.txt"],
            ["series", "--family", "fam.txt", *window, "--out", "s"]]))
    for text in GRAMMAR_SYSTEMS:
        exclusion = "sys1:" in text
        mode = ["--exclusion" if exclusion else "--objective", "--l", "3"]
        cases.append(({"sys.txt": text}, [
            ["pilp", "sys.txt", "--t", "4"],
            ["pilp", "sys.txt", "--t", "5", *mode],
            ["pilp", "sys.txt", "--t", "6", *mode, "--format", "machine",
             "--out", "p.txt"]]))
    cases.append(({}, [
        ["compute", "--a", "6,10,15", "--m", "2", "--l", "3", "--out",
         "c.txt"],
        ["compute", "--a", "[7, 9, 20]", "--format", "machine", "--out",
         "d.txt"]]))
    text = FAMILIES[3][0]
    cases.append(({"fam.txt": text}, [
        ["crosscheck", "--family", "fam.txt", "--t-min", "2", "--t-max", "5",
         "--inject-mismatch", "--out", "x.txt"]]))
    return cases


def _positivity_cases():
    """series on t where every entry is positive, below the entries'
    eventual positivity too, and stopping at the first t where one is
    not: with no output, on a resume, and on a 4400-digit coefficient."""
    dip = "poly: t\npoly: t^2 - 10t + 24\nm: 1\nl: 1\n"  # (t - 4)(t - 6)
    sevens = "7" * 4400
    cases = [
        ({"fam.txt": dip}, [series_steps(1, 3)]),
        ({"fam.txt": dip}, [series_steps(1, 12)]),
        ({"fam.txt": dip}, [series_steps(1, 3), series_steps(2, 5),
                            series_steps(7, 9)]),
        ({"fam.txt": "poly: t\npoly: t^2 - 200000t + 10000000001\nm: 1\n"
                     "l: 1\n"}, [series_steps(1, 12)]),  # (t - 10^5)^2 + 1
    ]
    for entry in (f"t^2 - {sevens}t", f"2t^6 - {sevens}t^5"):
        cases.append(({"fam.txt": f"poly: t\npoly: {entry}\nm: 1\nl: 1\n"},
                      [series_steps(1, 12)]))
    return cases


def _objective_cases():
    """pilp in count and objective mode on a plain file whose objective
    has a non-integer entry, and on exclusion files whose objective has
    one or is too wide."""
    exclusion = ("m: 1\nn1: 1\nn2: 1\nc: {}\nsys1:\nrow: 1, 0 | <= | t\n"
                 "row: 0, 1 | <= | t\nsys2:\nrow: 1 | <= | t\n")
    texts = ["vars: 2\nc: [0, 1], 1/2\nrow: 1, 1 | <= | t\n",
             exclusion.format("1/2"), exclusion.format("1, 1")]
    steps = [["pilp", "sys.txt", "--t", "5"],
             ["pilp", "sys.txt", "--t", "5", "--objective"]]
    return [({"sys.txt": text}, steps) for text in texts]


def _late_fit_cases():
    """fit where classes settle late: the F and G series of (t, t+3, t+7),
    which fit with period 7 after their first finite samples, and a series
    refused for a threshold past the midpoint of its training samples."""
    family = "poly: t\npoly: t + 3\npoly: t + 7\nm: 1\nl: 1\n"
    too_late = _series_text(1, [999 if t < 31 else 3 * t + 1
                                for t in range(1, 61)])
    bounds = ["--d-max", "12", "--deg-max", "4"]
    return [
        ({"fam.txt": family}, [
            series_steps(2, 150),
            ["fit", "s.fml.series", *bounds, "--format", "machine"],
            ["fit", "s.gm.series", *bounds, "--format", "table"]]),
        ({"v.series": too_late}, [["fit", "v.series", "--d-max", "1",
                                  "--deg-max", "3", "--format", "machine"]]),
    ]


def series_steps(t_min, t_max):
    return ["series", "--family", "fam.txt", "--t-min", str(t_min),
            "--t-max", str(t_max), "--out", "s"]


def _error_cases():
    return [({}, [argv]) for argv in [
        ["--help"], ["pilp", "--help"], ["compute"], ["compute", "--a", "0,3"],
        ["compute", "--a", "3,5", "--l", "0"],
        ["pilp", "missing.txt", "--t", "1"],
        ["compute", "--a", "5000,5001", "--m", "1001"]]]


# README's command examples, in order, on its grammar examples. They are
# copied here so a docs edit leaves the record alone; test_readme keeps
# README itself in step with the command line.
README_FILES = {
    "family.txt": "poly: [0, 1]        # t\npoly: t^2 + 2t - 1\nm: 1\nl: 1\n",
    "system.txt": "vars: 2\nnonneg: all\nc: 1, 1\nrow: 1, 1 | <= | t\n",
    "exclusion.txt": (
        "m: 1\nn1: 1\nn2: 1\nc: 1\nsys1:\nrow: 3, -5 | <= | 0\n"
        "row: -5, 8 | <= | 0\nrow: 1, 0 | <= | t\nsys2:\nrow: 1 | <= | t\n"),
}
README_COMMANDS = """\
compute --a 6,10,15 --m 2 --l 1
series --family family.txt --t-min 4 --t-max 120 --out fam
fit fam.fml.series --d-max 12 --deg-max 6
crosscheck --family family.txt --t-min 2 --t-max 12
pilp system.txt --t 4
pilp system.txt --t 9 --objective --l 2
pilp exclusion.txt --t 10 --exclusion"""


def corpus():
    """The cases, each (input files by name, argv of each step)."""
    rng = random.Random(SEED)
    return [*_compute_cases(rng), *_pilp_cases(rng), *_family_cases(rng),
            *_error_cases(),
            (README_FILES, [shlex.split(line) for line in
                            README_COMMANDS.splitlines()]),
            *_fit_cases(rng), *_grammar_cases(),
            *_positivity_cases(), *_objective_cases(), *_late_fit_cases()]


def label(steps) -> str:
    return " ; ".join(shlex.join(argv) for argv in steps)


def run_case(files, steps) -> str:
    """The case's digest, run in a fresh directory that is the working
    directory while its steps run."""
    from parafrob.cli import main

    home = os.getcwd()
    work = Path(tempfile.mkdtemp(prefix="golden-"))
    record = []
    try:
        for name, text in files.items():
            (work / name).write_text(text)
        os.chdir(work)
        for argv in steps:
            out, err = StringIO(), StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    main(list(argv), prog_name="parafrob")
                    code = 0
                except SystemExit as exc:
                    code = exc.code or 0
            record.append([argv, code, out.getvalue(), err.getvalue()])
        written = [[path.name, hashlib.sha256(path.read_bytes()).hexdigest()]
                   for path in sorted(work.iterdir())]
    finally:
        os.chdir(home)
        shutil.rmtree(work)
    blob = json.dumps([record, written], ensure_ascii=False)
    return hashlib.sha256(blob.encode()).hexdigest()


def digests() -> list:
    """[label, digest] per case, in corpus order."""
    return [[label(steps), run_case(files, steps)]
            for files, steps in corpus()]


def first_difference(recorded: list, got: list):
    """The label of the first case whose digest differs, or None."""
    for (old_label, old), (new_label, new) in zip(recorded, got):
        if old_label != new_label:
            return f"corpus changed at {old_label!r} -> {new_label!r}"
        if old != new:
            return new_label
    if len(recorded) != len(got):
        return f"corpus has {len(got)} cases, the record {len(recorded)}"
    return None


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/golden.py --record")
    cases = digests()
    old = json.loads(GOLDEN.read_text())["cases"] if GOLDEN.exists() else []
    changed = [i for i, case in enumerate(cases)
               if i >= len(old) or case != old[i]]
    for i in changed:
        print(f"#{i} {cases[i][0]}")
    print(f"{len(changed)} cases differ from the record")
    GOLDEN.write_text(json.dumps({"seed": SEED, "cases": cases}, indent=1)
                      + "\n")
    print(f"recorded {len(cases)} cases in {GOLDEN.name}")
