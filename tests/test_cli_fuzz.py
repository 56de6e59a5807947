"""The command line on drawn, then mutated inputs: every run ends in one of
the documented exit codes, never in a traceback.

Argument vectors come from the rows of the CLI's own grammar table; input
files come from each file grammar and then take at most one mutation.
Numbers stay small so that each run is short: exponents at most 6, |t| at
most 30, t windows at most 8 wide and point caps at most 10^4.
"""

import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from clirun import run_cli
from parafrob import cli

EXIT_CODES = {0, cli.EXIT_INPUT, cli.EXIT_RESOURCE, cli.EXIT_MISMATCH,
              cli.EXIT_UNCHECKED}
SMALL = st.integers(-4, 4)
T = st.integers(1, 30) | st.integers(-30, 30)


def mostly(strategy, rare):
    """Values of strategy 9 times in 10, else rare."""
    return st.tuples(st.sampled_from([True] * 9 + [False]), strategy).map(
        lambda pair: pair[1] if pair[0] else rare)


@st.composite
def coefficient(draw):
    """An exact number as the grammars write it: an int or p/q."""
    num, den = draw(SMALL), draw(mostly(st.just(1), 2))
    return str(num) if den == 1 else f"{num}/{den}"


@st.composite
def poly_text(draw, max_degree=6):
    """A polynomial in t, as a coefficient list or as an expression; the
    leading coefficient is mostly positive, so families are mostly valid."""
    coeffs = draw(st.lists(coefficient(), max_size=max_degree))
    coeffs.append(str(draw(mostly(st.integers(1, 3), -1))))
    if draw(st.booleans()):
        return "[" + ", ".join(coeffs) + "]"
    terms = [(c, e) for e, c in enumerate(coeffs) if c != "0"] or [("0", 0)]
    out = []
    for c, e in reversed(terms):
        sign, mag = ("-", c[1:]) if c.startswith("-") else ("+", c)
        mag = f"({mag})" if "/" in mag and e else mag
        body = mag if not e else (mag if mag != "1" else "") + (
            "t" if e == 1 else f"t^{e}")
        out.append(f"{sign} {body}")
    return " ".join(out).removeprefix("+ ")


@st.composite
def tuple_text(draw):
    entries = ", ".join(map(str, draw(st.lists(st.integers(1, 40),
                                              min_size=2, max_size=4))))
    return draw(st.sampled_from([entries, f"[{entries}]", f"a: [{entries}]"]))


@st.composite
def family_text(draw):
    # The first entry is linear with small coefficients: the residue tables,
    # sized by the smallest entry, stay small.
    first = f"{draw(st.integers(1, 3))}t + {draw(st.integers(0, 3))}"
    others = draw(st.lists(poly_text(), min_size=1, max_size=2))
    lines = [f"poly: {p}" for p in (first, *others)]
    lines += [f"m: {draw(st.integers(1, 3))}", f"l: {draw(st.integers(1, 3))}"]
    return "".join(line + "\n" for line in draw(st.permutations(lines)))


@st.composite
def series_text(draw):
    n = draw(st.integers(0, 40))
    t0 = draw(st.integers(-30, 30 - n))
    head = draw(st.integers(0, n))
    coeffs = draw(st.lists(SMALL, min_size=1, max_size=4))
    period = draw(st.integers(1, 3))
    lines = []
    for t in range(t0, t0 + n):
        value = sum(c * t**i for i, c in enumerate(coeffs)) + t % period
        if t - t0 < head:
            value = "-inf"
        elif draw(st.integers(0, 20)) == 0:  # sparse noise
            value = draw(coefficient())
        lines.append(f"{t} {value}\n")
    return "".join(lines)


@st.composite
def rows_text(draw, width):
    entry = st.one_of(SMALL.map(str), st.sampled_from(["t", "-t", "2t - 1"]))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        coeffs = ", ".join(draw(entry) for _ in range(width))
        sense = draw(st.sampled_from(["<=", "==", "="]))
        rows.append(f"row: {coeffs} | {sense} | {draw(poly_text(3))}\n")
    return "".join(rows)


@st.composite
def system_text(draw):
    if draw(st.booleans()):
        n = draw(st.integers(1, 3))
        nonneg = draw(st.sampled_from(["all", " ".join(["1", "0", "1"][:n])]))
        objective = ", ".join(draw(SMALL.map(str)) for _ in range(n))
        return (f"vars: {n}\nnonneg: {nonneg}\nc: {objective}\n"
                + draw(rows_text(n)))
    n1, n2 = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    objective = ", ".join(draw(SMALL.map(str)) for _ in range(n2))
    return (f"m: {draw(st.integers(1, 3))}\nn1: {n1}\nn2: {n2}\n"
            f"c: {objective}\nsys1:\n" + draw(rows_text(n1 + n2))
            + "sys2:\n" + draw(rows_text(n2)))


# A digit run that is not an exponent.
NUMBER = re.compile(r"(?<![\^\d])\d+")
NUMBER_EDITS = {
    "zero denominator": lambda digits: digits + "/0",
    "4400 digits": lambda digits: "7" * 4400,
    "zero": lambda digits: "0",
    "negative": lambda digits: "-" + digits,
}


@st.composite
def mutated(draw, text):
    """text unchanged half the time, else with one mutation."""
    if draw(st.booleans()):
        return text
    kind = draw(st.sampled_from([*NUMBER_EDITS, "stray bracket",
                                 "missing line", "repeated line", "empty",
                                 "never positive"]))
    numbers = list(NUMBER.finditer(text))
    if kind == "4400 digits":
        # Not in a family entry: its positivity start, found by bisection
        # one bit at a time, can itself have thousands of digits, and a
        # run then takes minutes.
        numbers = [m for m in numbers if not text[
            text.rfind("\n", 0, m.start()) + 1:].startswith("poly:")]
    lines = text.splitlines(keepends=True)
    if kind in NUMBER_EDITS and numbers:
        m = draw(st.sampled_from(numbers))
        return text[:m.start()] + NUMBER_EDITS[kind](m.group()) + text[m.end():]
    if kind == "stray bracket":
        i = draw(st.integers(0, len(text)))
        return text[:i] + draw(st.sampled_from("[]()")) + text[i:]
    if kind in ("missing line", "repeated line") and lines:
        i = draw(st.integers(0, len(lines) - 1))
        copies = 2 if kind == "repeated line" else 0
        return "".join(lines[:i] + lines[i:i + 1] * copies + lines[i + 1:])
    if kind == "empty":
        return ""
    if kind == "never positive":  # families only
        return re.sub(r"poly:.*", "poly: -t^2 - 1", text, count=1)
    return text


FILES = {"family_path": family_text, "series_path": series_text,
         "system_path": system_text}
VALUES = {
    "m": mostly(st.integers(1, 4), 0), "l": mostly(st.integers(1, 4), 0),
    "l_value": mostly(mostly(st.integers(1, 4), 0), "7" * 4400),
    "t_value": T,
    "d_max": mostly(st.integers(1, 6), 0),
    "deg_max": mostly(st.integers(0, 4), -1),
    "point_cap": mostly(st.integers(1, 10**4), 0),
    "fmt": mostly(st.sampled_from(["table", "machine"]), "json"),
}


@st.composite
def command_line(draw, name, tmp: Path):
    """An argument vector for one command, drawn row by row from its
    grammar, with the files it names written under tmp."""
    args = [name]
    t_min = None
    for flag, dest, convert, default, _ in cli._COMMANDS[name][1]:
        # The point cap always comes in: its default is 100 times the cap
        # the runs are kept to. A required row is left out 1 time in 10.
        if dest != "point_cap" and not draw(
                mostly(st.just(True), False) if default is cli._REQUIRED
                else st.booleans()):
            continue
        if not callable(convert):
            args.append(flag)
            continue
        if dest in FILES:
            path = tmp / "input.txt"
            path.write_text(draw(mutated(draw(FILES[dest]()))))
            value = str(draw(mostly(st.just(path), tmp / "missing")))
        elif dest == "tuple_text":
            value = draw(mutated(draw(tuple_text())))
        elif dest in ("out", "out_prefix"):
            value = str(tmp / "out")
        elif dest == "t_min":
            value = t_min = draw(T)
        elif dest == "t_max":
            value = draw(T) if t_min is None else min(
                30, t_min + draw(st.integers(-1, 7)))
        else:
            value = draw(VALUES[dest])
        args += [str(value)] if flag == dest.upper() else [flag, str(value)]
    return args


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(st.data())
def test_every_command_line_ends_in_a_documented_exit_code(data):
    name = data.draw(st.sampled_from(sorted(cli._COMMANDS)))
    with tempfile.TemporaryDirectory() as tmp:
        args = data.draw(command_line(name, Path(tmp)))
        res = run_cli(args)
    assert res.exit_code in EXIT_CODES, (args, res.output)
    assert "Traceback" not in res.output, args
