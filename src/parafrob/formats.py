"""Text grammars for polynomials, tuples, series, families, and systems.

Numbers are exact everywhere: integers or rationals written p/q. A
polynomial is written either as a coefficient list in ascending degree,
e.g. "[1, -3/2, 1/2]" for 1 - (3/2)u + (1/2)u^2, or as a compact
expression in t or u, e.g. "t^2 - 3t + 1" or "(1/2)t^2". Series files hold
one "t value" pair per line with "-inf" for the bottom value; '#' starts a
comment in every file format.
"""

import re

from .errors import InputError
from .qpoly import BOTTOM, Poly, SampleSeries, _divide

# Each parser imports the domain class it builds from outside qpoly, so a
# command loads only the modules it runs.


def parse_rational(text: str) -> "int | Fraction":
    """An int for an integral rational, else a Fraction."""
    s = text.strip()
    if not re.fullmatch(r"[+-]?\d+(\s*/\s*\d+)?", s):
        raise InputError(f"not an exact rational: {text!r}")
    if "/" not in s:
        return int(s)
    num, den = (int(part) for part in s.split("/"))
    if not den:
        raise InputError(f"zero denominator: {text!r}")
    return _divide(num, den)


def _parse_int(key: str, value: str) -> int:
    """The integer value of a "key: value" header line."""
    try:
        return int(value)
    except ValueError:
        raise InputError(f"'{key}:' must be an integer: {value!r}") from None


def format_rational(q) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


_TERM_PATTERN = (
    r"""^
    (?P<coef>
        [+-]? \( [+-]? \d+ (/\d+)? \) |   # (possibly signed) parenthesized rational
        [+-]? \d+ (/\d+)? |               # plain rational
        [+-]?                             # bare sign (coefficient 1)
    )
    \*?
    (?P<var> [tu] (\^(?P<exp>\d+))? )?
    $"""
)


def _parse_term(term: str):
    # Compiled (and cached by re) on first use: only expressions need it.
    m = re.match(_TERM_PATTERN, term, re.VERBOSE)
    if m is None or (not m.group("coef") and not m.group("var")):
        raise InputError(f"bad polynomial term: {term!r}")
    coef_text = m.group("coef").replace("(", "").replace(")", "")
    bare = {"": 1, "+": 1, "-": -1}  # a bare sign's coefficient
    coef = bare[coef_text] if coef_text in bare else parse_rational(coef_text)
    if m.group("var") is None:
        if coef_text in bare:
            raise InputError(f"bad polynomial term: {term!r}")
        return coef, 0
    exp = int(m.group("exp")) if m.group("exp") else 1
    return coef, exp


def parse_poly(text: str) -> Poly:
    """A polynomial from either the coefficient-list or expression form."""
    s = text.strip()
    if s.startswith("poly:"):
        s = s[len("poly:"):].strip()
    if s.startswith("["):
        if not s.endswith("]"):
            raise InputError(f"unterminated coefficient list: {text!r}")
        inner = s[1:-1].strip()
        if not inner:
            return Poly()
        return Poly(parse_rational(c) for c in inner.split(","))
    s = s.replace(" ", "")
    if not s:
        raise InputError("empty polynomial")
    # Split into signed terms at top level (parentheses only hold rationals).
    terms = re.findall(r"[+-]?(?:\([^)]*\))?[^+-]*", s)
    terms = [term for term in terms if term]
    coeffs = {}
    for term in terms:
        coef, exp = _parse_term(term)
        coeffs[exp] = coeffs.get(exp, 0) + coef
    top = max(coeffs) if coeffs else 0
    return Poly(coeffs.get(i, 0) for i in range(top + 1))


def format_poly_list(p: Poly) -> str:
    if p.is_zero():
        return "[0]"
    return "[" + ", ".join(format_rational(c) for c in p.coeffs) + "]"


def format_poly_expr(p: Poly) -> str:
    """Human form, descending degree: "t^2 - (3/2)t + 1"."""
    if p.is_zero():
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p.coeffs[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if i == 0:
            body = format_rational(mag)
        else:
            if mag == 1:
                body = ""
            elif mag.denominator == 1:
                body = str(mag.numerator)
            else:
                body = f"({format_rational(mag)})"
            body += "t" if i == 1 else f"t^{i}"
        if not parts:
            parts.append(("-" if sign == "-" else "") + body)
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)


def format_extended(v) -> str:
    if v is BOTTOM:
        return "-inf"
    return format_rational(v)


def parse_extended(text: str):
    s = text.strip()
    if s == "-inf":
        return BOTTOM
    return parse_rational(s)


def _content_lines(text: str):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def parse_coins(text: str) -> "Coins":
    """Tuple grammar: "a: [6, 10, 15]", "[6, 10, 15]", or "6,10,15"."""
    from .frobenius import Coins

    s = text.strip()
    if s.startswith("a:"):
        s = s[2:].strip()
    if s.startswith("[") and s.endswith("]"):
        s = s[1:-1]
    if "[" in s or "]" in s:
        raise InputError(f"misplaced bracket in tuple: {text!r}")
    parts = [p.strip() for p in s.split(",") if p.strip()]
    if not parts:
        raise InputError(f"empty tuple: {text!r}")
    try:
        return Coins(int(p) for p in parts)
    except ValueError:
        raise InputError(f"tuple entries must be integers: {text!r}") from None


def format_coins(coins: "Coins") -> str:
    return "a: [" + ", ".join(str(e) for e in coins.a) + "]"


def parse_series(text: str) -> SampleSeries:
    pairs = []
    for line in _content_lines(text):
        fields = line.split()
        if len(fields) != 2:
            raise InputError(f"series lines are 't value': {line!r}")
        try:
            t = int(fields[0])
        except ValueError:
            raise InputError(f"bad t in series line: {line!r}") from None
        pairs.append((t, parse_extended(fields[1])))
    if len({t for t, _ in pairs}) != len(pairs):
        raise InputError("duplicate t in series")
    return SampleSeries.from_pairs(pairs)


def format_series(series: SampleSeries) -> str:
    lines = [f"{t} {format_extended(v)}" for t, v in series.items()]
    return "\n".join(lines) + "\n"


def parse_family(text: str) -> "PolyFamily":
    """Family grammar: one "poly:" line per entry plus "m:" and "l:"."""
    from .reduction import PolyFamily

    polys = []
    header = {}
    for line in _content_lines(text):
        if line.startswith("poly:"):
            polys.append(parse_poly(line))
        elif line[:2] in ("m:", "l:"):
            key = line[0]
            _set_header(header, key, _parse_int(key, line[2:].strip()))
        else:
            raise InputError(f"unexpected family line: {line!r}")
    if header.keys() != {"m", "l"}:
        raise InputError("family file must set m: and l:")
    return PolyFamily(tuple(polys), header["m"], header["l"])


def _split_top_level(text: str) -> list:
    """Split on commas that are not inside brackets."""
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def _parse_row(line: str, n: int) -> "Row":
    from .pilp import EQ, LE, Row

    pieces = [p.strip() for p in line.split("|")]
    if len(pieces) != 3:
        raise InputError(f"rows are 'coeffs | sense | rhs': {line!r}")
    coeffs = tuple(parse_poly(c) for c in _split_top_level(pieces[0]))
    if len(coeffs) != n:
        raise InputError(f"expected {n} coefficients: {line!r}")
    sense = pieces[1]
    if sense == "=":
        sense = EQ
    if sense not in (LE, EQ):
        raise InputError(f"sense must be <= or ==: {line!r}")
    return Row(coeffs, sense, parse_poly(pieces[2]))


def _parse_nonneg(value: str, n: int) -> tuple:
    if value == "all":
        return (True,) * n
    flags = [f for f in re.split(r"[,\s]+", value) if f]
    if len(flags) != n or any(f not in ("0", "1") for f in flags):
        raise InputError(f"nonneg wants 'all' or {n} 0/1 flags: {value!r}")
    return tuple(f == "1" for f in flags)


def _set_header(header: dict, key: str, value):
    if key in header:
        raise InputError(f"repeated header '{key}:'")
    header[key] = value


def _build_system(header: dict, rows: list,
                  c=None) -> "ParametricConstraintSystem":
    """The system of a header, its rows and the objective text c, if any."""
    from .pilp import ParametricConstraintSystem

    if "vars" not in header:
        raise InputError("system is missing 'vars:'")
    n = _parse_int("vars", header["vars"])
    # Each row is checked against n before n sizes a tuple, so a huge
    # vars: fails on a row. A row-less system leaves every variable
    # unbounded.
    if not rows:
        raise InputError("a system needs at least one row")
    parsed = tuple(_parse_row(r, n) for r in rows)
    nonneg = _parse_nonneg(header.get("nonneg", "all"), n)
    objective = () if c is None else map(parse_poly, _split_top_level(c))
    return ParametricConstraintSystem(parsed, nonneg, tuple(objective))


def parse_system_file(text: str):
    """Parse a constraint-system file.

    A plain file (header lines plus "row:" lines) yields ("system",
    system), its "c:" line the system's objective. A file with
    "sys1:"/"sys2:" sections and m/n1/n2 headers yields ("exclusion",
    problem), its "c:" line sys2's objective.
    """
    lines = list(_content_lines(text))
    top = ([], {})  # rows, header
    sections = ({"sys1:": ([], {}), "sys2:": ([], {})} if "sys1:" in lines
                else {})
    top_keys = ("m", "n1", "n2", "c") if sections else ("vars", "nonneg", "c")
    current, name, opened = top, None, set()
    for line in lines:
        if line in sections:
            if line in opened:
                raise InputError(f"repeated section '{line}'")
            opened.add(line)
            current, name = sections[line], line
            continue
        key, colon, value = (part.strip() for part in line.partition(":"))
        if not colon:
            raise InputError(f"unexpected system line: {line!r}")
        if key == "row":
            if sections and current is top:
                raise InputError("row outside sys1:/sys2: section")
            current[0].append(value)
        elif key in (("vars", "nonneg") if name else top_keys):
            _set_header(current[1], key, value)
        else:
            where = f" in {name}" if name else ""
            raise InputError(f"unknown header '{key}:'{where}")
    rows, header = top
    c = header.get("c")
    if not sections:
        return "system", _build_system(header, rows, c)

    for key in ("m", "n1", "n2"):
        if key not in header:
            raise InputError(f"exclusion file is missing '{key}:'")
    m, n1, n2 = (_parse_int(key, header[key]) for key in ("m", "n1", "n2"))
    if c is None:
        raise InputError("exclusion file is missing 'c:'")

    from .pilp import ExclusionProblem

    systems = []
    for name, n, objective in (("sys1:", n1 + n2, None), ("sys2:", n2, c)):
        rows, header = sections[name]
        header.setdefault("vars", str(n))
        if _parse_int("vars", header["vars"]) != n:
            raise InputError("section vars: disagrees with n1/n2")
        systems.append(_build_system(header, rows, objective))
    return "exclusion", ExclusionProblem(m, *systems)
