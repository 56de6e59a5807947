"""Batch command line for exact Frobenius quantities, lattice enumeration,
and series fitting.

Commands: compute, series, fit, crosscheck, pilp. All numeric output is
exact (integer or rational strings); the machine format is line-oriented
key/value text so runs can be diffed byte for byte. Exit codes: 0 success,
2 input error (usage errors included), 3 resource limit, 4 crosscheck
mismatch, 5 crosscheck window with no checked row. Package errors are
mapped to exit codes in one place, ``main``, which raises ``SystemExit``
for any code but 0 and so can run in process. A process starts at
``entry``: it runs ``main``, flushes stdout and stderr, and ends with
``os._exit``, skipping the interpreter's teardown.

Options are parsed from one grammar table, ``_COMMANDS``, which also
gives the usage lines and help pages. Each command imports the modules it
runs inside its body, so a cold start loads only those.
"""

import errno
import os
import sys
from pathlib import Path

from . import formats
from .errors import (
    DEFAULT_POINT_CAP,
    InputError,
    ParafrobError,
    ResourceLimitError,
)
from .qpoly import BOTTOM, SampleSeries

EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_MISMATCH = 4
EXIT_UNCHECKED = 5


def _emit(lines, out: str | None):
    text = "\n".join(lines) + "\n"
    if out is not None:
        Path(out).write_text(text)
    elif sys.stdout is None:  # started with stdout closed (``>&-``)
        raise BrokenPipeError("stdout is closed")
    elif (raw := getattr(sys.stdout, "buffer", None)) is None:
        sys.stdout.write(text)
    else:  # unbuffered, the text layer would drop a partial write's rest
        sys.stdout.flush()
        data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
        while data:
            if (n := raw.write(data)) is None:  # a non-blocking fd is full
                raise BlockingIOError(errno.EAGAIN, "stdout would block")
            data = data[n:]


def compute(tuple_text, m, l, fmt, out):
    """Frobenius number, genus, and their (m, l) generalizations.

    Also prints min(h(k), max(m, 2)) for k = 0..16, where h(k) counts the
    representations of k.
    """
    from . import frobenius

    coins = formats.parse_coins(tuple_text)
    table = frobenius.apery_table(coins, m)
    f = table.frobenius(1, 1)
    g = table.genus(1)
    fml = table.frobenius(m, l)
    gm = table.genus(m)
    cap = max(m, 2)
    excerpt = [1] + [0] * 16  # the capped coin DP over k = 0..16
    for a in coins.a:
        for k in range(a, 17):
            excerpt[k] = min(excerpt[k] + excerpt[k - a], cap)
    if fmt == "machine":
        lines = [f"F {f}", f"G {g}", f"F_m_l {fml}", f"G_m {gm}"]
        lines += [f"h {k} {c}" for k, c in enumerate(excerpt)]
    else:
        lines = [
            f"tuple          {formats.format_coins(coins)}",
            f"F              {f}",
            f"G              {g}",
            f"F_m_l (m={m}, l={l})  {fml}",
            f"G_m   (m={m})        {gm}",
            f"h(k) capped at {cap}, k = 0..16:",
            "  " + " ".join(str(c) for c in excerpt),
        ]
    _emit(lines, out)


def series(family_path, t_min, t_max, out_prefix):
    """Sample the family's l-th answer and count over a t range.

    Re-running with an existing output only computes the missing t values
    and rewrites the merged, sorted series.
    """
    if t_min > t_max:
        raise InputError("empty t range")
    fam = formats.parse_family(Path(family_path).read_text())
    _sample_series(("fml", "gm"), fam.answers, t_min, t_max, out_prefix)


def _sample_series(keys, sample, t_min, t_max, out_prefix):
    """Merge sample(t), one value per key in order, into each
    <out_prefix>.<key>.series where some output lacks t; print what it wrote."""
    targets = {key: Path(f"{out_prefix}.{key}.series") for key in keys}
    existing = {key: {} for key in keys}
    for key, path in targets.items():
        new = not path.exists()
        if not new:
            old = formats.parse_series(path.read_text())
            if t_min > old.t_max + 1 or t_max < old.t_min - 1:
                raise InputError(
                    f"t = {t_min}..{t_max} and the t = {old.t_min}..{old.t_max}"
                    f" in {path} would leave a gap in the merged series")
            existing[key].update(old.items())
        # An unwritable output fails here, before any sampling. A file this
        # opens new is removed again, so a failed run leaves none behind.
        with open(path, "a"):
            pass
        if new:
            path.unlink()
    for t in range(t_min, t_max + 1):
        if any(t not in existing[key] for key in keys):
            for key, value in zip(keys, sample(t)):
                existing[key][t] = value
    lines = []
    for key, path in targets.items():
        merged = SampleSeries.from_pairs(existing[key].items())
        path.write_text(formats.format_series(merged))
        lines.append(f"wrote {path} ({len(merged)} samples)")
    _emit(lines, None)


def fit(series_path, d_max, deg_max, fmt, out):
    """Fit an eventual quasi-polynomial to a series file.

    Of the N samples, the last min(2*d_max, N // 2) are held out and must be
    reproduced exactly; each residue class of a period needs deg_max + 3
    training points. A class may settle late: its polynomial covers its
    longest final run of degree <= deg_max, and the threshold is the last
    t before such a run in any class. A period whose threshold lies past
    the midpoint of the training samples is refused.
    """
    from . import eqpfit

    data = formats.parse_series(Path(series_path).read_text())
    result = eqpfit.fit_quasipolynomial(data, d_max, deg_max)
    if isinstance(result, eqpfit.Fit):
        qp = result.qp
        if fmt == "machine":
            lines = ["fit FIT", f"period {qp.period}",
                     f"threshold {qp.threshold}"]
            for i, comp in enumerate(qp.components):
                body = "-inf" if comp is BOTTOM else formats.format_poly_list(comp)
                lines.append(f"component {i} {body}")
            lines.append(f"training_checked {result.training_checked}")
            lines.append(f"holdout_checked {result.holdout_checked}")
        else:
            lines = ["FIT", f"  period    {qp.period}",
                     f"  threshold {qp.threshold} (valid for t > threshold)"]
            for i, comp in enumerate(qp.components):
                body = "-inf" if comp is BOTTOM else formats.format_poly_expr(comp)
                lines.append(f"  component t = {i} (mod {qp.period}):  {body}")
            lines.append(
                f"  checked   {result.training_checked} training + "
                f"{result.holdout_checked} holdout samples, all exact"
            )
    elif fmt == "machine":
        lines = ["fit NO_FIT"]
        for d, residue, reason in result.diagnostics:
            where = "-" if residue is None else str(residue)
            lines.append(f"diagnostic {d} {where} {reason}")
        lines.append(f"note {result.note}")
    else:
        lines = ["NO_FIT"]
        for d, residue, reason in result.diagnostics:
            where = "" if residue is None else f", class {residue}"
            lines.append(f"  period {d}{where}: {reason}")
        lines.append(f"  note: {result.note}")
    _emit(lines, out)


def crosscheck(family_path, t_min, t_max, point_cap, inject_mismatch, fmt,
               out):
    """Compare the exclusion path against the direct path per t."""
    from . import reduction

    fam = formats.parse_family(Path(family_path).read_text())
    report = reduction.crosscheck(fam, t_min, t_max, point_cap)
    if inject_mismatch:
        report = _corrupt(report)
    # Only the table shows each row's box exponent r_t: scripts split a
    # machine row into its six fields.
    table = fmt == "table"
    lines = []
    if table:
        lines.append(
            "t | r_t | f_l(t)-l | F_direct | g(t) | G_direct+l | status")
    for row in report.rows:
        lead = row.t
        if table:
            lead = f"{row.t} | {'-' if row.r is None else row.r}"
        if row.status == reduction.SKIPPED:
            lines.append(f"{lead} | - | - | - | - | SKIPPED ({row.note})")
            continue
        lines.append(
            f"{lead} | {formats.format_extended(row.f_exclusion)} | "
            f"{row.f_direct} | {row.g_exclusion} | {row.g_direct} | "
            f"{row.status}"
        )
    offsets = ",".join(str(d) for d in report.g_offsets) or "-"
    lines.append(f"checked {report.checked}")
    lines.append(f"f_all_equal {report.f_all_equal}")
    lines.append(f"g_offsets {offsets}")
    if report.ok:
        verdict, code = "OK", 0
    elif report.checked == 0:
        verdict, code = "UNCHECKED", EXIT_UNCHECKED
    else:
        verdict, code = "MISMATCH", EXIT_MISMATCH
    lines.append(f"verdict {verdict}")
    _emit(lines, out)
    return code


def _corrupt(report):
    """Shift the first checked row's direct value; for exercising exit code 4.

    Where the exclusion value already equals the shifted one, the row shows
    the unshifted direct value there instead, so it still reads DIFF.
    """
    from . import reduction

    rows = list(report.rows)
    for i, row in enumerate(rows):
        if row.status != reduction.SKIPPED:
            f_direct = row.f_direct + 1
            f_exclusion = (row.f_direct if row.f_exclusion == f_direct
                           else row.f_exclusion)
            rows[i] = reduction.CrosscheckRow(
                row.t, f_exclusion, f_direct, row.g_exclusion, row.g_direct,
                "injected mismatch", row.r)
            break
    return reduction.CrosscheckReport(tuple(rows))


def pilp_cmd(system_path, t_value, mode, l_value, point_cap, fmt, out):
    """Lattice count, ranked objective values, or exclusion feasible set."""
    from . import pilp

    kind, parsed = formats.parse_system_file(Path(system_path).read_text())
    l = None if mode == "count" else l_value
    if kind == "exclusion":
        feasible, top = pilp.exclusion_profile(parsed, t_value, l, point_cap)
        lines = [f"size {len(feasible)}"]
    else:
        if mode == "exclusion":
            raise InputError("--exclusion needs an exclusion file")
        if mode == "objective" and not parsed.c:
            raise InputError("--objective needs a c: line in the file")
        size, top = pilp.lattice_profile(parsed, t_value, l, point_cap)
        lines = [f"count {size}"] if mode == "count" else []
    lines += [f"objective {i} {formats.format_extended(v)}"
              for i, v in enumerate(top, start=1)]
    if mode == "exclusion":
        lines += ["point " + " ".join(str(x) for x in pt)
                  for pt in feasible]
    _emit(lines, out)


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{text!r} is not a valid integer.") from None


def _point_cap(text: str) -> int:
    if (cap := _int(text)) < 1:
        raise ValueError(f"{cap} is not in the range x>=1.")
    return cap


def _format(text: str) -> str:
    if text not in ("table", "machine"):
        raise ValueError(f"{text!r} is not one of 'table', 'machine'.")
    return text


def _existing_path(text: str) -> str:
    if not Path(text).exists():
        raise ValueError(f"Path {text!r} does not exist.")
    return text


# The option grammar, read by the parser, the usage lines and the help
# pages: per command, its function and its rows (name, dest, converter,
# default, help). A name without dashes is a positional argument. A
# default of _REQUIRED makes the row required. A converter that is not
# callable makes a flag: it takes no value and stores that constant in
# dest. A help of None hides the row.
_REQUIRED = object()
_OUTPUT = (
    ("--format", "fmt", _format, "table", "Output style: table or machine."),
    ("--out", "out", str, None, "Write to this file, not stdout."))
_RANGE = (("--family", "family_path", _existing_path, _REQUIRED,
           "Family file (poly/m/l)."),
          ("--t-min", "t_min", _int, _REQUIRED, "First t."),
          ("--t-max", "t_max", _int, _REQUIRED, "Last t."))
_POINT_CAP = ("--point-cap", "point_cap", _point_cap, DEFAULT_POINT_CAP,
              "Work cap per search: its nodes plus, per leaf run, 1 to count "
              "it, the values tried to rank it, or its points to list them.")
_COMMANDS = {
    "compute": (compute, (
        ("--a", "tuple_text", str, _REQUIRED,
         "Denomination tuple, e.g. '3,5' or '[6, 10, 15]'."),
        ("--m", "m", _int, 1, "Multiplicity bound."),
        ("--l", "l", _int, 1, "Rank of the answer."), *_OUTPUT)),
    "series": (series, (*_RANGE, (
        "--out", "out_prefix", str, _REQUIRED,
        "Write <out>.fml.series and <out>.gm.series."))),
    "fit": (fit, (
        ("SERIES_PATH", "series_path", _existing_path, _REQUIRED,
         "Series file: 't value' lines."),
        ("--d-max", "d_max", _int, 24, "Largest period tried."),
        ("--deg-max", "deg_max", _int, 6, "Largest component degree."),
        *_OUTPUT)),
    "crosscheck": (crosscheck, (
        *_RANGE, _POINT_CAP,
        # Hidden: corrupts the first checked row, to exercise exit code 4.
        ("--inject-mismatch", "inject_mismatch", True, False, None),
        *_OUTPUT)),
    "pilp": (pilp_cmd, (
        ("SYSTEM_PATH", "system_path", _existing_path, _REQUIRED,
         "Plain or exclusion system."),
        ("--t", "t_value", _int, _REQUIRED, "The parameter t."),
        ("--count", "mode", "count", "count",
         "Print the lattice point count [default]."),
        ("--objective", "mode", "objective", "count",
         "Print the l largest objective values (plain systems need c:)."),
        ("--exclusion", "mode", "exclusion", "count",
         "Print the feasible set of an exclusion file."),
        ("--l", "l_value", _int, 1,
         "How many objective values to print, at most the point cap."),
        _POINT_CAP, *_OUTPUT)),
}


def _parse(prog: str, args: list):
    """(function, keyword arguments) of one command line. A help page
    exits 0 and a usage error exits 2, both by SystemExit."""
    name = args[0] if args else None
    if name in ("-h", "--help"):
        _help(prog)
    if name not in _COMMANDS:
        _fail(prog, None, f"No such command {name!r}." if args
              else "Missing argument 'COMMAND'.")
    function, rows = _COMMANDS[name]
    options = {row[0]: row for row in rows if row[0].startswith("-")}
    positionals = [row for row in rows if not row[0].startswith("-")]
    values = {}
    for row in rows:
        values.setdefault(row[1], None if row[3] is _REQUIRED else row[3])
    args = iter(args[1:])
    for arg in args:
        if arg in ("-h", "--help"):
            _help(prog, name)
        key, eq, text = arg.partition("=")
        if not arg.startswith("-"):
            if not positionals:
                _fail(prog, name, f"Got unexpected extra argument {arg!r}.")
            row, text = positionals.pop(0), arg
        elif (row := options.get(key)) is None:
            _fail(prog, name, f"No such option {key!r}.")
        elif not callable(row[2]):
            if eq:
                _fail(prog, name, f"Option {key!r} does not take a value.")
        elif not eq and (text := next(args, None)) is None:
            _fail(prog, name, f"Option {key!r} requires an argument.")
        try:
            values[row[1]] = row[2](text) if callable(row[2]) else row[2]
        except ValueError as exc:
            _fail(prog, name, f"Invalid value for {row[0]!r}: {exc}")
    for row in rows:  # no converter returns None
        if row[3] is _REQUIRED and values[row[1]] is None:
            kind = "option" if row[0].startswith("-") else "argument"
            _fail(prog, name, f"Missing {kind} {row[0]!r}.")
    return function, values


def _head(row) -> str:
    """A row as usage spells it: its name, and a placeholder for a value."""
    if row[0].startswith("-") and callable(row[2]):
        return f"{row[0]} {row[1].upper()}"
    return row[0]


def _usage(prog: str, name) -> str:
    if name is None:
        return f"usage: {prog} [-h] COMMAND ..."
    heads = [_head(row) if row[3] is _REQUIRED else f"[{_head(row)}]"
             for row in _COMMANDS[name][1] if row[4]]
    return " ".join([f"usage: {prog} {name} [-h]", *heads])


def _help(prog: str, name=None):
    """Print the help page of the program, or of one command; exit 0."""
    if name is None:
        # Docstrings are None under python -OO.
        doc, title = (__doc__ or "").split("\n\n", 1)[0], "commands"
        entries = [(command, (function.__doc__ or "").split("\n", 1)[0])
                   for command, (function, _) in _COMMANDS.items()]
    else:
        function, rows = _COMMANDS[name]
        doc = (function.__doc__ or "").strip().replace("\n    ", "\n")
        title = "options"
        entries = [("-h, --help", "Show this help and exit.")]
        for row in rows:
            if row[4]:
                shown = callable(row[2]) and row[3] not in (None, _REQUIRED)
                default = f" [default: {row[3]}]" if shown else ""
                entries.append((_head(row), row[4] + default))
    width = max(len(head) for head, _ in entries)
    print(_usage(prog, name), "", doc, "", f"{title}:", sep="\n")
    print("\n".join(f"  {head:<{width}}  {text}" for head, text in entries))
    sys.exit(0)


def _fail(prog: str, name, message: str):
    """Report a usage error on stderr and exit 2."""
    where = prog if name is None else f"{prog} {name}"
    print(f"{_usage(prog, name)}\n{where}: error: {message}", file=sys.stderr)
    sys.exit(EXIT_INPUT)


def main(args=None, prog_name=None):
    """Run one command line (default ``sys.argv[1:]``).

    A usage error prints the usage line and ``PROG CMD: error: ...`` to
    stderr and exits 2; ``-h``/``--help`` prints a help page and exits 0.
    A package error prints ``error: ...`` to stderr and exits 3 for a
    resource limit, 2 otherwise; an OS error, or a file that is not UTF-8
    text, prints the same way and exits 2. A command's nonzero exit code
    ends the run with ``SystemExit``. A reader that closes stdout early
    (``parafrob ... | head``), or a stdout closed from the start
    (``parafrob ... >&-``), ends the run quietly with exit 1 unless the
    command had nothing to print there; an interrupt prints ``Aborted!``
    and exits 1. In process, ``main`` returns on exit 0 and raises
    ``SystemExit`` otherwise; the process entry is ``entry``.
    """
    if hasattr(sys, "set_int_max_str_digits"):  # 3.10.7 and later
        sys.set_int_max_str_digits(0)  # exact answers may be long
    try:
        command, options = _parse(prog_name or "parafrob",
                                  sys.argv[1:] if args is None else list(args))
        code = command(**options)
        if sys.stdout is not None:  # a closed reader shows up here
            sys.stdout.flush()
    except ParafrobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        limit = isinstance(exc, ResourceLimitError)
        code = EXIT_RESOURCE if limit else EXIT_INPUT
    except BrokenPipeError:
        # Point stdout at devnull, so a later flush cannot fail again.
        if sys.stdout is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_INPUT
        if isinstance(exc, BlockingIOError) and sys.stdout is not None:
            # A full non-blocking stdout: drop the rest, as above.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except (KeyboardInterrupt, EOFError):
        print("\nAborted!", file=sys.stderr)
        code = 1
    if code:
        sys.exit(code)


# The click-era spelling of the entry point, still used by perfbench/run.py.
main.main = main


def entry():
    """The process entry of ``python -m parafrob.cli`` and of the
    ``parafrob`` script: run ``main``, flush stdout and stderr, and end the
    process with ``os._exit``, without the interpreter's teardown.

    The exit code is ``main``'s ``SystemExit`` code, an int or None for 0;
    any other code is raised again, as is any other exception, so Python
    reports it as usual. If a flush fails, the process ends by the normal
    exit instead. Skipping teardown loses nothing: parafrob registers no
    ``atexit`` handler, and each file it writes is closed before ``main``
    returns.
    """
    try:
        main()
        code = 0
    except SystemExit as exc:
        if exc.code is not None and not isinstance(exc.code, int):
            raise
        code = exc.code or 0
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry()
