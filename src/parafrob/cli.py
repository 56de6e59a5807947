"""Batch command-line front end.

Commands: compute, series, fit, crosscheck, pilp. All numeric output is
exact (integer or rational strings); the machine format is line-oriented
key/value text so runs can be diffed byte for byte. Exit codes: 0 success,
2 input error (usage errors included), 3 resource limit, 4 crosscheck
mismatch, 5 crosscheck window with no checked row. Package errors are
mapped to exit codes in one place, ``main``.

Options are parsed by the standard library's argparse, and each command
imports the modules it runs inside its body, so a cold start loads only
those.
"""

import argparse
import os
import sys
from itertools import groupby
from pathlib import Path

from . import formats
from .errors import (
    DEFAULT_POINT_CAP,
    InputError,
    ParafrobError,
    ResourceLimitError,
)
from .qpoly import BOTTOM

EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_MISMATCH = 4
EXIT_UNCHECKED = 5


def _emit(lines, out: str | None):
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


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
    excerpt = frobenius.rep_count_table(coins, 16, cap)
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
    from . import eqpfit, reduction

    if t_min > t_max:
        raise InputError("empty t range")
    fam = formats.parse_family(Path(family_path).read_text())
    targets = {
        "fml": Path(f"{out_prefix}.fml.series"),
        "gm": Path(f"{out_prefix}.gm.series"),
    }
    existing = {}
    for key, path in targets.items():
        existing[key] = {}
        if path.exists():
            old = formats.parse_series(path.read_text())
            if t_min > old.t_max + 1 or t_max < old.t_min - 1:
                raise InputError(
                    f"t = {t_min}..{t_max} and the t = {old.t_min}..{old.t_max}"
                    f" in {path} would leave a gap in the merged series")
            existing[key] = dict(old.items())
    have = set(existing["fml"]) & set(existing["gm"])
    missing = [t for t in range(t_min, t_max + 1) if t not in have]
    # One direct_series call per run of consecutive missing t: each call
    # finds the family's positivity start again.
    for _, run in groupby(enumerate(missing), lambda it: it[1] - it[0]):
        ts = [t for _, t in run]
        f_new, g_new = reduction.direct_series(fam, ts[0], ts[-1])
        existing["fml"].update(f_new.items())
        existing["gm"].update(g_new.items())
    for key, path in targets.items():
        merged = eqpfit.SampleSeries.from_pairs(existing[key].items())
        path.write_text(formats.format_series(merged))
        print(f"wrote {path} ({len(merged)} samples)")


def fit(series_path, d_max, deg_max, fmt, out):
    """Fit an eventual quasi-polynomial to a series file.

    Of the N samples, the last min(2*d_max, N // 2) are held out and must be
    reproduced exactly; each residue class of a period needs deg_max + 3
    training points.
    """
    from . import eqpfit

    data = formats.parse_series(Path(series_path).read_text())
    result = eqpfit.fit_quasipolynomial(data, d_max, deg_max)
    lines = fit_report_lines(result, fmt)
    _emit(lines, out)


def fit_report_lines(result, fmt: str) -> list:
    from . import eqpfit

    if isinstance(result, eqpfit.Fit):
        qp = result.qp
        if fmt == "machine":
            lines = [
                "fit FIT",
                f"period {qp.period}",
                f"threshold {qp.threshold}",
            ]
            for i, comp in enumerate(qp.components):
                body = "-inf" if comp is BOTTOM else formats.format_poly_list(comp)
                lines.append(f"component {i} {body}")
            lines.append(f"training_checked {result.training_checked}")
            lines.append(f"holdout_checked {result.holdout_checked}")
            return lines
        lines = [
            "FIT",
            f"  period    {qp.period}",
            f"  threshold {qp.threshold} (valid for t > threshold)",
        ]
        for i, comp in enumerate(qp.components):
            body = "-inf" if comp is BOTTOM else formats.format_poly_expr(comp)
            lines.append(f"  component t = {i} (mod {qp.period}):  {body}")
        lines.append(
            f"  checked   {result.training_checked} training + "
            f"{result.holdout_checked} holdout samples, all exact"
        )
        return lines
    if fmt == "machine":
        lines = ["fit NO_FIT"]
        for d, residue, reason in result.diagnostics:
            where = "-" if residue is None else str(residue)
            lines.append(f"diagnostic {d} {where} {reason}")
        lines.append(f"note {result.note}")
        return lines
    lines = ["NO_FIT"]
    for d, residue, reason in result.diagnostics:
        where = "" if residue is None else f", class {residue}"
        lines.append(f"  period {d}{where}: {reason}")
    lines.append(f"  note: {result.note}")
    return lines


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
    """Shift the first checked row's direct value; for exercising exit code 4."""
    from . import reduction

    rows = list(report.rows)
    for i, row in enumerate(rows):
        if row.status != reduction.SKIPPED:
            rows[i] = reduction.CrosscheckRow(
                row.t, reduction.DIFF, row.f_exclusion, row.f_direct + 1,
                row.g_exclusion, row.g_direct, "injected mismatch", row.r)
            break
    return reduction.CrosscheckReport(tuple(rows))


def pilp_cmd(system_path, t_value, mode, l_value, point_cap, fmt, out):
    """Lattice count, ranked objective values, or exclusion feasible set."""
    from . import pilp

    parsed = formats.parse_system_file(Path(system_path).read_text())
    l = None if mode == "count" else l_value
    if parsed[0] == "exclusion":
        feasible, top = pilp.exclusion_profile(parsed[1], t_value, l,
                                               point_cap)
        lines = [f"size {len(feasible)}"]
    else:
        _, system, objective = parsed
        if mode == "exclusion":
            raise InputError("--exclusion needs an exclusion file")
        if mode == "objective" and objective is None:
            raise InputError("--objective needs a c: line in the file")
        size, top = pilp.lattice_profile(system, t_value, objective, l,
                                         point_cap)
        lines = [f"count {size}"] if mode == "count" else []
    lines += [f"objective {i} {formats.format_extended(v)}"
              for i, v in enumerate(top, start=1)]
    if mode == "exclusion":
        lines += ["point " + " ".join(str(x) for x in pt)
                  for pt in feasible]
    _emit(lines, out)


def _existing_path(text: str) -> str:
    if not Path(text).exists():
        raise argparse.ArgumentTypeError(f"Path {text!r} does not exist.")
    return text


class _AtLeastOne(argparse.Action):
    def __call__(self, parser, namespace, value, option_string=None):
        if value < 1:
            parser.error(f"Invalid value for {option_string!r}: {value} is "
                         "not in the range x>=1.")
        setattr(namespace, self.dest, value)


def _parser(prog: str) -> argparse.ArgumentParser:
    """The option grammar; each command's namespace holds its keyword
    arguments plus ``command``, the function to call with them."""
    parser = argparse.ArgumentParser(
        prog=prog, allow_abbrev=False,
        description="Exact Frobenius quantities, lattice enumeration, and "
                    "series fitting.")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND",
                                     required=True)

    def command(function, name=None):
        doc = function.__doc__
        sub = commands.add_parser(name or function.__name__,
                                  help=doc.split("\n", 1)[0], description=doc,
                                  allow_abbrev=False)
        sub.set_defaults(command=function)
        return sub.add_argument

    def output_options(option):
        option("--format", dest="fmt", choices=("table", "machine"),
               default="table", help="Output style. [default: %(default)s]")
        option("--out", help="Write output to this file instead of stdout.")

    def point_cap_option(option):
        option("--point-cap", type=int, default=DEFAULT_POINT_CAP,
               action=_AtLeastOne,
               help="Work cap per enumerated system: search nodes entered "
                    "below the root plus lattice points taken. [default: "
                    "%(default)s; x>=1]")

    option = command(compute)
    option("--a", dest="tuple_text", metavar="TUPLE", required=True,
           help="Denomination tuple, e.g. '3,5' or '[6, 10, 15]'.")
    option("--m", type=int, default=1,
           help="Multiplicity bound. [default: %(default)s]")
    option("--l", type=int, default=1,
           help="Rank of the answer. [default: %(default)s]")
    output_options(option)

    option = command(series)
    option("--family", dest="family_path", metavar="PATH", required=True,
           type=_existing_path, help="Family file (poly/m/l).")
    option("--t-min", required=True, type=int)
    option("--t-max", required=True, type=int)
    option("--out", dest="out_prefix", metavar="PREFIX", required=True,
           help="Series are written to <out>.fml.series and <out>.gm.series.")

    option = command(fit)
    option("series_path", metavar="SERIES_PATH", type=_existing_path)
    option("--d-max", type=int, default=24,
           help="Largest period tried. [default: %(default)s]")
    option("--deg-max", type=int, default=6,
           help="Largest component degree. [default: %(default)s]")
    output_options(option)

    option = command(crosscheck)
    option("--family", dest="family_path", metavar="PATH", required=True,
           type=_existing_path)
    option("--t-min", required=True, type=int)
    option("--t-max", required=True, type=int)
    point_cap_option(option)
    # Hidden: corrupts the first checked row, to exercise exit code 4.
    option("--inject-mismatch", action="store_true", help=argparse.SUPPRESS)
    output_options(option)

    option = command(pilp_cmd, "pilp")
    option("system_path", metavar="SYSTEM_PATH", type=_existing_path)
    option("--t", dest="t_value", metavar="T", required=True, type=int)
    option("--count", dest="mode", action="store_const", const="count",
           default="count", help="Print the lattice point count [default].")
    option("--objective", dest="mode", action="store_const",
           const="objective",
           help="Print the l largest objective values (plain systems need c:).")
    option("--exclusion", dest="mode", action="store_const",
           const="exclusion",
           help="Print the feasible set of an exclusion file.")
    option("--l", dest="l_value", metavar="L", type=int, default=1,
           help="How many ranked objective values to print. "
                "[default: %(default)s]")
    point_cap_option(option)
    output_options(option)
    return parser


def main(args=None, prog_name=None):
    """Run one command line (default ``sys.argv[1:]``).

    A usage error exits 2 from argparse; a package error prints
    ``error: ...`` to stderr and exits 3 for a resource limit, 2 otherwise;
    a command's nonzero exit code ends the run with ``SystemExit``. A reader
    that closes stdout early (``parafrob ... | head``) ends the run quietly
    with exit 1, and an interrupt prints ``Aborted!`` and exits 1.
    """
    namespace = vars(_parser(prog_name or "parafrob").parse_args(args))
    command = namespace.pop("command")
    try:
        code = command(**namespace)
        sys.stdout.flush()  # a closed reader shows up here, not at exit
    except ParafrobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        limit = isinstance(exc, ResourceLimitError)
        code = EXIT_RESOURCE if limit else EXIT_INPUT
    except BrokenPipeError:
        # Point stdout at devnull, so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    except (KeyboardInterrupt, EOFError):
        print("\nAborted!", file=sys.stderr)
        code = 1
    if code:
        sys.exit(code)


# The click-era spelling of the entry point, still used by perfbench/run.py.
main.main = main

if __name__ == "__main__":
    main()
