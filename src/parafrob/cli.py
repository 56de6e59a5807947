"""Batch command-line front end.

Commands: compute, series, fit, crosscheck, pilp. All numeric output is
exact (integer or rational strings); the machine format is line-oriented
key/value text so runs can be diffed byte for byte. Exit codes: 0 success,
2 input error, 3 resource limit, 4 crosscheck mismatch, 5 crosscheck
window with no checked row. Package errors are mapped to exit codes in one
place, the group's ``invoke``.

Each command imports the modules it runs inside its body, so a cold start
loads only those.
"""

import sys
from dataclasses import replace
from pathlib import Path

import click

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
        click.echo(text, nl=False)
    else:
        Path(out).write_text(text)


format_option = click.option(
    "--format", "fmt", type=click.Choice(["table", "machine"]),
    default="table", show_default=True, help="Output style.",
)
out_option = click.option(
    "--out", default=None, help="Write output to this file instead of stdout.",
)
point_cap_option = click.option(
    "--point-cap", default=DEFAULT_POINT_CAP, show_default=True,
    type=click.IntRange(min=1),
    help="Work cap per enumerated system: search nodes entered below the "
         "root plus lattice points taken.",
)


class _Group(click.Group):
    """Ends any command that raises a package error with its exit code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ParafrobError as exc:
            click.echo(f"error: {exc}", err=True)
            limit = isinstance(exc, ResourceLimitError)
            sys.exit(EXIT_RESOURCE if limit else EXIT_INPUT)


@click.group(cls=_Group)
def main():
    """Exact Frobenius quantities, lattice enumeration, and series fitting."""


@main.command()
@click.option("--a", "tuple_text", required=True,
              help="Denomination tuple, e.g. '3,5' or '[6, 10, 15]'.")
@click.option("--m", default=1, show_default=True, help="Multiplicity bound.")
@click.option("--l", default=1, show_default=True, help="Rank of the answer.")
@click.option("--h-excerpt", default=16, show_default=True,
              help="Print min(h(k), m) for k up to this bound.")
@format_option
@out_option
def compute(tuple_text, m, l, h_excerpt, fmt, out):
    """Frobenius number, genus, and their (m, l) generalizations."""
    from . import frobenius

    coins = formats.parse_coins(tuple_text)
    table = frobenius.apery_table(coins, m)
    f = table.frobenius(1, 1)
    g = table.genus(1)
    fml = table.frobenius(m, l)
    gm = table.genus(m)
    excerpt = frobenius.rep_count_table(coins, h_excerpt, cap=max(m, 2))
    if fmt == "machine":
        lines = [f"F {f}", f"G {g}", f"F_m_l {fml}", f"G_m {gm}"]
        lines += [f"h {k} {c}" for k, c in enumerate(excerpt.counts)]
    else:
        lines = [
            f"tuple          {formats.format_coins(coins)}",
            f"F              {f}",
            f"G              {g}",
            f"F_m_l (m={m}, l={l})  {fml}",
            f"G_m   (m={m})        {gm}",
            f"h(k) capped at {excerpt.cap}, k = 0..{excerpt.bound}:",
            "  " + " ".join(str(c) for c in excerpt.counts),
        ]
    _emit(lines, out)


@main.command()
@click.option("--family", "family_path", required=True,
              type=click.Path(exists=True), help="Family file (poly/m/l).")
@click.option("--t-min", required=True, type=int)
@click.option("--t-max", required=True, type=int)
@click.option("--out", "out_prefix", required=True,
              help="Series are written to <out>.fml.series and <out>.gm.series.")
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
        existing[key] = (
            dict(formats.parse_series(path.read_text()).items())
            if path.exists() else {}
        )
    have = set(existing["fml"]) & set(existing["gm"])
    for t in range(t_min, t_max + 1):
        if t not in have:
            f_new, g_new = reduction.direct_series(fam, t, t)
            existing["fml"][t] = f_new.value_at(t)
            existing["gm"][t] = g_new.value_at(t)
    for key, path in targets.items():
        merged = eqpfit.SampleSeries.from_pairs(existing[key].items())
        path.write_text(formats.format_series(merged))
        click.echo(f"wrote {path} ({len(merged)} samples)")


@main.command()
@click.argument("series_path", type=click.Path(exists=True))
@click.option("--d-max", default=24, show_default=True)
@click.option("--deg-max", default=6, show_default=True)
@click.option("--holdout", default=None, type=int,
              help="Trailing samples reserved for validation [default: 2*d_max].")
@click.option("--min-support", default=None, type=int,
              help="Training points required per residue class [default: deg_max+3].")
@format_option
@out_option
def fit(series_path, d_max, deg_max, holdout, min_support, fmt, out):
    """Fit an eventual quasi-polynomial to a series file."""
    from . import eqpfit

    data = formats.parse_series(Path(series_path).read_text())
    cfg = eqpfit.FitConfig(d_max=d_max, deg_max=deg_max, holdout=holdout,
                           min_support=min_support)
    result = eqpfit.fit_quasipolynomial(data, cfg)
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


@main.command()
@click.option("--family", "family_path", required=True,
              type=click.Path(exists=True))
@click.option("--t-min", required=True, type=int)
@click.option("--t-max", required=True, type=int)
@point_cap_option
@click.option("--inject-mismatch", is_flag=True, hidden=True,
              help="Corrupt one checked row (test mode).")
@click.option("--seed", default=0, show_default=True,
              help="Selects the corrupted row in --inject-mismatch mode.")
@format_option
@out_option
def crosscheck(family_path, t_min, t_max, point_cap, inject_mismatch, seed,
               fmt, out):
    """Compare the exclusion path against the direct path per t."""
    from . import reduction

    fam = formats.parse_family(Path(family_path).read_text())
    report = reduction.crosscheck(fam, t_min, t_max, point_cap)
    if inject_mismatch:
        report = _corrupt(report, seed)
    lines = []
    header = "t | f_l(t)-l | F_direct | g(t) | G_direct+l | status"
    if fmt == "table":
        lines.append(header)
    for row in report.rows:
        if row.status == reduction.SKIPPED:
            lines.append(f"{row.t} | - | - | - | - | SKIPPED ({row.note})")
            continue
        lines.append(
            f"{row.t} | {formats.format_extended(row.f_exclusion)} | "
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
    if code:
        sys.exit(code)


def _corrupt(report, seed: int):
    """Shift one checked row's direct value; for exercising exit code 4."""
    from . import reduction

    checked = [i for i, row in enumerate(report.rows)
               if row.status != reduction.SKIPPED]
    if not checked:
        return report
    target = checked[seed % len(checked)]
    rows = list(report.rows)
    row = rows[target]
    rows[target] = replace(row, status=reduction.DIFF,
                           f_direct=row.f_direct + 1, note="injected mismatch")
    return reduction.CrosscheckReport(tuple(rows))


@main.command(name="pilp")
@click.argument("system_path", type=click.Path(exists=True))
@click.option("--t", "t_value", required=True, type=int)
@click.option("--count", "mode", flag_value="count", default=True,
              help="Print the lattice point count [default].")
@click.option("--objective", "mode", flag_value="objective",
              help="Print the l largest objective values (plain systems need c:).")
@click.option("--exclusion", "mode", flag_value="exclusion",
              help="Print the feasible set of an exclusion file.")
@click.option("--l", "l_value", default=1, show_default=True,
              help="How many ranked objective values to print.")
@point_cap_option
@format_option
@out_option
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
                  for pt in feasible.points]
    _emit(lines, out)


if __name__ == "__main__":
    main()
