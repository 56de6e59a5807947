"""Detect and fit eventual quasi-polynomial structure in exact sample series.

This module is the fitter only: ``SampleSeries`` lives in qpoly, so the
commands that read or write series do not load it.

A fit is exact or it is no fit: a returned quasi-polynomial reproduces every
training and holdout sample above its threshold with zero tolerance, and
each residue class is judged from its exact forward-difference table. A
NO_FIT verdict only means no fit exists within the searched period/degree
bounds; it is not a proof that the sampled function has no such structure.
"""

from .errors import InputError, frozen
from .qpoly import BOTTOM, Poly, QuasiPolynomial, SampleSeries, _divide


@frozen
class Fit:
    """Successful fit: qp reproduces all post-threshold samples exactly."""

    qp: QuasiPolynomial
    training_checked: int
    holdout_checked: int


@frozen
class NoFit:
    """Bounded-search failure verdict with per-(period, residue) reasons."""

    diagnostics: tuple  # of (d, residue-or-None, reason)

    note = (
        "bounded-search verdict: no fit within the configured period and "
        "degree bounds; this does not prove the series has no eventual "
        "quasi-polynomial structure"
    )


def _fit_class(values, deg_max: int):
    """Judge one residue class's values: (heads, start) or (None, reason).

    The class's suffix lies in its trailing run of values of the same
    kind, BOTTOM or finite, as its last value; it begins at index
    ``start`` and must hold at least ``deg_max + 3`` values (min_support).
    A BOTTOM suffix is the whole run, and its heads are BOTTOM. A finite
    run is equally spaced, so a stretch of it is one polynomial of degree
    <= deg_max exactly when the (deg_max+1)-th differences inside it
    vanish. Entry j of that row involves values j..j+deg_max+1, so the
    suffix starts just past the row's last nonzero entry. Its heads are
    its differences 0..deg_max at ``start``.
    """
    bottom = values[-1] is BOTTOM
    start = len(values)
    while start and (values[start - 1] is BOTTOM) == bottom:
        start -= 1
    if len(values) - start < deg_max + 3:
        return None, "trailing values mix -inf and finite samples"
    if bottom:
        return BOTTOM, start
    rows = [values[start:]]
    for _ in range(deg_max + 1):
        rows.append([b - a for a, b in zip(rows[-1], rows[-1][1:])])
    last = rows.pop()
    skip = next((j + 1 for j in reversed(range(len(last))) if last[j]), 0)
    if len(values) - start - skip < deg_max + 3:
        return None, (f"no run of {deg_max + 3} points of degree <= "
                      f"{deg_max} ends the class")
    return [row[skip] for row in rows], start + skip


def _forward_poly(t0: int, heads, step: int) -> Poly:
    """The polynomial with forward differences ``heads`` at t0, for points
    ``step`` apart: Newton's forward form, nested and scaled by n!*step^n
    (n = len(heads) - 1) to stay over Z, then divided once."""
    acc, scale = Poly(), 1
    for j in reversed(range(len(heads))):
        acc = acc * Poly((-t0 - j * step, 1)) + heads[j] * scale
        scale *= j * step or 1
    return Poly(_divide(c, scale) for c in acc.coeffs)


def fit_quasipolynomial(series: SampleSeries, d_max: int = 24,
                        deg_max: int = 6):
    """Search periods 1..d_max for an exact eventual fit; minimal period wins.

    The period bound ``d_max`` and the degree bound ``deg_max`` set the
    whole search. The last ``min(2*d_max, len(series) // 2)`` samples are
    the holdout: they are left out of fitting and must be reproduced
    exactly afterwards (at most half the series is reserved, so a short
    series still leaves something to train on). Each residue class needs
    ``min_support = deg_max + 3`` training points: ``deg_max + 1`` fix its
    polynomial and at least two more confirm it.

    A candidate period d splits the training samples by residue class,
    each a stride-d slice of the values from its first t, and fits each
    class on its own; a class's threshold is the last t before its
    suffix. The period is refused when its threshold, the largest of its
    classes', lies past the midpoint of the training window: at least
    half the training samples must confirm the fit. Otherwise it succeeds
    when the assembled quasi-polynomial reproduces every holdout sample,
    all of which lie above its threshold. Only the holdout is compared:
    the training samples above the threshold lie in their classes'
    suffixes and agree by construction.

    Every class of period d holds at least N // d of the N training
    points, and some class holds no more, so a class falls short of
    min_support exactly when d > N // min_support. Those periods are not
    tried; one closing diagnostic covers them all.
    """
    if d_max < 1 or deg_max < 0:
        raise InputError("d_max must be >= 1 and deg_max >= 0")
    holdout = min(2 * d_max, len(series) // 2)
    min_support = deg_max + 3
    t_min, values = series.t_min, series.values
    split = len(values) - holdout
    if split < min_support:
        raise InputError(
            f"{split} training samples cannot support any fit "
            f"(min_support={min_support})"
        )

    diagnostics = []
    supported = split // min_support
    for d in range(1, min(d_max, supported) + 1):
        tails, threshold = [], t_min - 1
        for r in range(d):
            first = t_min + (r - t_min) % d
            heads, start = _fit_class(values[first - t_min:split:d], deg_max)
            if heads is None:
                diagnostics.append((d, r, start))  # start is the reason
                break
            tails.append(heads if heads is BOTTOM
                         else (first + start * d, heads))
            threshold = max(threshold, first + (start - 1) * d)
        else:
            if 2 * threshold > 2 * t_min + split - 1:
                diagnostics.append((d, None, "threshold past the first half "
                                             "of the training window"))
                continue
            qp = QuasiPolynomial(tuple(
                tail if tail is BOTTOM else _forward_poly(*tail, d)
                for tail in tails), threshold)
            miss = next((t for t, v in enumerate(values[split:], t_min + split)
                         if qp.eval(t) != v), None)
            if miss is None:
                return Fit(qp, t_min + split - 1 - threshold, holdout)
            diagnostics.append((d, None, f"holdout mismatch at t={miss}"))
    if d_max > supported:
        d = supported + 1
        diagnostics.append(
            (d, None,
             f"up to period {d_max}, each period has a class of at most "
             f"{split // d} training points (min_support={min_support})"))
    return NoFit(tuple(diagnostics))

