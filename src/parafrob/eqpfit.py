"""Detect and fit eventual quasi-polynomial structure in exact sample series.

A fit is exact or it is no fit: a returned quasi-polynomial reproduces every
training and holdout sample above its threshold with zero tolerance, and
each residue class is judged from its exact forward-difference table. A
NO_FIT verdict only means no fit exists within the searched period/degree
bounds; it is not a proof that the sampled function has no such structure.
"""

from .errors import InputError, frozen
from .qpoly import BOTTOM, Poly, QuasiPolynomial, _divide


@frozen
class SampleSeries:
    """Exact values on a contiguous integer range [t_min, t_min + len - 1]."""

    t_min: int
    values: tuple

    def __post_init__(self):
        if not self.values:
            raise InputError("series must be nonempty")

    @classmethod
    def from_pairs(cls, pairs) -> "SampleSeries":
        items = sorted(pairs)
        ts = [t for t, _ in items]
        if not items:
            raise InputError("series must be nonempty")
        if ts != list(range(ts[0], ts[0] + len(ts))):
            raise InputError("sample keys must be contiguous integers")
        return cls(ts[0], tuple(v for _, v in items))

    @property
    def t_max(self) -> int:
        return self.t_min + len(self.values) - 1

    def items(self):
        return [(self.t_min + i, v) for i, v in enumerate(self.values)]

    def __len__(self):
        return len(self.values)


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


def _fit_class(points, deg_max: int, first_t: int):
    """Judge one residue class: (tail, threshold) or (None, reason).

    The class's suffix is its trailing run of points of the same kind,
    BOTTOM or finite, as its last point, and must hold at least
    ``deg_max + 3`` points (min_support). A BOTTOM suffix's tail is BOTTOM.
    A finite suffix is equally spaced, so the polynomial of degree <=
    deg_max through its earliest ``deg_max + 1`` points matches all of it
    exactly when its (deg_max+1)-th differences vanish (no tail-window
    shopping: anchoring anywhere later would let any series with a long
    polynomial stretch "fit"); its tail is (t0, heads), the suffix's first
    t and its differences 0..deg_max there. The threshold is the last t
    before the suffix (first_t - 1 when none).
    """
    bottom = points[-1][1] is BOTTOM
    start = len(points)
    while start and (points[start - 1][1] is BOTTOM) == bottom:
        start -= 1
    if len(points) - start < deg_max + 3:
        return None, "trailing values mix -inf and finite samples"
    threshold = points[start - 1][0] if start else first_t - 1
    if bottom:
        return BOTTOM, threshold
    row, heads = [v for _, v in points[start:]], []
    for _ in range(deg_max + 1):
        heads.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    if any(row):
        return None, (
            f"the polynomial of degree <= {deg_max} through the "
            f"earliest points does not match the rest of the class"
        )
    return (points[start][0], heads), threshold


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

    A candidate period splits the training samples by residue class and
    fits each class on its own; it succeeds when every class fits and
    the assembled quasi-polynomial reproduces every holdout sample, all of
    which lie above its threshold. Only the holdout is compared: the
    training samples above the threshold lie in their classes' suffixes
    and agree by construction.

    Every class of period d holds at least N // d of the N training
    points, and some class holds no more, so a class falls short of
    min_support exactly when d > N // min_support. Those periods are not
    tried; one closing diagnostic covers them all.
    """
    if d_max < 1 or deg_max < 0:
        raise InputError("d_max must be >= 1 and deg_max >= 0")
    holdout = min(2 * d_max, len(series) // 2)
    min_support = deg_max + 3
    items = series.items()
    split = len(items) - holdout
    training, held = items[:split], items[split:]
    if len(training) < min_support:
        raise InputError(
            f"{len(training)} training samples cannot support any fit "
            f"(min_support={min_support})"
        )

    diagnostics = []
    supported = len(training) // min_support
    for d in range(1, min(d_max, supported) + 1):
        classes = {}
        for t, v in training:
            classes.setdefault(t % d, []).append((t, v))
        tails, threshold = [], series.t_min - 1
        for r in range(d):
            tail, info = _fit_class(classes[r], deg_max, series.t_min)
            if tail is None:
                diagnostics.append((d, r, info))
                break
            tails.append(tail)
            threshold = max(threshold, info)
        else:
            qp = QuasiPolynomial(tuple(
                tail if tail is BOTTOM else _forward_poly(*tail, d)
                for tail in tails), threshold)
            miss = next((t for t, v in held if qp.eval(t) != v), None)
            if miss is None:
                # The training t are contiguous and end at training[-1][0].
                return Fit(qp, training[-1][0] - threshold, holdout)
            diagnostics.append((d, None, f"holdout mismatch at t={miss}"))
    if d_max > supported:
        d = supported + 1
        diagnostics.append(
            (d, None,
             f"up to period {d_max}, each period has a class of at most "
             f"{len(training) // d} training points (min_support={min_support})"))
    return NoFit(tuple(diagnostics))

