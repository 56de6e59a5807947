"""The paper's two proof steps, modelled on concrete systems and formulas.

digit_transform rewrites each variable of a nonnegative system as r base-t
digits, a bijection on the box [0, t^r); disjoint_expand turns a DNF
formula over parametric inequalities into an equivalent one whose clauses
are pairwise disjoint. No command runs them: the tests check both against
the engine in ``pilp``, and the expansion against a truth-table oracle.
"""

import itertools

from parafrob.errors import InputError, ResourceLimitError, frozen
from parafrob.pilp import LE, ExclusionProblem, ParametricConstraintSystem, Row
from parafrob.qpoly import Poly

# A disjoint expansion with more clauses than this aborts.
CLAUSE_LIMIT = 100_000

# Base-t digit bijections.


def _check_digit_args(t: int, r: int):
    if t < 2:
        raise InputError("base t must be >= 2")
    if r < 1:
        raise InputError("digit count r must be >= 1")


def digit_decode(y, t: int, r: int) -> tuple:
    """Per-coordinate base-t value of a digit vector of length r*n.

    Digit j of coordinate i sits at position i*r + j (least significant
    digit first).
    """
    _check_digit_args(t, r)
    if len(y) % r != 0:
        raise InputError("digit vector length must be a multiple of r")
    if any(d < 0 or d >= t for d in y):
        raise InputError(f"digits must lie in [0, {t - 1}]")
    out = []
    for i in range(len(y) // r):
        block = y[i * r:(i + 1) * r]
        out.append(sum(d * t**j for j, d in enumerate(block)))
    return tuple(out)


def digit_encode(x, t: int, r: int) -> tuple:
    """The unique digit vector with digit_decode(result) == x."""
    _check_digit_args(t, r)
    out = []
    for v in x:
        if v < 0 or v >= t**r:
            raise InputError(f"value {v} outside [0, {t}^{r})")
        for _ in range(r):
            v, d = divmod(v, t)
            out.append(d)
    return tuple(out)


def _digit_weighted(polys, r: int) -> tuple:
    """Each polynomial times u^j for digit j = 0..r-1, in digit order."""
    return tuple(p * Poly.variable() ** j for p in polys for j in range(r))


def digit_transform(sys: ParametricConstraintSystem, r: int) -> ParametricConstraintSystem:
    """Rewrite each variable as r base-t digits.

    Variable i becomes digits (i*r .. i*r + r - 1), each constrained to
    [0, t-1]; the coefficient of digit j, in each row and in the
    objective, is the original coefficient times u^j. Valid for systems
    whose variables are all nonnegative (the digit image covers exactly
    [0, t^r)^n).
    """
    if r < 1:
        raise InputError("digit count r must be >= 1")
    if not all(sys.nonneg):
        raise InputError("digit transform requires all-nonnegative variables")
    rows = [Row(_digit_weighted(row.coeffs, r), row.sense, row.rhs)
            for row in sys.rows]
    cap = Poly((-1, 1))  # u - 1
    for pos in range(sys.n * r):
        coeffs = [Poly()] * (sys.n * r)
        coeffs[pos] = Poly.constant(1)
        rows.append(Row(tuple(coeffs), LE, cap))
    return ParametricConstraintSystem(tuple(rows), (True,) * (sys.n * r),
                                      _digit_weighted(sys.c, r))


def digit_transform_exclusion(ex: ExclusionProblem, r: int) -> ExclusionProblem:
    """Digit-rewrite both systems of an exclusion problem, objectives
    included."""
    return ExclusionProblem(ex.m, digit_transform(ex.sys1, r),
                            digit_transform(ex.sys2, r))


# DNF formulas over parametric inequalities, and disjoint expansion.


@frozen
class Atom:
    """A parametric inequality coeffs . z <= rhs over named integer
    variables; negation stays inside the atom language."""

    coeffs: tuple
    rhs: Poly

    def negated(self) -> "Atom":
        return Atom(tuple(-c for c in self.coeffs), -self.rhs - Poly.constant(1))

    def holds(self, z, t) -> bool:
        lhs = sum(c(t) * zi for c, zi in zip(self.coeffs, z))
        return lhs <= self.rhs(t)


@frozen
class DnfFormula:
    """Disjunction of conjunctions of atoms; clause and atom order matter
    (the expansion below is defined in terms of them)."""

    variables: tuple
    clauses: tuple

    def __post_init__(self):
        for clause in self.clauses:
            for atom in clause:
                if len(atom.coeffs) != len(self.variables):
                    raise InputError("atom width must match variable count")


def disjoint_expand(f: DnfFormula) -> DnfFormula:
    """Equivalent DNF whose clauses are pairwise unsatisfiable together.

    Each output clause extends an input clause S with, for every earlier
    clause R, a chosen "first failing atom" of R: the atoms of R before the
    choice hold and the chosen atom is negated. Distinct choices conflict
    on the chosen atom, so the output clauses are disjoint by construction
    while their union is unchanged. More than CLAUSE_LIMIT output clauses
    raise ResourceLimitError.
    """
    out = []
    for idx, clause in enumerate(f.clauses):
        earlier = f.clauses[:idx]
        for choice in itertools.product(
            *(range(len(R) - 1, -1, -1) for R in earlier)
        ):
            prefix = []
            for R, w in zip(earlier, choice):
                prefix.extend(R[:w])
                prefix.append(R[w].negated())
            out.append(tuple(prefix) + clause)
            if len(out) > CLAUSE_LIMIT:
                raise ResourceLimitError(
                    f"expansion exceeds {CLAUSE_LIMIT} clauses"
                )
    return DnfFormula(f.variables, tuple(out))


# The truth-table oracle for DNF formulas: each atom is a boolean variable
# shared with its negation, so equal satisfying sets mean equal formulas
# whatever the atoms say about z.


def base_literal(a):
    """(canonical base atom key, polarity): an atom and its negation
    share the base and differ in polarity."""
    mine = (tuple(p.coeffs for p in a.coeffs), a.rhs.coeffs)
    neg = a.negated()
    other = (tuple(p.coeffs for p in neg.coeffs), neg.rhs.coeffs)
    if mine <= other:
        return mine, True
    return other, False


def base_map(formulas):
    """The base atoms of the formulas, in order of first appearance."""
    order = []
    seen = set()
    for f in formulas:
        for clause in f.clauses:
            for a in clause:
                key, _ = base_literal(a)
                if key not in seen:
                    seen.add(key)
                    order.append(key)
    return order


def truth_table_sets(f, bases):
    """Satisfying assignments and per-assignment clause counts."""
    index = {key: i for i, key in enumerate(bases)}
    compiled = [
        [(index[key], polarity) for key, polarity in map(base_literal, clause)]
        for clause in f.clauses
    ]
    sat = set()
    counts = []
    for bits in itertools.product((False, True), repeat=len(bases)):
        hits = 0
        for clause in compiled:
            if all(bits[i] == polarity for i, polarity in clause):
                hits += 1
        if hits:
            sat.add(bits)
        counts.append(hits)
    return sat, counts
