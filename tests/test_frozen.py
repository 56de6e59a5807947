"""The frozen value-class decorator against dataclass(frozen=True)."""

import dataclasses
import importlib

import pytest

from parafrob.errors import frozen


def sample_class(decorate):
    @decorate
    class Sample:
        a: int
        b: tuple
        c: int | None = None
        d: str = "d"

        def __post_init__(self):
            if self.a < 0:
                raise ValueError("a must be >= 0")
            if self.c is None:
                object.__setattr__(self, "c", 2 * self.a)

    return Sample


CALLS = [
    ((1, (2,)), {}),
    ((1,), {"b": (), "d": "x"}),
    ((), {"a": 3, "b": (1, 2), "c": 7}),
    ((0, (), 5, "e"), {}),
]
BAD_CALLS = [
    ((), {}),
    ((1,), {}),
    ((1, (), 3, "d", 5), {}),
    ((1,), {"a": 2, "b": ()}),
    ((1, ()), {"e": 0}),
]


def test_frozen_matches_frozen_dataclass():
    ours = sample_class(frozen)
    theirs = sample_class(dataclasses.dataclass(frozen=True))
    assert ours.__match_args__ == theirs.__match_args__ == ("a", "b", "c", "d")
    for args, kwargs in CALLS:
        x, y = ours(*args, **kwargs), theirs(*args, **kwargs)
        assert (x.a, x.b, x.c, x.d) == (y.a, y.b, y.c, y.d)
        assert repr(x) == repr(y)
        assert hash(x) == hash(y) == hash(ours(*args, **kwargs))
        assert x == ours(*args, **kwargs)
        assert x != y  # equal fields, different classes
    assert ours(1, ()).c == 2 and ours(1, (), 0).c == 0
    assert ours(1, ()) != ours(1, (), 3)
    for cls in (ours, theirs):
        with pytest.raises(ValueError):
            cls(-1, ())
        for args, kwargs in BAD_CALLS:
            with pytest.raises(TypeError):
                cls(*args, **kwargs)
        obj = cls(1, ())
        with pytest.raises(AttributeError):
            obj.a = 2
        with pytest.raises(AttributeError):
            obj.extra = 2
        with pytest.raises(AttributeError):
            del obj.a
        assert obj == cls(1, (), 2, "d")


# Every value class of the package and of the test oracles with its fields,
# in order: how annotations are stored differs between Python versions, and
# a class whose field list came out empty or short would break every command.
VALUE_CLASSES = [
    ("parafrob.qpoly", "QuasiPolynomial", ("components", "threshold")),
    ("parafrob.frobenius", "Coins", ("a",)),
    ("parafrob.frobenius", "AperyTable", ("g", "a", "values")),
    ("parafrob.qpoly", "SampleSeries", ("t_min", "values")),
    ("parafrob.eqpfit", "Fit", ("qp", "training_checked", "holdout_checked")),
    ("parafrob.eqpfit", "NoFit", ("diagnostics",)),
    ("oracles", "ValidationReport",
     ("agree_count", "compared_count", "first_disagreement")),
    ("parafrob.pilp", "Row", ("coeffs", "sense", "rhs")),
    ("parafrob.pilp", "ParametricConstraintSystem", ("rows", "nonneg", "c")),
    ("parafrob.pilp", "ExclusionProblem", ("m", "sys1", "sys2")),
    ("proofs", "Atom", ("coeffs", "rhs")),
    ("proofs", "DnfFormula", ("variables", "clauses")),
    ("parafrob.reduction", "PolyFamily", ("polys", "m", "l")),
    ("parafrob.reduction", "CrosscheckRow",
     ("t", "f_exclusion", "f_direct", "g_exclusion", "g_direct", "note",
      "r")),
    ("parafrob.reduction", "CrosscheckReport", ("rows",)),
]


@pytest.mark.parametrize("module, name, fields", VALUE_CLASSES,
                         ids=[name for _, name, _ in VALUE_CLASSES])
def test_value_class_fields(module, name, fields):
    cls = getattr(importlib.import_module(module), name)
    assert cls.__match_args__ == fields
