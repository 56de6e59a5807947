"""Exception types and the value-class decorator shared across the package.

The CLI maps the exceptions onto exit codes (see cli.py): input problems
exit 2, resource limits exit 3.
"""

# Default cap on one search's nodes plus its leaf runs' work (pilp).
DEFAULT_POINT_CAP = 1_000_000


class ParafrobError(Exception):
    """Base class for all package errors."""


class InputError(ParafrobError):
    """Malformed or invalid input, or input the question cannot be answered
    on: an unbounded region, a series too short to fit, a fitted gcd that
    does not divide. Exit 2."""


class ResourceLimitError(ParafrobError):
    """Table cells or lattice search work over the configured budget.
    Exit 3."""


def frozen(cls):
    """Make ``cls`` an immutable value class over its annotated fields.

    Like ``dataclasses.dataclass(frozen=True)``, without its import cost:
    ``__init__`` takes the fields positionally or by keyword (class-level
    values are defaults) and then calls ``__post_init__`` if defined, which
    may still set fields through ``object.__setattr__``; instances compare
    and hash by their field tuple, print as ``Name(field=value, ...)``, and
    refuse assignment with ``AttributeError``. ``__match_args__`` lists the
    fields, as a dataclass's does.
    """
    # The class's own annotations: from 3.14 on they are no longer kept in
    # its ``__dict__`` but evaluated on first access to this attribute.
    names = tuple(cls.__annotations__)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        values = {**defaults, **dict(zip(names, args)), **kwargs}
        if (len(args) > len(names) or values.keys() != set(names)
                or not kwargs.keys().isdisjoint(names[:len(args)])):
            raise TypeError(f"{cls.__name__}() takes the fields {names}")
        self.__dict__.update(values)
        if post_init is not None:
            post_init(self)

    def fields(self):
        return tuple([self.__dict__[n] for n in names])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return fields(self) == fields(other)

    def __repr__(self):
        body = ", ".join(f"{n}={v!r}" for n, v in zip(names, fields(self)))
        return f"{type(self).__qualname__}({body})"

    def refuse(self, name, *value):
        raise AttributeError(f"cannot set or delete field {name!r}")

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__match_args__ = names
    cls.__hash__ = lambda self: hash(fields(self))
    cls.__setattr__ = cls.__delattr__ = refuse
    return cls
