"""Exception types shared across the package.

The CLI maps these onto exit codes (see cli.py): input problems exit 2,
resource limits exit 3.
"""

# Default work cap of one lattice search (search nodes plus points).
DEFAULT_POINT_CAP = 1_000_000


class ParafrobError(Exception):
    """Base class for all package errors."""


class InputError(ParafrobError):
    """Malformed grammar, invalid construction arguments, or bad CLI input."""


class BelowThresholdError(ParafrobError):
    """Quasi-polynomial evaluated at or below its validity threshold."""


class ResourceLimitError(ParafrobError):
    """Table cells, lattice search work, or clause counts over the configured
    budget."""


class GcdNotOneError(ParafrobError):
    """Operation requires a tuple with gcd 1."""


class UnboundedRegionError(ParafrobError):
    """Bound propagation could not derive finite bounds for every coordinate."""


class DigitRangeError(ParafrobError):
    """A digit vector entry lies outside {0, ..., t-1}."""


class OutOfRangeError(ParafrobError):
    """A value to encode lies outside [0, t^r)."""


class NonIntegerQuotientError(ParafrobError):
    """Polynomial division produced a non-integer-valued quotient."""


class InsufficientDataError(ParafrobError):
    """Sample series too short for the requested fit configuration."""
