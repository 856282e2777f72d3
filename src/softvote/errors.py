"""Exception hierarchy.

Everything raised on bad input derives from :class:`ValidationError`, so
callers (notably the CLI) can distinguish "your data is wrong" from genuine
I/O failures, which surface as the built-in ``OSError`` family.
"""


class SoftvoteError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(SoftvoteError, ValueError):
    """Input violates a documented contract."""


class AlignmentError(ValidationError):
    """Classifiers or labels disagree on sample identity or ordering."""


class DimensionError(ValidationError):
    """A vector or matrix has the wrong shape or length."""


class DegenerateWeightsError(ValidationError):
    """Weight vector is negative, non-finite, or sums to zero."""


class LabelRangeError(ValidationError):
    """A ground-truth label falls outside [0, num_classes)."""


class EmptyInputError(ValidationError):
    """An operation that needs at least one sample received none."""


class ConfigError(ValidationError):
    """A configuration value is out of its allowed range."""


class FormatError(ValidationError):
    """A file does not parse as its declared format."""


class SplitError(ValidationError):
    """A train/held-out split would leave one side empty."""


class OracleScopeError(ValidationError):
    """Exhaustive weight search requested outside its tractable range."""


# An integer of at most this many bits has at most 617 decimal digits, under
# the smallest limit Python can set on int-to-str conversion (640 digits).
_SHOWN_INT_BITS = 2048


def _shown(value: object) -> str:
    """``repr(value)`` for an error message; an integer too long to print is named by its size."""
    if isinstance(value, int) and value.bit_length() > _SHOWN_INT_BITS:
        kind = "a negative integer" if value < 0 else "an integer"
        return f"{kind} of {value.bit_length()} bits"
    try:
        return repr(value)
    except ValueError:  # a container holding an integer too long to print
        return f"a {type(value).__name__} holding an integer too long to print"
