"""Exception hierarchy.

Everything raised on bad input derives from :class:`ValidationError`, so
callers (notably the CLI) can distinguish "your data is wrong" from genuine
I/O failures, which surface as the built-in ``OSError`` family.
"""

from numbers import Integral, Real


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


def _integer(value, name, error=ValidationError, low=None, high=None, **options) -> int:
    """``value`` as an ``int``: a ``numbers.Integral`` that is not a bool, in [low, high]; see :func:`_real`."""
    return _real(value, name, error, low, high, kind=Integral, **options)


def _real(
    value, name, error=ValidationError, low=None, high=None, ends="[]", *, message=None, one_message=False, kind=Real
):
    """``value`` itself: a ``numbers.Real`` that is not a bool, between ``low`` and ``high``.

    ``ends`` holds the interval's brackets, "(" or ")" for an open end, and
    a bound of None is no limit. A failure raises ``error``: ``{name} must
    be a real number, got {value}`` for the type (``an integer`` with
    ``kind=Integral``, which :func:`_integer` passes), and ``{name} must be
    in [low, high], got {value}`` (``must be >= low`` without ``high``) for
    the range. ``message``, a template with the fields ``{name}`` and
    ``{value}``, replaces the range text; with ``one_message`` the range
    text is also the type text.
    """
    if message is None:
        within = f">= {low}" if high is None else f"in {ends[0]}{low}, {high}{ends[1]}"
        message = "{name} must be " + within + ", got {value}"
    if not isinstance(value, kind) or isinstance(value, bool):
        wanted = "an integer" if kind is Integral else "a real number"
        text = message if one_message else "{name} must be " + wanted + ", got {value}"
        raise error(text.format(name=name, value=_shown(value)))
    number = int(value) if kind is Integral else value
    # Compared without float(), which overflows on a huge integer; NaN fails every comparison.
    if (low is not None and not (low < number if ends[0] == "(" else low <= number)) or (
        high is not None and not (number < high if ends[1] == ")" else number <= high)
    ):
        raise error(message.format(name=name, value=_shown(value)))
    return number
