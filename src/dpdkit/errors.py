"""Exception types shared across the toolkit."""

import math
import numbers
import operator


class DpdError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(DpdError):
    """A configuration value is out of range or inconsistent.

    ``field`` names the one setting at fault, when there is one; the message
    then starts with that name.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


def _require_integer(field: str, value) -> None:
    """Reject a count given as a float or a string, naming its field.

    operator.index accepts Python and NumPy integers only, so 2.0 fails too.
    """
    try:
        operator.index(value)
    except TypeError:
        raise ConfigurationError(f"{field} must be an integer, got {value!r}", field) from None


def _require_real(field: str, value) -> None:
    """Reject a real setting given as a string, a bool or a NaN/inf, naming its field.

    JSON reads NaN, Infinity and true into values that slip past a ``> 0``
    check or fail later with a message that does not name the field.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{field} must be a real number, got {value!r}", field)
    if not math.isfinite(value):
        raise ConfigurationError(f"{field} must be finite, got {value!r}", field)


class FramingError(DpdError):
    """A signal's length or rate does not match the expected OFDM framing."""


class InputRangeError(DpdError):
    """An input signal exceeds the allowed drive range."""


class ConditioningError(DpdError):
    """A least-squares system is rank deficient beyond what regularization absorbs.

    Carries an estimate of the condition number of the (regularized) basis.
    """

    def __init__(self, message: str, condition_number: float):
        super().__init__(message)
        self.condition_number = condition_number


class DivergenceError(DpdError):
    """Training produced a non-finite gradient."""


class MetricError(DpdError):
    """A metric is undefined for the given input (e.g. zero channel power)."""


class AlignmentError(DpdError):
    """Signals that must share a frequency grid do not."""


class FormatError(DpdError):
    """A serialized artifact (signal, model, profile, spec) is malformed."""
