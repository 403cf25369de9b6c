"""Exception types shared across the toolkit."""

import math
import numbers


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


def _require_integer(field: str, value, minimum: int | None = None) -> None:
    """Reject a count given as a float, a string or a bool, or below ``minimum``, naming its field.

    Only Python and NumPy integers define ``__index__``, so 2.0 fails too;
    bool is an int subclass, and JSON reads true and false into it.
    """
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ConfigurationError(f"{field} must be an integer, got {value!r}", field)
    _require_at_least(field, value, minimum)


def _require_real(field: str, value, minimum=None, *, positive: bool = False) -> None:
    """Reject a real setting given as a string, a bool or a NaN/inf, naming its field.

    JSON reads NaN, Infinity and true into values that slip past a ``> 0``
    check or fail later with a message that does not name the field. The
    value must also be at least ``minimum`` and, if ``positive``, above 0.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{field} must be a real number, got {value!r}", field)
    if not math.isfinite(value):
        raise ConfigurationError(f"{field} must be finite, got {value!r}", field)
    _require_at_least(field, value, minimum)
    if positive and not value > 0:
        raise ConfigurationError(f"{field} must be positive, got {value}", field)


def _require_at_least(field: str, value, minimum) -> None:
    if minimum is not None and value < minimum:
        raise ConfigurationError(f"{field} must be >= {minimum}, got {value}", field)


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
