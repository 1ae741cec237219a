"""Shared exception types."""

import contextlib
from numbers import Integral, Real


class CtGraphError(Exception):
    """Base class for library errors."""


class ShapeError(CtGraphError, ValueError):
    """Operands have incompatible shapes or dimensions."""


class FormatError(CtGraphError, ValueError):
    """A container file is malformed, truncated, or uses an unknown dtype."""


class ValidationError(CtGraphError, ValueError):
    """A domain object violates its invariants."""


class ConfigError(CtGraphError, ValueError):
    """A configuration is missing, unreadable, or inconsistent."""


@contextlib.contextmanager
def malformed(what: str):
    """Raise a JSON parser's missing-key, wrong-type or bad-value error as ValidationError."""
    try:
        yield
    except CtGraphError:
        raise
    except (AttributeError, LookupError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed {what}: {exc!r}") from exc


def integer(value, what: str) -> int:
    """value as an int; a ValidationError naming what unless it is an integer (bool is not)."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return int(value)


def number(value, what: str) -> float:
    """value as a float; a ValidationError naming what unless it is a number (bool is not)."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    return float(value)


def string(value, what: str) -> str:
    """value; a ValidationError naming what unless it is a string."""
    if not isinstance(value, str):
        raise ValidationError(f"{what} must be a string, got {value!r}")
    return value
