"""Shared exception types."""

import contextlib
from numbers import Integral, Real


class CtGraphError(Exception):
    """Base of the errors that blame the input or an output path (exit 2); only subclasses are raised."""


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


@contextlib.contextmanager
def allocating(what: str):
    """Raise numpy's refusal to allocate an array (a MemoryError, or a ValueError for a size
    beyond any array) as a ConfigError naming what was being built."""
    try:
        yield
    except (MemoryError, ValueError) as exc:
        if isinstance(exc, ValueError) and not str(exc).startswith(
            ("array is too big", "Maximum allowed dimension exceeded")
        ):
            raise
        raise ConfigError(f"{what} cannot be allocated: {exc}") from exc


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
