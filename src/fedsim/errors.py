"""Exception types shared across the simulator, and the finiteness check of configs."""

import math
import numbers
import typing


class ConfigError(ValueError):
    """An invalid model, federation, or experiment configuration."""


def is_integer(value) -> bool:
    """An int or numpy integer, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def require_finite(config) -> None:
    """Reject a config dataclass with a NaN or infinite float field, or a non-integer int field, naming the field."""
    hints = typing.get_type_hints(type(config))
    for name, value in vars(config).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")
        kind = hints.get(name)
        if (kind is int or kind == int | None and value is not None) and not is_integer(value):
            raise ConfigError(f"{name} must be an integer, got {value!r}")


class FederationFormatError(ValueError):
    """A malformed federation file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EvaluationError(RuntimeError):
    """Evaluation could not produce a metric (e.g. every user was skipped)."""
