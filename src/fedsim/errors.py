"""Exception types shared across the simulator, and the finiteness check of configs."""

import math


class ConfigError(ValueError):
    """An invalid model, federation, or experiment configuration."""


def require_finite(config) -> None:
    """Reject a config dataclass any of whose float fields is NaN or infinite, naming the field."""
    for name, value in vars(config).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")


class FederationFormatError(ValueError):
    """A malformed federation file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EvaluationError(RuntimeError):
    """Evaluation could not produce a metric (e.g. every user was skipped)."""
