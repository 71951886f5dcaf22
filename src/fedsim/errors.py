"""Exception types shared across the simulator, and check_fields, the one check of a config's fields."""

import dataclasses
import enum
import functools
import numbers
import os
import sys
import types
import typing
from pathlib import Path


class ConfigError(ValueError):
    """An invalid model, federation, or experiment configuration."""


def is_integer(value) -> bool:
    """An int or numpy integer, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# A class's resolved annotations, resolved once: resolving them on each build took most of config_from_dict's time.
type_hints = functools.cache(typing.get_type_hints)


def check_fields(config) -> None:
    """Check each field of a config dataclass as it is built, from Python or JSON alike, naming the field, and
    store it converted: an int is an integer in int64's range, not a bool; a float, a finite real; an Enum, one
    of its values, as the member; a Path, a str or path; a config dataclass, an instance of it; X | None may also
    be None."""
    for name, kind in type_hints(type(config)).items():
        value = getattr(config, name)
        if isinstance(kind, types.UnionType):  # X | None
            kind = type(None) if value is None else typing.get_args(kind)[0]
        if kind is int:
            if not is_integer(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            value = int(value)
            if not -(2**63) <= value < 2**63:  # counts and sizes meet numpy's int64 arrays
                raise ConfigError(f"{name} must lie in int64's range, got {value!r}")
        elif kind is float:
            # the range test is false for NaN, the infinities and integers too large for a float
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not abs(value) <= sys.float_info.max:
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
            value = float(value)
        elif kind is Path:
            if not isinstance(value, (str, os.PathLike)):
                raise ConfigError(f"{name} must be a path, got {value!r}")
            value = Path(value)
        elif isinstance(kind, enum.EnumMeta):
            try:
                value = kind(value)
            except ValueError:
                raise ConfigError(f"{name} must be one of {[m.value for m in kind]}, got {value!r}") from None
        elif dataclasses.is_dataclass(kind) and not isinstance(value, kind):
            raise ConfigError(f"{name} must be an instance of {kind.__name__}, got {value!r}")
        object.__setattr__(config, name, value)


class FederationFormatError(ValueError):
    """A malformed federation file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EvaluationError(RuntimeError):
    """Evaluation could not produce a metric (e.g. every user was skipped)."""
