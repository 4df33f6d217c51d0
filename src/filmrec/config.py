"""Pipeline configuration: a small key-value file format plus defaults.

Every defaulted modeling decision (clamping, averaging denominator, edge
threshold, preference threshold, candidate eligibility) is a field of
``PipelineConfig``, so experiments can be declared rather than patched in
code. The fields are the only declaration of an option: its name, type and
default drive ``from_dict``, ``to_dict`` and the command-line flags. The file
format is one ``key = value`` per line with ``#`` comments.
"""

from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import Mapping

from .errors import DataError, DomainError
from .similarity import AveragingPolicy

_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


@dataclass(frozen=True)
class PipelineConfig:
    """A field's ``help`` metadata is its command-line help; a bool field's
    flag sets the value opposite its default. Flags are listed in field
    order. ``from_dict`` and the CLI read ``Field.type`` as a class, so
    this module does without ``from __future__ import annotations``."""

    edge_threshold: float = 0.0
    averaging_policy: AveragingPolicy = AveragingPolicy.COMPARABLE_COUNT
    preference_threshold: float = 0.5
    seed: int = 0
    clamp: bool = field(default=True, metadata={"help": "reject ratios above 1 instead of clamping"})
    exclude_non_preferred: bool = field(
        default=False, metadata={"help": "drop a user's non-preferred films from their candidate set"}
    )

    def to_dict(self) -> dict:
        return {**asdict(self), "averaging_policy": self.averaging_policy.value}

    @classmethod
    def from_dict(cls, values: Mapping) -> "PipelineConfig":
        types = {f.name: f.type for f in fields(cls)}
        parsed = {}
        for key, raw in values.items():
            if key not in types:
                raise DataError(f"unknown config key: {key}")
            parsed[key] = _typed(key, types[key], raw)
        return cls(**parsed)


def _expected(kind: type) -> str:
    if issubclass(kind, Enum):
        return "one of " + ", ".join(member.value for member in kind)
    return {bool: "a boolean", int: "an integer", float: "a number"}[kind]


def _is_a(value, kind: type) -> bool:
    """Whether ``value`` is a ``kind``, where an int counts as a number and
    a bool does not."""
    numeric = (int, float) if kind is float else kind
    return isinstance(value, numeric) and (kind is bool or not isinstance(value, bool))


def _typed(key: str, kind: type, raw):
    """``raw`` as a ``kind``. Text is parsed as a config file gives it; any
    other value must already be a ``kind`` (see ``_is_a``)."""
    try:
        if isinstance(raw, str):
            text = raw.strip().lower()
            return _BOOL_VALUES[text] if kind is bool else kind(text)
        if _is_a(raw, kind):
            return kind(raw)
    except (KeyError, ValueError):
        pass
    raise DataError(f"config {key}: expected {_expected(kind)}, got {raw!r}")


def parse_config_text(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for line_number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise DataError(f"config line {line_number}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    return values


def read_config_file(path: str | Path) -> dict[str, str]:
    return parse_config_text(Path(path).read_text(encoding="utf-8"))


def load_config(path: str | Path) -> PipelineConfig:
    return PipelineConfig.from_dict(read_config_file(path))


def validate_config(config: PipelineConfig) -> None:
    """Each field holds a value of its type (``_is_a``) within its range.
    The constructor checks nothing, so this runs before a config is used."""
    for option in fields(config):
        value = getattr(config, option.name)
        if not _is_a(value, option.type):
            raise DomainError(f"config {option.name}: expected {_expected(option.type)}, got {value!r}")
    if not 0.0 <= config.edge_threshold <= 1.0:
        raise DomainError(f"edge_threshold outside [0, 1]: {config.edge_threshold}")
    if not 0.0 < config.preference_threshold < 1.0:
        raise DomainError(f"preference_threshold outside (0, 1): {config.preference_threshold}")
