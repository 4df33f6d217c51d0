"""Pipeline configuration: a small key-value file format plus defaults.

Every defaulted modeling decision (clamping, averaging denominator, edge
threshold, preference threshold, candidate eligibility) is a field of
``PipelineConfig``, so experiments can be declared rather than patched in
code. The fields are the only declaration of an option: its name, type and
default drive ``from_dict``, ``to_dict`` and the command-line flags. A
``PipelineConfig`` checks its fields' types and ranges when it is built, so
no caller validates one. The file format is one ``key = value`` per line; a
``#`` starts a comment anywhere on a line, and a key may be given once.
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
    this module does without ``from __future__ import annotations``.

    Construction (``dataclasses.replace`` too) refuses a field that is not
    of its type (``_is_a``) or outside its range with ``DomainError``, and
    stores a number in a float field as a float, so ``to_dict`` writes
    ``0.0`` for a given ``0`` and a load/save cycle keeps the same text."""

    edge_threshold: float = 0.0
    averaging_policy: AveragingPolicy = AveragingPolicy.COMPARABLE_COUNT
    preference_threshold: float = 0.5
    seed: int = 0
    clamp: bool = field(default=True, metadata={"help": "reject ratios above 1 instead of clamping"})
    exclude_non_preferred: bool = field(
        default=False, metadata={"help": "drop a user's non-preferred films from their candidate set"}
    )

    def __post_init__(self) -> None:
        for option in fields(self):
            value = getattr(self, option.name)
            if not _is_a(value, option.type):
                raise DomainError(f"config {option.name}: expected {_expected(option.type)}, got {value!r}")
        if not 0.0 <= self.edge_threshold <= 1.0:
            raise DomainError(f"edge_threshold outside [0, 1]: {self.edge_threshold}")
        if not 0.0 < self.preference_threshold < 1.0:
            raise DomainError(f"preference_threshold outside (0, 1): {self.preference_threshold}")
        # after the range checks, so an int too large for a float is refused above
        for option in fields(self):
            if option.type is float:
                object.__setattr__(self, option.name, float(getattr(self, option.name)))

    def to_dict(self) -> dict:
        return {**asdict(self), "averaging_policy": self.averaging_policy.value}

    @classmethod
    def from_dict(cls, values: Mapping) -> "PipelineConfig":
        """Text values are parsed as a config file gives them; any other
        value goes to the constructor as it is."""
        types = {f.name: f.type for f in fields(cls)}
        parsed = {}
        for key, raw in values.items():
            if key not in types:
                raise DataError(f"unknown config key: {key}")
            parsed[key] = _typed(key, types[key], raw) if isinstance(raw, str) else raw
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


def _typed(key: str, kind: type, text: str):
    """``text`` as a ``kind``, parsed as a config file gives it."""
    try:
        value = text.strip().lower()
        return _BOOL_VALUES[value] if kind is bool else kind(value)
    except (KeyError, ValueError):
        raise DataError(f"config {key}: expected {_expected(kind)}, got {text!r}")


def parse_config_text(text: str) -> dict[str, str]:
    """``key = value`` lines; a ``#`` starts a comment wherever it is, as no
    value holds one. A key given twice is refused."""
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    for line_number, line in enumerate(text.splitlines(), start=1):
        stripped = line.partition("#")[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise DataError(f"config line {line_number}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in lines:
            raise DataError(f"config line {line_number}: {key} already set on line {lines[key]}")
        values[key], lines[key] = value.strip(), line_number
    return values


def read_config_file(path: str | Path) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DataError(f"config file {path} is not UTF-8: {exc}")
    return parse_config_text(text)


def load_config(path: str | Path) -> PipelineConfig:
    return PipelineConfig.from_dict(read_config_file(path))

