"""Run configuration, and the one JSON-document parser it shares with the cohort spec."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .errors import ConfigError
from .io import read_json_object

VALID_FAMILIES = ("MOR", "BRV", "META", "ALL")
VALID_METRIC_LEVELS = ("window", "patient", "both")
#: document keys that differ from their field names, by field name
KEY_ALIASES = {"lam": "lambda"}


@dataclass
class RunConfig:
    """Every run parameter, its default and its range check: stage keyword
    defaults read these class attributes, and entry points call `validate`."""

    band_low_hz: float = 0.5
    band_high_hz: float = 12.0
    filter_order: int = 4
    window_s: float = 30.0
    sqi_threshold: float = 0.8
    am_threshold: float = 3.0
    min_beats: int = 12
    n_iter: int = 100
    train_fraction: float = 2.0 / 3.0
    rfe_k: int = 10
    lam: float = 1.0
    seed: int | None = None
    families: tuple[str, ...] = VALID_FAMILIES
    metric_level: str = "both"
    workers: int | None = None

    def validate(self) -> None:
        check_finite(self)
        if not (0 < self.band_low_hz < self.band_high_hz):
            raise ConfigError("need 0 < band_low_hz < band_high_hz")
        if self.filter_order < 2 or self.filter_order % 2:
            raise ConfigError("filter_order must be even and >= 2")
        if self.window_s <= 0:
            raise ConfigError("window_s must be positive")
        if not (-1.0 <= self.sqi_threshold <= 1.0):
            raise ConfigError("sqi_threshold must be in [-1, 1]")
        if self.am_threshold <= 0:
            raise ConfigError("am_threshold must be positive")
        if self.min_beats < 0:
            raise ConfigError("min_beats must be >= 0")
        if self.n_iter < 1:
            raise ConfigError("n_iter must be >= 1")
        if not (0.0 < self.train_fraction < 1.0):
            raise ConfigError("train_fraction must be in (0, 1)")
        if self.rfe_k < 1:
            raise ConfigError("rfe_k must be >= 1")
        if self.lam < 0:
            raise ConfigError("lambda must be >= 0")
        if self.seed is not None and self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if isinstance(self.families, str):
            raise ConfigError("families must be a sequence of family names, "
                              f"not the string {self.families!r}")
        for family in self.families:
            if family not in VALID_FAMILIES:
                raise ConfigError(f"unknown family '{family}'")
        if not self.families:
            raise ConfigError("families must not be empty")
        if self.metric_level not in VALID_METRIC_LEVELS:
            raise ConfigError(f"metric_level must be one of {VALID_METRIC_LEVELS}")
        if self.workers is not None and self.workers < 1:
            raise ConfigError("workers must be >= 1")


def parse_number(value, kind: type, where: str):
    """Cast one value of a JSON document to `kind` (int or float).

    Booleans, fractional values for an int, and anything `kind` cannot parse
    raise ConfigError naming `where`, so a malformed file never becomes a
    traceback or a silently truncated number.
    """
    if isinstance(value, bool):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def check_finite(obj, prefix: str = "") -> None:
    """Raise ConfigError naming the first NaN or infinite float of dataclass
    `obj`, its nested dataclasses and tuples included, by its dotted key."""
    for f in fields(obj):
        key = prefix + KEY_ALIASES.get(f.name, f.name)
        value = getattr(obj, f.name)
        if is_dataclass(value):
            check_finite(value, key + ".")
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, float) and not math.isfinite(item):
                raise ConfigError(f"{key} must be a finite number, got {item!r}")


def from_document(cls, doc, where: str):
    """Build dataclass `cls` from the JSON object `doc`, then validate it.

    Keys and types come from the fields (KEY_ALIASES gives a document key that
    differs from its field name), and a key left out keeps its default. A
    dataclass field takes a nested object, `int` and `float` go through
    parse_number, `X | None` also takes null, `tuple[T, ...]` takes a list and
    `tuple[T, T]` a list of exactly two; a `str` is passed on for `validate`
    to judge. Errors are ConfigError naming `where` and the dotted key.
    """
    obj = _parse(cls, doc, where, "")
    obj.validate()
    return obj


def _parse(hint, value, where: str, key: str):
    at = f"{where} key '{key}'" if key else where
    if is_dataclass(hint):
        if not isinstance(value, dict):
            raise ConfigError(f"{at} must be a JSON object")
        names = {KEY_ALIASES.get(f.name, f.name): f.name for f in fields(hint)}
        unknown = set(value) - set(names)
        if unknown:
            raise ConfigError(f"{at}: unknown keys {sorted(unknown, key=str)}")
        hints = get_type_hints(hint)
        return hint(**{names[k]: _parse(hints[names[k]], v, where, f"{key}.{k}" if key else k)
                       for k, v in value.items()})
    args = get_args(hint)
    if type(None) in args:
        [inner] = set(args) - {type(None)}
        return None if value is None else _parse(inner, value, where, key)
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{at} must be a list")
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(value) != len(items):
            raise ConfigError(f"{at} must be a list of {len(items)} values")
        return tuple(_parse(h, v, where, f"{key}[{i}]")
                     for i, (h, v) in enumerate(zip(items, value)))
    if hint in (int, float):
        return parse_number(value, hint, at)
    return value


def config_from_dict(doc: dict, where: str = "config") -> RunConfig:
    return from_document(RunConfig, doc, where)


def load_config(path: Path | str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    return config_from_dict(read_json_object(path, "config", ConfigError), f"config {path}")
