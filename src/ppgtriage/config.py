"""Run configuration: one flat key/value file drives every pipeline stage."""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ConfigError

VALID_FAMILIES = ("MOR", "BRV", "META", "ALL")
VALID_METRIC_LEVELS = ("window", "patient", "both")


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


_KEY_MAP = {
    "band_low_hz": float, "band_high_hz": float, "filter_order": int, "window_s": float,
    "sqi_threshold": float, "am_threshold": float, "min_beats": int,
    "n_iter": int, "train_fraction": float, "rfe_k": int, "lambda": float,
    "seed": int, "families": tuple, "metric_level": str, "workers": int,
}


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


def config_from_dict(doc: dict) -> RunConfig:
    unknown = set(doc) - set(_KEY_MAP)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = RunConfig()
    for key, value in doc.items():
        attr = "lam" if key == "lambda" else key
        if key == "families":
            if not isinstance(value, list):
                raise ConfigError("families must be a list")
            cfg = replace(cfg, families=tuple(value))
        elif value is None and key in ("seed", "workers"):
            cfg = replace(cfg, **{attr: None})
        elif key == "metric_level":
            cfg = replace(cfg, metric_level=str(value))
        else:
            cfg = replace(cfg, **{attr: parse_number(value, _KEY_MAP[key], f"config key '{key}'")})
    cfg.validate()
    return cfg


def load_config(path: Path | str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:    # also a file that is not UTF-8
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return config_from_dict(doc)
