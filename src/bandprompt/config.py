"""Flat key = value run configuration.

One namespace covers the dataset recipe, training hyperparameters,
diagnostic settings, and output paths. `RunConfig` extends `TrainConfig`, so
each key is declared once and a resolved config goes straight to training.
Every key has a default; unknown keys are hard errors so typos cannot
silently fall back to defaults, and each value is checked as it is applied,
so an out-of-range value is a ConfigError naming its source and key before
any input is read. Precedence: defaults < config file < --set overrides <
SPECPL_SEED < command flags.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace
from itertools import chain

from .errors import ConfigError, ParameterError
from .teacher import IDENTITY_BANDS, SyntheticSpec
from .trainer import TrainConfig, format_header

SEED_ENV_VAR = "SPECPL_SEED"

PROTOCOLS = ("base_to_novel", "all")

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


@dataclass(frozen=True)
class RunConfig(TrainConfig):
    """The `TrainConfig` fields, then the keys that only the commands read.
    The dataset recipe defaults are `SyntheticSpec`'s."""

    # dataset
    num_classes: int = 8
    n_per_class: int = 32
    base_modes: int = SyntheticSpec.base_modes
    detail_modes: int = SyntheticSpec.detail_modes
    noise_std: float = SyntheticSpec.noise_std
    identity_band: str = SyntheticSpec.identity_band
    grid_c: int = SyntheticSpec.grid[0]
    grid_h: int = SyntheticSpec.grid[1]
    grid_w: int = SyntheticSpec.grid[2]
    # protocol
    shots: int = 16
    select_by_base_val: bool = False
    protocol: str = "base_to_novel"
    # diagnostics
    diag_bands: int = 10
    align_h: int = 14
    align_w: int = 14
    # outputs
    cache_path: str = "latents.bin"
    checkpoint_path: str = "checkpoint.txt"
    eval_report_path: str = "eval_report.txt"
    history_path: str = "loss_history.txt"
    diag_report_path: str = "diag_report.txt"

    def __post_init__(self):
        super().__post_init__()
        for name in ("num_classes", "n_per_class", "base_modes", "detail_modes", "grid_c",
                     "shots", "diag_bands"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1")
        if self.noise_std < 0:
            raise ParameterError("noise_std must be >= 0")
        if self.identity_band not in IDENTITY_BANDS:
            raise ParameterError(f"identity_band must be one of {IDENTITY_BANDS}")
        for name in ("grid_h", "grid_w"):
            if getattr(self, name) < 4:
                raise ParameterError(f"{name} must be >= 4")
        if self.protocol not in PROTOCOLS:
            raise ParameterError(f"protocol must be one of {PROTOCOLS}")
        for name in ("align_h", "align_w"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be >= 0 (0 turns alignment off)")
        for name in ("cache_path", "checkpoint_path", "eval_report_path", "history_path",
                     "diag_report_path"):
            if not getattr(self, name):
                raise ParameterError(f"{name} must not be empty")

    def synthetic_spec(self) -> SyntheticSpec:
        """The dataset recipe. Whether the grid holds the mode counts reads
        several keys, so it is checked here, not as each key is applied, and
        fails as a ConfigError."""
        try:
            return SyntheticSpec(
                num_classes=self.num_classes, base_modes=self.base_modes,
                detail_modes=self.detail_modes, noise_std=self.noise_std,
                identity_band=self.identity_band,
                grid=(self.grid_c, self.grid_h, self.grid_w), seed=self.seed,
            )
        except ParameterError as exc:
            raise ConfigError(f"invalid dataset recipe: {exc}") from None

    def items(self) -> dict[str, str]:
        out: dict[str, str] = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = str(v).lower() if isinstance(v, bool) else str(v)
        return out

    def header_lines(self) -> list[str]:
        return format_header(self.items())


FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, raw: str):
    kind = FIELD_TYPES[key]
    raw = raw.strip()
    try:
        if kind == "bool":
            low = raw.lower()
            if low in _TRUE:
                return True
            if low in _FALSE:
                return False
            raise ValueError(raw)
        if kind == "int":
            return int(raw)
        if kind == "float":
            value = float(raw)
            if not math.isfinite(value):
                raise ConfigError(f"{key} must be a finite number, got {raw!r}")
            return value
        return raw
    except ValueError:
        raise ConfigError(f"invalid value for {key}: {raw!r}") from None


def apply_settings(cfg: RunConfig, settings) -> RunConfig:
    """`cfg` with each `(source, key, text)` setting applied in order, the one
    place text becomes a field. Every check reads a single field, so a bad value
    fails as it is applied, as a ConfigError that starts with its source."""
    for source, key, raw in settings:
        key, raw = key.strip(), raw.strip()
        try:
            if key not in FIELD_TYPES:
                raise ConfigError(f"unknown config key: {key!r}")
            cfg = replace(cfg, **{key: _coerce(key, raw)})
        except ConfigError as exc:
            raise ConfigError(f"{source}: {exc}") from None
        except ParameterError as exc:
            raise ConfigError(f"{source}: invalid value for {key}: {raw!r}: {exc}") from None
    return cfg


def _split_setting(source: str, text: str, sep: str) -> tuple[str, str, str]:
    """The `(source, key, value)` setting of `key<sep>value` text."""
    key, eq, raw = text.partition("=")
    if not eq:
        raise ConfigError(f"{source}: expected `key{sep}value`, got {text!r}")
    return source, key, raw


def parse_config_text(text: str, base: RunConfig | None = None) -> RunConfig:
    """Line-oriented `key = value`, each setting named by its line (`line N`);
    blank lines and # comments are skipped."""
    lines = ((n, line.strip()) for n, line in enumerate(text.splitlines(), start=1))
    return apply_settings(base if base is not None else RunConfig(),
                          (_split_setting(f"line {n}", line, " = ") for n, line in lines
                           if line and not line.startswith("#")))


def load_config(path, base: RunConfig | None = None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read(), base)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from None
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def resolve_config(config_path=None, overrides: list[str] | None = None,
                   env: dict[str, str] | None = None, base: RunConfig | None = None,
                   flags=()) -> RunConfig:
    """`base` (defaults when None), then the file, the --set pairs, the seed
    variable and the `(option, key, value)` command flags whose value is set."""
    cfg = base if base is not None else RunConfig()
    if config_path is not None:
        cfg = load_config(config_path, cfg)
    env = os.environ if env is None else env
    seed = [(SEED_ENV_VAR, "seed", env[SEED_ENV_VAR])] if SEED_ENV_VAR in env else []
    return apply_settings(cfg, chain(
        (_split_setting(f"--set {pair}", pair, "=") for pair in overrides or []),
        seed,
        ((option, key, str(value)) for option, key, value in flags if value is not None),
    ))
