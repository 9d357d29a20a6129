"""Flat key = value run configuration.

One namespace covers the dataset recipe, training hyperparameters,
diagnostic settings, and output paths. Every key has a default; unknown keys
are hard errors so typos cannot silently fall back to defaults. Precedence:
defaults < config file < --set overrides < SPECPL_SEED.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace

from .errors import ConfigError
from .teacher import SyntheticSpec
from .trainer import TrainConfig

SEED_ENV_VAR = "SPECPL_SEED"

PROTOCOLS = ("base_to_novel", "all")

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


@dataclass(frozen=True)
class RunConfig:
    # dataset
    num_classes: int = 8
    n_per_class: int = 32
    base_modes: int = 3
    detail_modes: int = 3
    noise_std: float = 0.05
    identity_band: str = "low"
    grid_c: int = 4
    grid_h: int = 16
    grid_w: int = 16
    # training
    embed_dim: int = 16
    kernel: int = 7
    lambda_sem: float = 0.1
    lambda_gf: float = 0.1
    lambda_gcf: float = 0.1
    bank_size: int = 64
    bank_tau: float = 0.07
    bank_momentum: float = 0.1
    bank_refresh: bool = False
    eta: float = 1.0
    logit_scale: float = 100.0
    epochs: int = 30
    batch_size: int = 16
    learning_rate: float = 1e-3
    shots: int = 16
    use_bank: bool = True
    use_sem: bool = True
    use_gf: bool = True
    use_gcf: bool = True
    anchor: str = "raw_text_by_label"
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
    bank_dump_path: str = "bank_dump.txt"
    # shared
    seed: int = 0

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"protocol must be one of {PROTOCOLS}, got {self.protocol!r}")

    def synthetic_spec(self) -> SyntheticSpec:
        return SyntheticSpec(
            num_classes=self.num_classes, base_modes=self.base_modes,
            detail_modes=self.detail_modes, noise_std=self.noise_std,
            identity_band=self.identity_band,
            grid=(self.grid_c, self.grid_h, self.grid_w), seed=self.seed,
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{f.name: getattr(self, f.name) for f in fields(TrainConfig)})

    def items(self) -> dict[str, str]:
        out: dict[str, str] = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = str(v).lower() if isinstance(v, bool) else str(v)
        return out

    def header_lines(self) -> list[str]:
        lines = ["# resolved-config"]
        items = self.items()
        lines.extend(f"# {k} = {items[k]}" for k in sorted(items))
        return lines


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, raw: str):
    kind = _FIELD_TYPES[key]
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


def apply_setting(cfg: RunConfig, key: str, raw: str) -> RunConfig:
    key = key.strip()
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key: {key!r}")
    return replace(cfg, **{key: _coerce(key, raw)})


def parse_config_text(text: str, base: RunConfig | None = None) -> RunConfig:
    """Line-oriented `key = value`; blank lines and # comments are skipped."""
    cfg = base if base is not None else RunConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        cfg = apply_setting(cfg, key, raw)
    return cfg


def load_config(path, base: RunConfig | None = None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from None
    return parse_config_text(text, base)


def resolve_config(config_path=None, overrides: list[str] | None = None,
                   env: dict[str, str] | None = None,
                   base: RunConfig | None = None) -> RunConfig:
    """`base` (defaults when None), then the file, then --set pairs, then the
    seed variable."""
    cfg = base if base is not None else RunConfig()
    if config_path is not None:
        cfg = load_config(config_path, cfg)
    for pair in overrides or []:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        cfg = apply_setting(cfg, key, raw)
    env = os.environ if env is None else env
    if SEED_ENV_VAR in env:
        cfg = apply_setting(cfg, "seed", env[SEED_ENV_VAR])
    return cfg
