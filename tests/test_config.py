"""Flat key = value configuration: parsing, precedence, validation."""

from dataclasses import fields

import pytest

from bandprompt.config import (
    SEED_ENV_VAR,
    RunConfig,
    apply_setting,
    load_config,
    parse_config_text,
    resolve_config,
)
from bandprompt.errors import ConfigError
from bandprompt.trainer import TrainConfig


def test_defaults_are_complete_and_typed():
    cfg = RunConfig()
    assert cfg.num_classes == 8 and cfg.n_per_class == 32
    assert cfg.kernel == 7 and cfg.embed_dim == 16
    assert cfg.lambda_sem == cfg.lambda_gf == cfg.lambda_gcf == 0.1
    assert cfg.bank_size == 64 and cfg.bank_tau == 0.07
    assert cfg.eta == 1.0 and cfg.logit_scale == 100.0
    assert cfg.use_bank and cfg.use_sem and cfg.use_gf and cfg.use_gcf
    assert cfg.protocol == "base_to_novel"
    assert cfg.identity_band == "low"


def test_parse_file_text_with_comments():
    cfg = parse_config_text(
        """
        # training block
        epochs = 5
        learning_rate = 3e-3
        use_gcf = false
        identity_band = high

        seed = 7
        """
    )
    assert cfg.epochs == 5
    assert cfg.learning_rate == pytest.approx(3e-3)
    assert cfg.use_gcf is False
    assert cfg.identity_band == "high"
    assert cfg.seed == 7
    # untouched keys keep their defaults
    assert cfg.batch_size == RunConfig().batch_size


def test_unknown_keys_and_bad_values_are_hard_errors():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config_text("epoch = 5")
    with pytest.raises(ConfigError, match="invalid value"):
        parse_config_text("epochs = five")
    with pytest.raises(ConfigError, match="invalid value"):
        parse_config_text("use_bank = maybe")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("epochs 5")
    with pytest.raises(ConfigError, match="protocol"):
        parse_config_text("protocol = sideways")


def test_boolean_spellings():
    for raw, want in (("true", True), ("1", True), ("on", True), ("YES", True),
                      ("false", False), ("0", False), ("off", False), ("No", False)):
        assert apply_setting(RunConfig(), "use_sem", raw).use_sem is want


def test_precedence_defaults_file_set_env(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("epochs = 5\nseed = 3\nbatch_size = 4\n")
    cfg = resolve_config(config_path=path,
                         overrides=["epochs=9", "eta=0.5"],
                         env={SEED_ENV_VAR: "11"})
    assert cfg.batch_size == 4       # file beats defaults
    assert cfg.epochs == 9           # --set beats file
    assert cfg.eta == 0.5
    assert cfg.seed == 11            # env beats everything
    no_env = resolve_config(config_path=path, overrides=["epochs=9"], env={})
    assert no_env.seed == 3
    with pytest.raises(ConfigError, match="key=value"):
        resolve_config(overrides=["epochs"], env={})
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.cfg")


def test_header_lines_are_sorted_and_lowercase_bools():
    cfg = apply_setting(RunConfig(), "use_gcf", "false")
    lines = cfg.header_lines()
    assert lines[0] == "# resolved-config"
    keys = [ln.split()[1] for ln in lines[1:]]
    assert keys == sorted(keys)
    assert "# use_gcf = false" in lines
    assert "# use_bank = true" in lines
    items = cfg.items()
    assert items["bank_refresh"] == "false" and items["epochs"] == "30"


def test_derived_spec_and_train_config_agree():
    cfg = parse_config_text("num_classes = 5\nkernel = 5\nseed = 4\nnoise_std = 0.1")
    spec = cfg.synthetic_spec()
    assert spec.num_classes == 5 and spec.seed == 4
    assert spec.noise_std == pytest.approx(0.1)
    assert spec.grid == (4, 16, 16)
    tc = cfg.train_config()
    assert tc.kernel == 5 and tc.seed == 4
    assert tc.epochs == cfg.epochs


def test_train_config_defaults_match_the_run_config():
    run_fields = {f.name: f.type for f in fields(RunConfig)}
    for f in fields(TrainConfig):
        assert run_fields.get(f.name) == f.type, f.name
    assert RunConfig().train_config() == TrainConfig()


def test_round_trip_through_header_text():
    cfg = parse_config_text("epochs = 7\nuse_gf = false\neta = 0.25")
    body = "\n".join(ln[2:] for ln in cfg.header_lines()[1:])
    again = parse_config_text(body)
    assert again == cfg
