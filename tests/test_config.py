"""Flat key = value configuration: parsing, precedence, validation."""

import re
from dataclasses import fields, replace

import pytest

from bandprompt.config import (
    SEED_ENV_VAR,
    RunConfig,
    apply_settings,
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
    assert cfg.bank_size > 0 and cfg.lambda_sem > 0 and cfg.lambda_gf > 0 and cfg.lambda_gcf > 0
    assert cfg.protocol == "base_to_novel"
    assert cfg.identity_band == "low"


def test_parse_file_text_with_comments():
    cfg = parse_config_text(
        """
        # training block
        epochs = 5
        learning_rate = 3e-3
        lambda_gcf = 0
        identity_band = high

        seed = 7
        """
    )
    assert cfg.epochs == 5
    assert cfg.learning_rate == pytest.approx(3e-3)
    assert cfg.lambda_gcf == 0.0
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
        parse_config_text("bank_refresh = maybe")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("epochs 5")
    with pytest.raises(ConfigError, match="protocol"):
        parse_config_text("protocol = sideways")


@pytest.mark.parametrize("text, line, message", [
    ("epochs = 5\n\nepochs = x\n", 3, "invalid value for epochs: 'x'"),
    ("# note\nepoch = 5\n", 2, "unknown config key: 'epoch'"),
    ("seed = 1\nepochs 5\n", 2, "expected `key = value`"),
    ("seed = 1\nbank_tau = nan\n", 2, "bank_tau must be a finite number"),
])
def test_config_file_errors_name_the_file_and_line(tmp_path, text, line, message):
    with pytest.raises(ConfigError, match=f"^line {line}: {re.escape(message)}"):
        parse_config_text(text)
    path = tmp_path / "run.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: line {line}: {re.escape(message)}"):
        load_config(path)


def test_a_key_set_twice_in_a_file_names_both_lines(tmp_path):
    # The last value would otherwise win without a word.
    text = "seed = 1\nepochs = 2\n\n  seed = 3\n"
    message = "line 4: config key 'seed' is set twice, at line 1 and line 4"
    with pytest.raises(ConfigError, match=f"^{message}$"):
        parse_config_text(text)
    path = tmp_path / "dup.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: {message}$"):
        load_config(path)
    # Every value is applied before repeats are looked for, so a bad value
    # on either line is named as a bad value.
    with pytest.raises(ConfigError, match="^line 3: invalid value for seed"):
        parse_config_text("seed = 1\nepochs = 2\nseed = x\n")
    with pytest.raises(ConfigError, match="^line 1: invalid value for seed"):
        parse_config_text("seed = x\nseed = 1\n")
    # A commented-out line sets nothing.
    assert parse_config_text("# seed = 1\nseed = 3\n").seed == 3


def test_repeats_across_sources_and_set_pairs_keep_their_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 3\nepochs = 5\n")
    cfg = resolve_config(config_path=path, overrides=["epochs=7", "epochs=9"], env={},
                         flags=[("--k", "kernel", 5), ("--k", "kernel", 3)])
    assert (cfg.seed, cfg.epochs, cfg.kernel) == (3, 9, 3)


def test_boolean_spellings():
    for raw, want in (("true", True), ("1", True), ("on", True), ("YES", True),
                      ("false", False), ("0", False), ("off", False), ("No", False)):
        cfg = apply_settings(RunConfig(), [("test", "bank_refresh", raw)])
        assert cfg.bank_refresh is want


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
    cfg = apply_settings(RunConfig(), [("test", "select_by_base_val", "TRUE")])
    lines = cfg.header_lines()
    assert lines[0] == "# resolved-config"
    keys = [ln.split()[1] for ln in lines[1:]]
    assert keys == sorted(keys)
    assert "# select_by_base_val = true" in lines
    assert "# bank_refresh = false" in lines
    items = cfg.items()
    assert items["bank_refresh"] == "false" and items["epochs"] == "30"


def test_derived_spec_and_train_config_agree():
    cfg = parse_config_text("num_classes = 5\nkernel = 5\nseed = 4\nnoise_std = 0.1")
    spec = cfg.synthetic_spec()
    assert spec.num_classes == 5 and spec.seed == 4
    assert spec.noise_std == pytest.approx(0.1)
    assert spec.grid == (4, 16, 16)
    assert isinstance(cfg, TrainConfig)
    tc = TrainConfig(**{f.name: getattr(cfg, f.name) for f in fields(TrainConfig)})
    assert tc == replace(TrainConfig(), kernel=5, seed=4)


def test_train_config_defaults_match_the_run_config():
    # RunConfig extends TrainConfig and declares none of its keys again
    assert issubclass(RunConfig, TrainConfig)
    train_keys = {f.name for f in fields(TrainConfig)}
    assert not train_keys & set(RunConfig.__dict__.get("__annotations__", {}))
    run, train = RunConfig(), TrainConfig()
    for f in fields(TrainConfig):
        assert getattr(run, f.name) == getattr(train, f.name), f.name


def test_round_trip_through_header_text():
    cfg = parse_config_text("epochs = 7\nlambda_gf = 0\neta = 0.25")
    body = "\n".join(ln[2:] for ln in cfg.header_lines()[1:])
    again = parse_config_text(body)
    assert again == cfg


def test_out_of_range_values_fail_when_applied():
    with pytest.raises(ConfigError, match="embed_dim"):
        parse_config_text("embed_dim = 0")
    with pytest.raises(ConfigError, match="bank_momentum"):
        resolve_config(overrides=["bank_momentum=1.5"], env={})
    # every check reads one field, so the order of settings does not matter
    with pytest.raises(ConfigError, match="kernel"):
        parse_config_text("kernel = 4\nkernel = 5")
    assert parse_config_text("kernel = 5\nepochs = 0").epochs == 0
    # bank_size = 0 turns the bank off; below that is out of range
    assert parse_config_text("bank_size = 0").bank_size == 0
    with pytest.raises(ConfigError, match="bank_size"):
        parse_config_text("bank_size = -1")


def test_removed_keys_are_unknown():
    for key in ("use_sem", "use_gf", "use_gcf", "use_bank", "bank_dump_path"):
        with pytest.raises(ConfigError, match="^test: unknown config key"):
            apply_settings(RunConfig(), [("test", key, "false")])
