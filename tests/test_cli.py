"""End-to-end command-line behavior and exit codes."""

import os
from dataclasses import fields

import numpy as np
import pytest

from bandprompt.bank import read_bank
from bandprompt.cli import main
from bandprompt.config import RunConfig
from bandprompt.errors import ParameterError
from bandprompt.teacher import LatentCache, read_cache, write_cache
from bandprompt.evaluate import accuracy_percent, score
from bandprompt.trainer import TrainConfig, ToyVisualEncoder, fit, load_checkpoint, save_checkpoint
from test_teacher import BAD_RECORD_FAULTS, bad_record_cache

SMALL_CFG = """
num_classes = 4
n_per_class = 12
embed_dim = 8
bank_size = 6
batch_size = 5
epochs = 6
shots = 8
seed = 0
"""


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with a generated cache and two trained checkpoints."""
    saved = os.environ.pop("SPECPL_SEED", None)
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.cfg"
    cfg.write_text(SMALL_CFG)
    paths = {
        "cfg": str(cfg),
        "cache": str(root / "latents.bin"),
        "ckpt": str(root / "ckpt.txt"),
        "hist": str(root / "hist.txt"),
        "report": str(root / "eval.txt"),
        "all_ckpt": str(root / "all_ckpt.txt"),
        "root": root,
    }
    assert main(["gen", "--config", paths["cfg"], "--out", paths["cache"]]) == 0
    assert main(["train", "--config", paths["cfg"], "--cache", paths["cache"],
                 "--checkpoint", paths["ckpt"], "--history", paths["hist"],
                 "--report", paths["report"]]) == 0
    assert main(["train", "--config", paths["cfg"], "--set", "protocol=all",
                 "--set", "epochs=3", "--cache", paths["cache"],
                 "--checkpoint", paths["all_ckpt"],
                 "--history", str(root / "all_hist.txt"),
                 "--report", str(root / "all_eval.txt")]) == 0
    yield paths
    if saved is not None:
        os.environ["SPECPL_SEED"] = saved


def test_gen_writes_a_deterministic_cache(ws):
    cache = read_cache(ws["cache"])
    assert len(cache) == 48
    assert cache.grid == (4, 16, 16)
    again = str(ws["root"] / "again.bin")
    assert main(["gen", "--config", ws["cfg"], "--out", again]) == 0
    with open(ws["cache"], "rb") as a, open(again, "rb") as b:
        assert a.read() == b.read()


def test_train_emits_report_history_and_checkpoint(ws):
    report = open(ws["report"]).read().splitlines()
    assert report[0] == "# resolved-config"
    body = {ln.split()[0]: ln.split()[1] for ln in report if not ln.startswith("#")}
    assert set(body) == {"base_acc", "novel_acc", "hm", "gap_percent",
                         "base_count", "novel_count"}
    assert float(body["base_acc"]) == 100.0
    assert body["base_count"] == "8" and body["novel_count"] == "8"

    hist = open(ws["hist"]).read().splitlines()
    cols = [ln for ln in hist if not ln.startswith("#")]
    assert cols[0] == "epoch cls sem gf gcf total"
    assert len(cols) == 1 + 6  # one row per epoch
    assert all(len(ln.split()) == 6 for ln in cols[1:])

    header, values, bank = load_checkpoint(ws["ckpt"])
    assert header["protocol"][1] == "base_to_novel"
    assert header["epochs"][1] == "6"
    assert bank is not None and bank.full
    assert values["text_raw"].shape == (2, 8)  # two base classes


def test_set_overrides_reach_the_stamped_header(ws):
    root = ws["root"]
    ckpt = str(root / "nogcf.txt")
    hist = str(root / "nogcf_hist.txt")
    assert main(["train", "--config", ws["cfg"], "--set", "lambda_gcf=0",
                 "--set", "epochs=3", "--cache", ws["cache"],
                 "--checkpoint", ckpt, "--history", hist,
                 "--report", str(root / "nogcf_eval.txt")]) == 0
    header, _, _ = load_checkpoint(ckpt)
    assert header["lambda_gcf"][1] == "0.0"
    rows = [ln.split() for ln in open(hist) if not ln.startswith("#")][1:]
    assert all(row[4] == "none" for row in rows)  # gcf column disabled


def test_eval_scores_a_matching_cache(ws):
    out = str(ws["root"] / "eval_all.txt")
    code = main(["eval", "--checkpoint", ws["all_ckpt"],
                 "--cache", ws["cache"], "--report", out])
    assert code == 0
    lines = open(out).read().splitlines()
    body = {ln.split()[0]: ln.split()[1] for ln in lines if not ln.startswith("#")}
    assert body["samples"] == "48"
    assert 0.0 <= float(body["accuracy"]) <= 100.0
    assert float(body["accuracy"]) > 80.0  # protocol=all trains all classes


def test_eval_config_precedence(ws, tmp_path, monkeypatch):
    # checkpoint header < --config < --set < SPECPL_SEED < --cache/--report
    stamped = {"diag_bands": "3", "align_h": "5", "align_w": "5", "eta": "0.25",
               "seed": "1", "cache_path": "header.bin", "eval_report_path": "header.txt"}
    lines = []
    for ln in open(ws["all_ckpt"]).read().splitlines():
        key = ln[1:].partition("=")[0].strip() if ln.startswith("#") else None
        lines.append(f"# {key} = {stamped[key]}" if key in stamped else ln)
    # foreign header comments are skipped, not rejected
    lines[1:1] = ["# trained_on = lab machine"]
    ckpt = tmp_path / "stamped.txt"
    ckpt.write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "eval.cfg"
    cfg.write_text("align_h = 7\nalign_w = 7\neta = 0.5\nseed = 2\ncache_path = file.bin\n")
    monkeypatch.setenv("SPECPL_SEED", "4")
    out = tmp_path / "report.txt"
    assert main(["eval", "--checkpoint", str(ckpt), "--config", str(cfg),
                 "--set", "align_w=8", "--set", "seed=3", "--set", "eval_report_path=set.txt",
                 "--cache", ws["cache"], "--report", str(out)]) == 0
    header = {ln.split()[1]: ln.split()[3] for ln in open(out)
              if ln.startswith("# ") and " = " in ln}
    assert header["diag_bands"] == "3"          # header beats defaults
    assert header["align_h"] == "7"             # --config beats the header
    assert header["eta"] == "0.5"
    assert header["align_w"] == "8"             # --set beats --config
    assert header["seed"] == "1"                # the checkpoint's seed beats every source
    assert header["cache_path"] == ws["cache"]  # path flags beat everything
    assert header["eval_report_path"] == str(out)
    assert header["protocol"] == "all" and "trained_on" not in header


def test_eval_rejects_label_space_mismatch(ws):
    # base_to_novel checkpoint knows 2 classes; the cache labels 4
    code = main(["eval", "--checkpoint", ws["ckpt"], "--cache", ws["cache"],
                 "--report", str(ws["root"] / "bad_eval.txt")])
    assert code == 2


def test_eval_stops_on_a_partly_filled_bank(ws, capsys):
    # `train` refuses these settings (exit 1), so `fit` writes the checkpoint.
    root = ws["root"]
    ckpt = str(root / "partial.txt")
    cfg = RunConfig(num_classes=4, n_per_class=12, embed_dim=8, bank_size=64, batch_size=5,
                    epochs=1, seed=0, protocol="all")
    save_checkpoint(ckpt, fit(read_cache(ws["cache"]), cfg), cfg.items())
    _, _, bank = load_checkpoint(ckpt)
    assert bank.fill_count == 48 and not bank.full
    capsys.readouterr()
    assert main(["eval", "--checkpoint", ckpt, "--cache", ws["cache"],
                 "--report", str(root / "p_eval.txt")]) == 2
    assert "full bank" in capsys.readouterr().err


def test_eval_malformed_checkpoint_exits_two(ws, capsys):
    lines = open(ws["all_ckpt"]).read().splitlines()
    shape = next(i for i, ln in enumerate(lines) if ln.startswith("PARAM ")) + 1
    lines[shape] = "x16"
    bad = ws["root"] / "bad_shape.txt"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(bad), "--cache", ws["cache"],
                 "--report", str(ws["root"] / "bad_shape_eval.txt")]) == 2
    assert "malformed checkpoint" in capsys.readouterr().err
    bad.write_bytes(b"BANK none\nPARAM text_raw\n1\n\xff\n")
    assert main(["eval", "--checkpoint", str(bad), "--cache", ws["cache"],
                 "--report", str(ws["root"] / "bad_shape_eval.txt")]) == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_a_checkpoint_cut_inside_its_last_number_exits_two(ws, capsys):
    # The cut number still parses, as a nearby value; the missing final
    # newline is what stops the model from loading.
    data = open(ws["all_ckpt"], "rb").read()
    cut = ws["root"] / "cut.txt"
    cut.write_bytes(data[:-6])
    n_lines = data.count(b"\n")
    capsys.readouterr()
    for argv in (["eval", "--checkpoint", str(cut), "--cache", ws["cache"],
                  "--report", str(ws["root"] / "cut_eval.txt")],
                 ["bank", "dump", "--checkpoint", str(cut), "--out", str(ws["root"] / "cut_bank.txt")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{cut}:{n_lines}: checkpoint is cut short" in err and "Traceback" not in err
    assert not (ws["root"] / "cut_eval.txt").exists()


def _param_block(lines, name):
    """(start, end) line span of one PARAM block."""
    start = lines.index(f"PARAM {name}")
    shape = lines[start + 1].split()
    return start, start + 2 + (1 if len(shape) == 1 else int(shape[0]))


def _drop_block(name):
    def garble(lines):
        start, end = _param_block(lines, name)
        return lines[:start] + lines[end:]
    return garble


def _short_agg_b1(lines):
    # self-consistent block (7 values, shape 7), but the model needs 8
    start, _ = _param_block(lines, "agg.b1")
    lines[start + 1] = "7"
    lines[start + 2] = " ".join(lines[start + 2].split()[:7])
    return lines


def _extra_block(lines):
    return _drop_block("film.b2")(lines) + ["PARAM bogus.x", "1", "0.5"]


def _wide_bank(lines):
    start = next(i for i, ln in enumerate(lines) if ln.startswith("BANK "))
    size, dim, momentum, tau = lines[start + 1].split()
    lines[start + 1] = f"{size} {int(dim) + 1} {momentum} {tau}"
    for row in range(start + 2, start + 2 + int(size)):
        lines[row] += " 0"
    return lines


def _nan_value(lines):
    start, _ = _param_block(lines, "text_raw")
    lines[start + 2] = "nan " + lines[start + 2].partition(" ")[2]
    return lines


@pytest.mark.parametrize("garble, message", [
    (lambda lines: ["BANK none"], "missing"),
    (_drop_block("agg.ln_gain"), "missing ['agg.ln_gain']"),
    (_short_agg_b1, "'agg.b1' has shape (7,), expected (8,)"),
    (_extra_block, "missing ['film.b2'], unexpected ['bogus.x']"),
    (_nan_value, "'text_raw' has non-finite values"),
    (_wide_bank, "bank dim 9 does not match embed_dim 8"),
], ids=["bank-only", "no-ln-gain", "short-b1", "renamed-block", "nan", "bank-dim"])
def test_eval_rejects_parameters_off_the_table(ws, capsys, garble, message):
    lines = open(ws["all_ckpt"]).read().splitlines()
    bad = ws["root"] / "off_table.txt"
    bad.write_text("\n".join(garble(lines)) + "\n")
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(bad), "--cache", ws["cache"],
                 "--report", str(ws["root"] / "off_table_eval.txt")]) == 2
    assert message in capsys.readouterr().err


def test_usage_errors_exit_one(ws):
    assert main(["eval"]) == 1  # --checkpoint is required
    assert main(["nonsense"]) == 1
    assert main(["gen", "--config", ws["cfg"], "--set", "nope=1"]) == 1
    assert main(["gen", "--config", str(ws["root"] / "missing.cfg")]) == 1
    assert main(["--help"]) == 0


def test_non_utf8_config_is_a_config_error(ws, capsys):
    bad = ws["root"] / "not_utf8.cfg"
    bad.write_bytes(b"seed = 1\n# \xff\n")
    assert main(["gen", "--config", str(bad), "--out", str(ws["root"] / "x.bin")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not_utf8.cfg" in err and "UTF-8" in err


def test_a_config_file_that_sets_a_key_twice_exits_one(ws, capsys):
    dup = ws["root"] / "dup.cfg"
    dup.write_text("seed = 1\nepochs = 2\nseed = 3\n")
    out = ws["root"] / "dup.bin"
    capsys.readouterr()
    assert main(["gen", "--config", str(dup), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[0] == (f"error: {dup}: line 3: config key 'seed' is set twice, "
                                   "at line 1 and line 3")
    assert "Traceback" not in err and not out.exists()


FLOAT_KEYS = [f.name for f in fields(RunConfig) if f.type == "float"]


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_settings_exit_one(ws, capsys, key):
    out = ws["root"] / f"nonfinite_{key}"
    for value in ("nan", "inf", "-inf"):
        assert main(["train", "--config", ws["cfg"], "--set", f"{key}={value}",
                     "--cache", ws["cache"], "--checkpoint", f"{out}_ckpt.txt",
                     "--history", f"{out}_hist.txt", "--report", f"{out}_eval.txt"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err and value in err
    assert not os.path.exists(f"{out}_ckpt.txt")


@pytest.mark.parametrize("settings", [["logit_scale=1e308", "epochs=1"],
                                      ["lambda_sem=1e308", "epochs=2"]],
                         ids=["logit_scale", "lambda_sem"])
def test_a_float_overflow_exits_two_before_any_report(ws, capsys, settings):
    # Each value is finite, so the config takes it, but float64 overflows
    # on it: a wrong accuracy or an infinite loss must not be written.
    out = ws["root"] / f"overflow_{settings[0].partition('=')[0]}"
    argv = ["train", "--config", ws["cfg"], "--cache", ws["cache"],
            "--checkpoint", f"{out}_ckpt.txt", "--history", f"{out}_hist.txt",
            "--report", f"{out}_eval.txt"]
    for setting in settings:
        argv += ["--set", setting]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: floating-point overflow") and len(err.splitlines()) == 1
    for suffix in ("ckpt", "hist", "eval"):
        assert not os.path.exists(f"{out}_{suffix}.txt"), suffix


@pytest.mark.parametrize("settings", [["protocol=all", "epochs=0"],
                                      ["protocol=all", "bank_size=5000", "epochs=1"],
                                      ["bank_size=5000", "epochs=1"]],
                         ids=["all-epochs-0", "all-bank-5000", "base_to_novel-bank-5000"])
def test_a_bank_that_never_fills_exits_one_before_training(ws, capsys, monkeypatch, settings):
    # `eval` would reject the unfilled bank of such a checkpoint; under
    # base_to_novel scoring would, after every epoch had run.
    from bandprompt import evaluate, trainer

    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(trainer, "train_epochs", no_training)
    monkeypatch.setattr(evaluate, "train_epochs", no_training)
    out = ws["root"] / f"unfilled_{'_'.join(settings)}"
    argv = ["train", "--config", ws["cfg"], "--cache", ws["cache"],
            "--checkpoint", f"{out}_ckpt.txt", "--history", f"{out}_hist.txt",
            "--report", f"{out}_eval.txt"]
    for setting in settings:
        argv += ["--set", setting]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bank_size ") and len(err.splitlines()) == 1
    assert "can never fill: epochs " in err and " latents" in err
    for suffix in ("ckpt", "hist", "eval"):
        assert not os.path.exists(f"{out}_{suffix}.txt"), suffix


def test_missing_inputs_exit_two(ws):
    assert main(["train", "--config", ws["cfg"],
                 "--cache", str(ws["root"] / "missing.bin"),
                 "--checkpoint", str(ws["root"] / "x.txt"),
                 "--history", str(ws["root"] / "x_h.txt"),
                 "--report", str(ws["root"] / "x_r.txt")]) == 2
    assert main(["bank", "dump", "--checkpoint", str(ws["root"] / "missing.txt")]) == 2


def test_diag_flags_map_onto_config(ws):
    out = str(ws["root"] / "diag.txt")
    assert main(["diag", "--config", ws["cfg"], "--cache", ws["cache"],
                 "--k", "3", "--bands", "6", "--grid", "8", "--report", out]) == 0
    lines = open(out).read().splitlines()
    header = {ln.split()[1]: ln.split()[3] for ln in lines
              if ln.startswith("#") and "=" in ln}
    assert header["kernel"] == "3"
    assert header["diag_bands"] == "6"
    assert header["align_h"] == "8" and header["align_w"] == "8"
    table = [ln for ln in lines if not ln.startswith("#")]
    assert table[0] == "band_index e_base e_detail min"
    assert len([ln for ln in table if ln[0].isdigit()]) == 6
    assert main(["diag", "--config", ws["cfg"], "--cache", ws["cache"],
                 "--k", "3", "--bands", "6", "--grid", "8", "--report",
                 str(ws["root"] / "diag2.txt")]) == 0
    # identical up to the stamped output path itself
    strip = lambda p: [ln for ln in open(p) if "diag_report_path" not in ln]
    assert strip(out) == strip(str(ws["root"] / "diag2.txt"))


def test_diag_grid_zero_disables_alignment(ws):
    out = str(ws["root"] / "diag_noalign.txt")
    assert main(["diag", "--config", ws["cfg"], "--cache", ws["cache"],
                 "--grid", "0", "--report", out]) == 0
    lines = open(out).read().splitlines()
    header = {ln.split()[1]: ln.split()[3] for ln in lines
              if ln.startswith("#") and "=" in ln}
    assert header["align_h"] == "0"


@pytest.mark.parametrize("setting", ["align_h=0", "align_w=0"])
def test_diag_with_one_alignment_side_zero_exits_one(ws, capsys, setting):
    # The cache does not exist: exit 1 shows the config failed before any read.
    out = ws["root"] / "diag_half.txt"
    capsys.readouterr()
    assert main(["diag", "--config", ws["cfg"], "--set", setting,
                 "--cache", str(ws["root"] / "missing.bin"), "--report", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "align_h" in err and "align_w" in err
    assert not out.exists()


@pytest.mark.parametrize("fault", [fault for fault, _ in BAD_RECORD_FAULTS])
def test_diag_names_a_broken_record_and_exits_two(ws, capsys, fault):
    path = ws["root"] / f"bad_{fault}.bin"
    path.write_bytes(bad_record_cache(fault))
    capsys.readouterr()
    assert main(["diag", "--config", ws["cfg"], "--cache", str(path),
                 "--report", str(ws["root"] / f"bad_{fault}.txt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "record 1" in err
    assert "Traceback" not in err


def test_diag_on_a_one_cell_grid_puts_all_energy_in_bin_one(ws):
    out = str(ws["root"] / "diag_one_cell.txt")
    assert main(["diag", "--config", ws["cfg"], "--cache", ws["cache"],
                 "--bands", "3", "--grid", "1", "--report", out]) == 0
    rows = [ln.split() for ln in open(out) if ln[0].isdigit()]
    assert [r[1] for r in rows] == ["1.000000", "0.000000", "0.000000"]


def test_bank_dump_round_trip(ws):
    out = str(ws["root"] / "bank.txt")
    assert main(["bank", "dump", "--checkpoint", ws["ckpt"], "--out", out]) == 0
    dumped = read_bank(out)
    _, _, bank = load_checkpoint(ws["ckpt"])
    assert np.array_equal(dumped.entries, bank.entries)


@pytest.fixture(scope="module")
def nobank(ws):
    """A protocol=all checkpoint trained with `bank_size = 0`."""
    root = ws["root"]
    ckpt = str(root / "nobank.txt")
    assert main(["train", "--config", ws["cfg"], "--set", "bank_size=0",
                 "--set", "lambda_sem=0", "--set", "protocol=all",
                 "--set", "epochs=2", "--cache", ws["cache"],
                 "--checkpoint", ckpt, "--history", str(root / "nb_h.txt"),
                 "--report", str(root / "nb_r.txt")]) == 0
    return ckpt


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_a_non_finite_bank_row_exits_two(ws, capsys, bad):
    # The intact checkpoint scores; one bank row of nan or inf must not load
    # as a model that scores at chance.
    lines = open(ws["all_ckpt"]).read().splitlines()
    row = next(i for i, ln in enumerate(lines) if ln.startswith("BANK ")) + 2
    lines[row] = " ".join([bad] * len(lines[row].split()))
    ckpt = ws["root"] / f"bank_{bad}.txt"
    ckpt.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParameterError, match="bank entry 0 has non-finite values"):
        load_checkpoint(ckpt)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--cache", ws["cache"],
                 "--report", str(ws["root"] / f"bank_{bad}_eval.txt")]) == 2
    assert main(["bank", "dump", "--checkpoint", str(ckpt),
                 "--out", str(ws["root"] / f"bank_{bad}_dump.txt")]) == 2
    err = capsys.readouterr().err
    assert err.count("non-finite") == 2
    assert not os.path.exists(ws["root"] / f"bank_{bad}_eval.txt")
    assert not os.path.exists(ws["root"] / f"bank_{bad}_dump.txt")


def test_bank_dump_requires_a_bank(nobank):
    assert "BANK none" in open(nobank).read().splitlines()
    assert main(["bank", "dump", "--checkpoint", nobank]) == 2


def _raw_row_accuracy(ckpt, cache_path) -> float:
    """Accuracy of argmax(v @ text_raw^T) under the checkpoint's text rows."""
    header, params, _ = load_checkpoint(ckpt)
    cache = read_cache(cache_path)
    encoder = ToyVisualEncoder.create(int(header["embed_dim"][1]), cache.grid,
                                      int(header["seed"][1]))
    visual = encoder.encode_batch(cache.arrays())
    return accuracy_percent(np.argmax(visual @ params["text_raw"].T, axis=1), cache.labels())


def _eval_accuracy(ckpt, cache_path, out, *settings) -> str:
    sets = [arg for pair in settings for arg in ("--set", pair)]
    assert main(["eval", "--checkpoint", str(ckpt), *sets, "--cache", cache_path,
                 "--report", str(out)]) == 0
    return next(ln.split()[1] for ln in open(out) if ln.startswith("accuracy "))


def test_eval_without_a_bank_scores_the_raw_rows(ws, nobank, tmp_path):
    got = _eval_accuracy(nobank, ws["cache"], tmp_path / "nb_eval.txt")
    assert got == f"{_raw_row_accuracy(nobank, ws['cache']):.6f}"


def test_eval_of_a_checkpoint_stamped_use_bank_false(ws, nobank, tmp_path):
    # older versions switched the bank off with `use_bank = false` and still
    # stamped a bank size; eval skips that key and reads the BANK none block
    lines = ["# bank_size = 6" if ln == "# bank_size = 0" else ln
             for ln in open(nobank).read().splitlines()]
    lines.insert(1, "# use_bank = false")
    ckpt = tmp_path / "old_nobank.txt"
    ckpt.write_text("\n".join(lines) + "\n")
    out = tmp_path / "old_eval.txt"
    assert _eval_accuracy(ckpt, ws["cache"], out) == f"{_raw_row_accuracy(ckpt, ws['cache']):.6f}"
    assert "# use_bank = " not in out.read_text()


def test_eval_stamps_the_bank_it_scored_with(ws, nobank, tmp_path):
    # the checkpoint's BANK block is what eval scores with, so a --set of a
    # bank key changes neither the accuracy nor the stamped value
    _, _, bank = load_checkpoint(ws["all_ckpt"])
    stamps = [f"# bank_size = {bank.size}", f"# bank_tau = {bank.temperature}",
              f"# bank_momentum = {bank.momentum}"]
    plain = _eval_accuracy(ws["all_ckpt"], ws["cache"], tmp_path / "plain.txt")
    for setting in ("bank_tau=5.0", "bank_size=0", "bank_momentum=0.5"):
        out = tmp_path / "set.txt"
        assert _eval_accuracy(ws["all_ckpt"], ws["cache"], out, setting) == plain
        lines = out.read_text().splitlines()
        assert all(stamp in lines for stamp in stamps), setting
    out = tmp_path / "nobank.txt"
    _eval_accuracy(nobank, ws["cache"], out, "bank_size=6")
    assert "# bank_size = 0" in out.read_text().splitlines()


@pytest.mark.parametrize("how", ["--set", "SPECPL_SEED"])
def test_eval_draws_the_encoder_from_the_stamped_seed(ws, tmp_path, monkeypatch, how):
    # The seed draws the frozen encoder, so another seed would score another
    # model; eval takes the checkpoint's, whatever the config resolves.
    plain = _eval_accuracy(ws["all_ckpt"], ws["cache"], tmp_path / "plain.txt")
    out = tmp_path / "reseeded.txt"
    if how == "--set":
        got = _eval_accuracy(ws["all_ckpt"], ws["cache"], out, "seed=7")
    else:
        monkeypatch.setenv("SPECPL_SEED", "9")
        got = _eval_accuracy(ws["all_ckpt"], ws["cache"], out)
    assert got == plain and float(plain) > 80.0
    assert "# seed = 0" in out.read_text().splitlines()


@pytest.mark.parametrize("how", ["default", "--set", "SPECPL_SEED"])
def test_eval_of_a_library_checkpoint_scores_its_own_encoder(ws, tmp_path, monkeypatch, how):
    # `save_checkpoint` without a header stamps the encoder all the same, so
    # eval redraws the one the model trained over, not the resolved seed's.
    cache = read_cache(ws["cache"])
    cfg = TrainConfig(embed_dim=8, bank_size=6, batch_size=5, epochs=3, seed=3)
    state = fit(cache, cfg)
    ckpt = tmp_path / "library.txt"
    save_checkpoint(ckpt, state)
    want = score(state, cfg, state.encoder.encode_batch(cache.arrays()), cache.labels())
    settings = ["seed=0", "embed_dim=16"] if how == "--set" else []
    if how == "SPECPL_SEED":
        monkeypatch.setenv("SPECPL_SEED", "5")
    out = tmp_path / "report.txt"
    assert _eval_accuracy(ckpt, ws["cache"], out, *settings) == f"{want:.6f}"
    assert float(want) > 80.0
    lines = out.read_text().splitlines()
    assert {"# seed = 3", "# embed_dim = 8", "# grid_h = 16"} <= set(lines)


@pytest.fixture(scope="module")
def small_grid(ws):
    """A 4x8x8 cache and a checkpoint trained on it under the default grid keys."""
    root = ws["root"]
    paths = {"cache": str(root / "grid8.bin"), "ckpt": str(root / "grid8_ckpt.txt")}
    assert main(["gen", "--config", ws["cfg"], "--set", "grid_h=8", "--set", "grid_w=8",
                 "--out", paths["cache"]]) == 0
    assert main(["train", "--config", ws["cfg"], "--set", "protocol=all", "--set", "epochs=2",
                 "--cache", paths["cache"], "--checkpoint", paths["ckpt"],
                 "--history", str(root / "grid8_hist.txt"),
                 "--report", str(root / "grid8_eval.txt")]) == 0
    return paths


def test_train_stamps_the_grid_of_its_cache(small_grid):
    header, _, _ = load_checkpoint(small_grid["ckpt"])
    assert [header[key][1] for key in ("grid_c", "grid_h", "grid_w")] == ["4", "8", "8"]


def test_eval_rejects_a_cache_of_another_grid(ws, small_grid, tmp_path, capsys):
    out = tmp_path / "report.txt"
    for ckpt, cache in ((ws["all_ckpt"], small_grid["cache"]),
                        (small_grid["ckpt"], ws["cache"])):
        capsys.readouterr()
        assert main(["eval", "--checkpoint", ckpt, "--cache", cache,
                     "--report", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "(4, 8, 8)" in err and "(4, 16, 16)" in err
        assert not out.exists()
    assert main(["eval", "--checkpoint", small_grid["ckpt"], "--cache", small_grid["cache"],
                 "--report", str(out)]) == 0


def test_env_seed_wins(ws, monkeypatch):
    monkeypatch.setenv("SPECPL_SEED", "5")
    out = str(ws["root"] / "diag_env.txt")
    assert main(["diag", "--config", ws["cfg"], "--cache", ws["cache"],
                 "--report", out]) == 0
    lines = open(out).read().splitlines()
    assert "# seed = 5" in lines


def test_gradcheck_passes_on_a_small_config(ws):
    assert main(["gradcheck", "--config", ws["cfg"],
                 "--set", "n_per_class=8", "--cache", ws["cache"]]) == 0


OUT_OF_RANGE = [
    ("embed_dim", "0"), ("kernel", "4"), ("lambda_sem", "-0.1"), ("lambda_gf", "-0.1"),
    ("lambda_gcf", "-0.1"), ("eta", "1.5"), ("logit_scale", "0"), ("epochs", "-1"),
    ("batch_size", "0"), ("learning_rate", "-1e-3"), ("bank_size", "-1"),
    ("bank_tau", "0"), ("bank_momentum", "1.5"), ("anchor", "image_embedding"),
    # the keys only RunConfig declares, which train does not otherwise read
    ("num_classes", "0"), ("n_per_class", "0"), ("base_modes", "0"), ("detail_modes", "0"),
    ("noise_std", "-1"), ("identity_band", "bogus"), ("grid_c", "0"), ("grid_h", "3"),
    ("grid_w", "3"), ("shots", "0"), ("protocol", "bogus"), ("diag_bands", "0"),
    ("align_h", "-3"), ("align_w", "-1"), ("cache_path", ""), ("checkpoint_path", ""),
    ("eval_report_path", ""), ("history_path", ""), ("diag_report_path", ""),
    # a deleted key is unknown, and train rejects it the same way
    ("bank_dump_path", ""),
]


@pytest.mark.parametrize("key, value", OUT_OF_RANGE, ids=[k for k, _ in OUT_OF_RANGE])
def test_out_of_range_settings_exit_one(ws, capsys, key, value):
    # the cache does not exist: exit 1 shows the config failed before any read
    out = ws["root"] / f"range_{key}"
    cfg = ws["root"] / f"range_{key}.cfg"
    cfg.write_text(f"{SMALL_CFG}\n{key} = {value}\n")
    for source in (["--config", ws["cfg"], "--set", f"{key}={value}"], ["--config", str(cfg)]):
        assert main(["train", *source, "--cache", str(ws["root"] / "missing.bin"),
                     "--checkpoint", f"{out}_ckpt.txt", "--history", f"{out}_hist.txt",
                     "--report", f"{out}_eval.txt"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
    assert not any(os.path.exists(f"{out}_{s}.txt") for s in ("ckpt", "hist", "eval"))


@pytest.mark.parametrize("setting", ["base_modes=50", "detail_modes=40"])
def test_mode_counts_the_grid_cannot_hold_exit_one(ws, capsys, tmp_path, setting):
    # Cross-field: the pools grow with the channel count, so the check runs
    # on the resolved config, not as the key is applied.
    out = tmp_path / "modes.bin"
    capsys.readouterr()
    for command in (["gen", "--out", str(out)], ["gradcheck"]):
        assert main([*command, "--config", ws["cfg"], "--set", setting]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and setting.partition("=")[0] in err
    assert not out.exists()
    assert main(["gen", "--config", ws["cfg"], "--set", setting, "--set", "grid_c=17",
                 "--set", "n_per_class=1", "--out", str(out)]) == 0


def test_base_validation_with_one_shot_exits_one(ws, capsys):
    # checked before the (missing) cache is read; protocol=all reads no shots
    out = ws["root"] / "one_shot"
    paths = ["--checkpoint", f"{out}_ckpt.txt", "--history", f"{out}_hist.txt",
             "--report", f"{out}_eval.txt", "--cache", str(ws["root"] / "missing.bin")]
    flags = ["--config", ws["cfg"], "--set", "shots=1", "--set", "select_by_base_val=true"]
    capsys.readouterr()
    assert main(["train", *flags, *paths]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "shots" in err
    assert main(["train", *flags, "--set", "protocol=all", *paths]) == 2
    assert "missing.bin" in capsys.readouterr().err
    assert not any(os.path.exists(f"{out}_{s}.txt") for s in ("ckpt", "hist", "eval"))


def _restamp(ws, tmp_path, key, value):
    """The protocol=all checkpoint with its `key` header line set to `value`,
    or with `# key = value` added when the header has no such line."""
    lines = open(ws["all_ckpt"]).read().splitlines()
    prefix = f"# {key} = "
    at = [i for i, ln in enumerate(lines) if ln.startswith(prefix)]
    if at:
        lines[at[0]] = prefix + value
    else:
        lines.insert(1, prefix + value)
    ckpt = tmp_path / "restamped.txt"
    ckpt.write_text("\n".join(lines) + "\n")
    return str(ckpt)


@pytest.mark.parametrize("key, value", [("logit_scale", "1e-3x"), ("eta", "2.0")])
def test_eval_bad_stamped_value_exits_two(ws, tmp_path, capsys, key, value):
    ckpt = _restamp(ws, tmp_path, key, value)
    out = tmp_path / "report.txt"
    capsys.readouterr()
    assert main(["eval", "--checkpoint", ckpt, "--cache", ws["cache"],
                 "--report", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ckpt in err and key in err
    assert not out.exists()


@pytest.mark.parametrize("source", ["SPECPL_SEED", "--set", "file", "--k", "--out", "stamped"])
def test_each_config_source_names_itself(ws, tmp_path, capsys, monkeypatch, source):
    # Every setting goes through `apply_settings`, whose errors start with
    # the setting's source; a bad stamped value is a broken checkpoint.
    monkeypatch.delenv("SPECPL_SEED", raising=False)
    out, missing = str(tmp_path / "out.bin"), str(tmp_path / "missing.bin")
    if source == "SPECPL_SEED":
        monkeypatch.setenv("SPECPL_SEED", "x")
        argv, message, code = ["gen", "--out", out], "SPECPL_SEED: invalid value for seed: 'x'", 1
    elif source == "--set":
        argv = ["gen", "--set", "epochs=x", "--out", out]
        message, code = "--set epochs=x: invalid value for epochs: 'x'", 1
    elif source == "file":
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("seed = 1\nepochs = x\n")
        argv = ["gen", "--config", str(cfg), "--out", out]
        message, code = f"{cfg}: line 2: invalid value for epochs: 'x'", 1
    elif source == "--k":
        argv = ["diag", "--cache", missing, "--k", "4", "--report", out]
        message, code = "--k: invalid value for kernel: '4': kernel must be odd", 1
    elif source == "--out":
        argv = ["gen", "--out", ""]
        message, code = "--out: invalid value for cache_path: '': cache_path must not", 1
    else:
        ckpt = _restamp(ws, tmp_path, "seed", "x")
        line = open(ckpt).read().splitlines().index("# seed = x") + 1
        argv = ["eval", "--checkpoint", ckpt, "--cache", ws["cache"], "--report", out]
        message, code = f"{ckpt}:{line}: invalid value for seed: 'x'", 2
    capsys.readouterr()
    assert main(argv) == code
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not os.path.exists(out)


@pytest.mark.parametrize("source", ["gen --set", "train --set", "SPECPL_SEED", "file",
                                    "stamped"])
def test_a_negative_seed_fails_naming_its_source(ws, tmp_path, capsys, monkeypatch, source):
    # numpy's SeedSequence takes no negative integer; the config rejects one
    # as it is applied, so no command reaches it with a bare ValueError.
    monkeypatch.delenv("SPECPL_SEED", raising=False)
    out = str(tmp_path / "out.bin")
    reason = "invalid value for seed: '-1': seed must be >= 0, got -1"
    code = 1
    if source == "gen --set":
        argv, message = ["gen", "--set", "seed=-1", "--out", out], f"--set seed=-1: {reason}"
    elif source == "train --set":
        argv = ["train", "--config", ws["cfg"], "--set", "seed=-1", "--cache", ws["cache"],
                "--checkpoint", out]
        message = f"--set seed=-1: {reason}"
    elif source == "SPECPL_SEED":
        monkeypatch.setenv("SPECPL_SEED", "-1")
        argv, message = ["gen", "--out", out], f"SPECPL_SEED: {reason}"
    elif source == "file":
        cfg = tmp_path / "neg.cfg"
        cfg.write_text("epochs = 2\nseed = -1\n")
        argv, message = ["gen", "--config", str(cfg), "--out", out], f"{cfg}: line 2: {reason}"
    else:
        ckpt = _restamp(ws, tmp_path, "seed", "-1")
        line = open(ckpt).read().splitlines().index("# seed = -1") + 1
        argv = ["eval", "--checkpoint", ckpt, "--cache", ws["cache"], "--report", out]
        message, code = f"{ckpt}:{line}: {reason}", 2
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("key, value", [("note", "x"), ("use_gcf", "false")])
def test_eval_skips_header_lines_that_are_not_config_keys(ws, tmp_path, key, value):
    ckpt = _restamp(ws, tmp_path, key, value)
    out = tmp_path / "report.txt"
    assert main(["eval", "--checkpoint", ckpt, "--cache", ws["cache"],
                 "--report", str(out)]) == 0
    assert f"# {key} = " not in out.read_text()


@pytest.mark.parametrize("key, value", [("protocol", "bogus"), ("eta", "0.5")])
def test_eval_repeated_header_key_exits_two(ws, tmp_path, capsys, key, value):
    # a second line for a stamped key is an edited file, not a precedence rule
    lines = open(ws["all_ckpt"]).read().splitlines()
    lines.insert(1, f"# {key} = {value}")
    ckpt = tmp_path / "repeated.txt"
    ckpt.write_text("\n".join(lines) + "\n")
    out = tmp_path / "report.txt"
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--cache", ws["cache"],
                 "--report", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(ckpt) in err and repr(key) in err
    assert not out.exists()


def test_empty_cache_exits_two(ws, capsys):
    empty = ws["root"] / "empty.bin"
    write_cache(LatentCache([]), empty)
    out = ws["root"] / "empty_out"
    capsys.readouterr()
    assert main(["train", "--config", ws["cfg"], "--cache", str(empty),
                 "--checkpoint", f"{out}_ckpt.txt", "--history", f"{out}_hist.txt",
                 "--report", f"{out}_eval.txt"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "empty cache" in err
