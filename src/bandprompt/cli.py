"""Command-line surface: gen / train / eval / diag / bank dump / gradcheck.

Every command resolves one flat RunConfig through `resolve_config` (defaults,
or for `eval` the checkpoint's stamped header < config file < --set <
SPECPL_SEED < command flags; a bad value's error names its source) and stamps
the resolved values as a comment header on whatever report it writes, so runs
are reproducible from their own output. `eval` skips stamped lines whose key
is not a config key, such as the `use_bank` and `bank_dump_path` keys older
versions stamped; a bad value of a config key there is a checkpoint error
naming its line. In `eval` the checkpoint's BANK block decides
whether the model has a bank, and its size, temperature and momentum replace
the resolved `bank_size`, `bank_tau` and `bank_momentum` (`BANK none` gives
`bank_size = 0`), so the report stamps the bank it scored with. Likewise the
encoder a checkpoint stamps (`embed_dim`, `seed` and the grid `grid_c/h/w`,
which every checkpoint carries, however it was saved) replaces the resolved
values: `eval` on a cache of another grid is a ProtocolError naming both
grids.
Exit codes: 0 success, 1 usage or config error, 2 runtime failure, such as a
float64 overflow (from `logit_scale=1e308`, say), which numpy raises. A
`train` whose epochs can never fill its bank (`BankFillError`) is a config
error, raised before any training step.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .bank import write_bank
from .config import FIELD_TYPES, RunConfig, apply_settings, resolve_config
from .diagnostics import diagnose, write_report
from .errors import (BandpromptError, BankFillError, ConfigError, NumericalDegeneracyError,
                     ParameterError, ProtocolError)
from .evaluate import check_shots, run_base_to_novel, score
from .teacher import generate_dataset, read_cache, write_cache
from .trainer import (
    ENCODER_KEYS,
    FD_TOLERANCE,
    ToyVisualEncoder,
    check_bank_fills,
    fit,
    load_checkpoint,
    run_gradient_check,
    save_checkpoint,
    state_from_values,
)

GRID_KEYS = ("grid_c", "grid_h", "grid_w")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="override one config key")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandprompt",
        description="Band-factorized prompt training on synthetic latent caches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic latent cache")
    _add_common(gen)
    gen.add_argument("--out", default=None, help="cache output path")
    gen.set_defaults(func=cmd_gen)

    train = sub.add_parser("train", help="train on a cache per the configured protocol")
    _add_common(train)
    train.add_argument("--cache", default=None, help="input cache path")
    train.add_argument("--checkpoint", default=None, help="checkpoint output path")
    train.add_argument("--history", default=None, help="loss history output path")
    train.add_argument("--report", default=None, help="evaluation report output path")
    train.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="score a saved checkpoint on a cache")
    _add_common(ev)
    ev.add_argument("--checkpoint", required=True, help="checkpoint to load")
    ev.add_argument("--cache", default=None, help="cache to score")
    ev.add_argument("--report", default=None, help="report output path")
    ev.set_defaults(func=cmd_eval)

    diag = sub.add_parser("diag", help="spectral overlap report for a cache")
    _add_common(diag)
    diag.add_argument("--cache", default=None, help="input cache path")
    diag.add_argument("--k", type=int, default=None, help="box filter size")
    diag.add_argument("--bands", type=int, default=None, help="radial bin count")
    diag.add_argument("--grid", type=int, default=None,
                      help="square alignment grid; 0 disables resampling")
    diag.add_argument("--report", default=None, help="report output path")
    diag.set_defaults(func=cmd_diag)

    bank = sub.add_parser("bank", help="bank inspection commands")
    bank_sub = bank.add_subparsers(dest="bank_command", required=True)
    dump = bank_sub.add_parser("dump", help="write a checkpoint's bank as text")
    dump.add_argument("--checkpoint", required=True, help="checkpoint to read")
    dump.add_argument("--out", default="bank_dump.txt", help="dump output path")
    dump.set_defaults(func=cmd_bank_dump)

    gc = sub.add_parser("gradcheck",
                        help="finite-difference audit of the analytic gradients")
    _add_common(gc)
    gc.add_argument("--cache", default=None,
                    help="optional cache; generated from the config when omitted")
    gc.set_defaults(func=cmd_gradcheck)

    return parser


def cmd_gen(args) -> int:
    cfg = resolve_config(args.config, args.overrides, flags=[("--out", "cache_path", args.out)])
    cache = generate_dataset(cfg.synthetic_spec(), cfg.n_per_class)
    write_cache(cache, cfg.cache_path)
    print(f"wrote {len(cache)} latents to {cfg.cache_path}")
    return 0


def _write_history(path, header: list[str], history) -> None:
    lines = list(header)
    lines.append("epoch cls sem gf gcf total")
    for i, parts in enumerate(history):
        cells = [str(i)]
        for name in ("cls", "sem", "granule_f", "granule_cf", "total"):
            v = getattr(parts, name)
            cells.append("none" if v is None else f"{v:.9f}")
        lines.append(" ".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_train(args) -> int:
    cfg = resolve_config(args.config, args.overrides, flags=[
        ("--cache", "cache_path", args.cache), ("--history", "history_path", args.history),
        ("--checkpoint", "checkpoint_path", args.checkpoint),
        ("--report", "eval_report_path", args.report),
    ])
    if cfg.protocol == "base_to_novel":
        try:
            check_shots(cfg.shots, cfg.select_by_base_val)
        except ParameterError as exc:
            raise ConfigError(str(exc)) from None
    cache = read_cache(cfg.cache_path)
    # Stamp the grid trained on, which `eval` holds a cache to.
    cfg = replace(cfg, **dict(zip(GRID_KEYS, cache.grid)))
    header = cfg.header_lines()
    if cfg.protocol == "base_to_novel":
        out = run_base_to_novel(cache, cfg, shots=cfg.shots,
                                select_by_base_val=cfg.select_by_base_val)
        state, res = out.state, out.result
        lines = header + [
            f"base_acc {res.base_acc:.6f}",
            f"novel_acc {res.novel_acc:.6f}",
            f"hm {res.hm:.6f}",
            f"gap_percent {res.gap_percent:.6f}",
            f"base_count {res.base_count}",
            f"novel_count {res.novel_count}",
        ]
        with open(cfg.eval_report_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"base {res.base_acc:.2f}  novel {res.novel_acc:.2f}  "
              f"hm {res.hm:.2f}  gap {res.gap_percent:.2f}")
    else:
        check_bank_fills(cfg, len(cache))  # as `run_base_to_novel` does
        state = fit(cache, cfg)
        print(f"trained {cfg.epochs} epochs on {len(cache)} latents")
    save_checkpoint(cfg.checkpoint_path, state, cfg.items())
    _write_history(cfg.history_path, header, state.epoch_history)
    print(f"checkpoint: {cfg.checkpoint_path}")
    return 0


def cmd_eval(args) -> int:
    header, param_values, bank = load_checkpoint(args.checkpoint)
    # Other header keys are foreign comments, or keys older versions had.
    try:
        stamped = apply_settings(RunConfig(), [
            (f"{args.checkpoint}:{line}", key, value)
            for key, (line, value) in header.items() if key in FIELD_TYPES
        ])
    except ConfigError as exc:
        raise ParameterError(str(exc)) from None
    cfg = resolve_config(args.config, args.overrides, base=stamped, flags=[
        ("--cache", "cache_path", args.cache), ("--report", "eval_report_path", args.report),
    ])
    # What the checkpoint trained is what is scored, so it is what is stamped:
    # its bank and its frozen encoder. A header without the encoder keys (a
    # checkpoint saved before checkpoints stamped their encoder) leaves the
    # resolved values and checks no grid.
    trained = {key: getattr(stamped, key) for key in ENCODER_KEYS if key in header}
    if bank is None:
        cfg = replace(cfg, bank_size=0, **trained)
    else:
        cfg = replace(cfg, bank_size=bank.size, bank_tau=bank.temperature,
                      bank_momentum=bank.momentum, **trained)
    cache = read_cache(cfg.cache_path)
    grid = (cfg.grid_c, cfg.grid_h, cfg.grid_w)
    if set(GRID_KEYS) <= trained.keys() and cache.grid != grid:
        raise ProtocolError(f"{cfg.cache_path}: cache grid {cache.grid} differs from the grid "
                            f"{grid} that {args.checkpoint} trained on")
    encoder = ToyVisualEncoder.create(cfg.embed_dim, cache.grid, cfg.seed)
    state = state_from_values(param_values, bank, encoder, cfg)
    labels = cache.labels()
    if labels.max() >= state.num_classes:
        raise ProtocolError(
            f"cache labels go up to {labels.max()} but the checkpoint "
            f"trained {state.num_classes} classes"
        )
    acc = score(state, cfg, encoder.encode_batch(cache.arrays()), labels)
    lines = cfg.header_lines() + [f"accuracy {acc:.6f}", f"samples {len(cache)}"]
    with open(cfg.eval_report_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"accuracy {acc:.2f} on {len(cache)} samples")
    return 0


def cmd_diag(args) -> int:
    cfg = resolve_config(args.config, args.overrides, flags=[
        ("--cache", "cache_path", args.cache), ("--report", "diag_report_path", args.report),
        ("--k", "kernel", args.k), ("--bands", "diag_bands", args.bands),
        ("--grid", "align_h", args.grid), ("--grid", "align_w", args.grid),
    ])
    if (cfg.align_h > 0) != (cfg.align_w > 0):
        raise ConfigError(f"align_h and align_w must both be 0 (no alignment) or both > 0, "
                          f"got {cfg.align_h} and {cfg.align_w}")
    cache = read_cache(cfg.cache_path)
    align = (cfg.align_h, cfg.align_w) if cfg.align_h > 0 else None
    report = diagnose(cache, kernel=cfg.kernel, num_bins=cfg.diag_bands, align=align)
    write_report(cfg.diag_report_path, report, cfg.header_lines())
    print(f"overlap_mean {report.overlap_mean:.6f}  "
          f"skipped {report.skipped_count}  report: {cfg.diag_report_path}")
    return 0


def cmd_bank_dump(args) -> int:
    _, _, bank = load_checkpoint(args.checkpoint)
    if bank is None:
        raise BandpromptError(f"{args.checkpoint}: checkpoint carries no bank")
    write_bank(bank, args.out)
    print(f"wrote {bank.size}x{bank.dim} bank to {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    cfg = resolve_config(args.config, args.overrides,
                         flags=[("--cache", "cache_path", args.cache)])
    if args.cache is not None:
        cache = read_cache(cfg.cache_path)
    else:
        cache = generate_dataset(cfg.synthetic_spec(), cfg.n_per_class)
    report = run_gradient_check(cache, cfg)
    for name in sorted(report.per_param):
        print(f"{name} {report.per_param[name]:.3e}")
    print(f"worst {report.worst_param} {report.worst_error:.3e}")
    print(f"excluded: {', '.join(report.excluded)}")
    if not report.passed:
        print(f"error: relative error exceeds {FD_TOLERANCE}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems and 0 for --help
        return 0 if exc.code == 0 else 1
    try:
        # An overflow, invalid operation or division by zero fails the
        # command rather than let it report a wrong result.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            try:
                return args.func(args)
            except FloatingPointError as exc:
                raise NumericalDegeneracyError(f"floating-point {exc}") from None
    except (ConfigError, BankFillError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BandpromptError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
