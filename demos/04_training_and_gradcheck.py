"""A full training run plus a finite-difference audit of every gradient.

fit() trains the text rows, both projection heads, the aggregator, and the
fusion/FiLM nets with Adam on the combined objective; the visual encoder and
the bank entries are inputs, not parameters. The gradient check perturbs
every coordinate of every parameter on the exact training graph and compares
the analytic gradient against a five-point difference at step FD_STEP.
"""

from bandprompt.teacher import SyntheticSpec, generate_dataset
from bandprompt.trainer import FD_STEP, FROZEN_INPUTS, TrainConfig, fit, run_gradient_check


def main() -> None:
    cache = generate_dataset(SyntheticSpec(num_classes=4, seed=0), n_per_class=12)
    cfg = TrainConfig(embed_dim=8, bank_size=8, batch_size=8, epochs=12,
                      learning_rate=2e-3, seed=0)

    state = fit(cache, cfg)
    print("epoch |   total |     cls |     sem |      gf |     gcf")
    for i, parts in enumerate(state.epoch_history):
        if i % 2 and i != len(state.epoch_history) - 1:
            continue
        print(f"  {i:3d} | {parts.total:7.4f} | {parts.cls:7.4f} | "
              f"{parts.sem:7.4f} | {parts.granule_f:7.4f} | {parts.granule_cf:7.4f}")

    first, last = state.epoch_history[0], state.epoch_history[-1]
    print(f"\ntotal loss {first.total:.4f} -> {last.total:.4f} over {cfg.epochs} epochs "
          f"({state.optimizer.t} optimizer steps, bank mode {state.bank.mode})")

    # frozen inputs never move; all trainables do
    groups = sorted({k.split(".")[0] for k in state.params})
    print(f"trainable parameter groups: {groups}")
    print(f"frozen inputs (excluded from training and from the check): {FROZEN_INPUTS}")

    # ------------------------------------------------------------------
    # finite-difference audit on a fresh state, one batch of the real graph
    report = run_gradient_check(cache, cfg)
    print("\nper-parameter worst relative error:")
    for name in sorted(report.per_param):
        print(f"  {name:14s} {report.per_param[name]:.2e}")
    print(f"worst {report.worst_error:.2e} at {report.worst_param} "
          f"(step {FD_STEP:g}, passed={report.passed})")


if __name__ == "__main__":
    main()
