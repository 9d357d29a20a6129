"""Metrics, inference, and the base-to-novel protocol."""

from dataclasses import replace

import numpy as np
import pytest

from bandprompt import evaluate
from bandprompt.errors import BankFillError, NumericalDegeneracyError, ParameterError, ProtocolError
from bandprompt.evaluate import (
    EvalResult,
    accuracy_percent,
    generalization_gap,
    granule_source_accuracy,
    harmonic_mean,
    predict,
    run_base_to_novel,
    split_base_novel,
)
from bandprompt.refine import TextFeatureSet
from bandprompt.teacher import (CacheRecord, LatentCache, LatentTensor, SyntheticSpec,
                                generate_dataset)
from bandprompt.trainer import ANCHOR_POLICIES, ToyVisualEncoder, TrainConfig, fit
from reference_ops import (subset_base_to_novel, traced_peak,
                           value_copy_granule_source_accuracy)
from test_trainer import assert_views, optimizer_bytes


def test_harmonic_mean_pinned_values():
    assert harmonic_mean(82.69, 63.22) == pytest.approx(71.66, abs=0.005)
    assert harmonic_mean(83.32, 70.74) == pytest.approx(76.52, abs=0.005)
    assert harmonic_mean(50.0, 50.0) == pytest.approx(50.0, abs=1e-12)
    assert harmonic_mean(0.0, 0.0) == 0.0
    assert harmonic_mean(100.0, 0.0) == 0.0
    with pytest.raises(ParameterError):
        harmonic_mean(-1.0, 50.0)


def test_generalization_gap_pinned_values():
    assert generalization_gap(82.69, 63.22) == pytest.approx(23.546, abs=0.01)
    assert generalization_gap(80.0, 80.0) == 0.0
    assert generalization_gap(80.0, 0.0) == 100.0
    assert generalization_gap(50.0, 75.0) == pytest.approx(-50.0, abs=1e-12)
    with pytest.raises(ProtocolError):
        generalization_gap(0.0, 10.0)


def test_predict_orthogonal_rows_and_tie_breaking():
    rows = np.eye(3)
    logits, labels = predict(np.eye(3)[[1, 2, 0]], rows, 100.0)
    assert np.array_equal(logits, 100.0 * np.eye(3)[[1, 2, 0]])
    assert np.array_equal(labels, [1, 2, 0])
    # exactly equidistant: argmax takes the lowest class index
    ties = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0]]) / np.sqrt(2.0)
    _, tie = predict(ties, rows, 100.0)
    assert np.array_equal(tie, [0, 1, 0])
    feats = TextFeatureSet(mixed=rows[::-1].copy())
    _, flipped = predict(np.eye(3)[[0, 2]], feats, 100.0)
    assert np.array_equal(flipped, [2, 0])  # predictions read the mixed rows
    with pytest.raises(ParameterError):
        predict(np.zeros((2, 2)), rows, 100.0)  # visual dim differs from the text dim
    with pytest.raises(ParameterError):
        predict(np.zeros((2, 3)), rows[0], 100.0)  # text rows are not a matrix
    with pytest.raises(ParameterError):
        predict(np.zeros(3), rows, 100.0)  # one embedding is not a batch of rows


def test_accuracy_percent():
    assert accuracy_percent(np.array([0, 1, 2, 2]), np.array([0, 1, 1, 2])) == 75.0
    with pytest.raises(ParameterError):
        accuracy_percent(np.array([0]), np.array([0, 1]))
    with pytest.raises(ParameterError):
        accuracy_percent(np.array([]), np.array([]))


def test_split_base_novel_even_odd():
    base, novel = split_base_novel(6)
    assert base == (0, 2, 4) and novel == (1, 3, 5)
    base, novel = split_base_novel(5)
    assert base == (0, 2, 4) and novel == (1, 3)
    with pytest.raises(ProtocolError):
        split_base_novel(1)


@pytest.fixture(scope="module")
def proto_setup():
    cache = generate_dataset(SyntheticSpec(num_classes=4, seed=0), n_per_class=12)
    cfg = TrainConfig(embed_dim=8, bank_size=6, batch_size=5, epochs=6, seed=0)
    return cache, cfg


def test_protocol_structure_and_bookkeeping(proto_setup):
    cache, cfg = proto_setup
    out = run_base_to_novel(cache, cfg, shots=8, select_by_base_val=False)
    assert out.result.base_classes == (0, 2) and out.result.novel_classes == (1, 3)
    labels = cache.labels()
    for c in range(4):
        shots = out.shot_indices[c]
        held = out.eval_indices[c]
        assert len(shots) == 8 and len(held) == 4
        assert np.intersect1d(shots, held).size == 0
        assert np.all(labels[shots] == c) and np.all(labels[held] == c)
    res = out.result
    assert res.base_count == 8 and res.novel_count == 8
    assert 0.0 <= res.novel_acc <= 100.0 and 0.0 <= res.base_acc <= 100.0
    assert res.hm == pytest.approx(harmonic_mean(res.base_acc, res.novel_acc), abs=1e-9)
    # trained base rows separate the toy classes perfectly
    assert res.base_acc == 100.0


def test_protocol_is_deterministic(proto_setup):
    cache, cfg = proto_setup
    a = run_base_to_novel(cache, cfg, shots=8, select_by_base_val=False)
    b = run_base_to_novel(cache, cfg, shots=8, select_by_base_val=False)
    assert a.result == b.result
    for name in a.state.params:
        assert np.array_equal(a.state.params[name].value, b.state.params[name].value)


def test_protocol_needs_a_held_out_pool(proto_setup):
    cache, cfg = proto_setup
    with pytest.raises(ProtocolError, match="held-out"):
        run_base_to_novel(cache, cfg, shots=12, select_by_base_val=False)
    with pytest.raises(ParameterError):
        run_base_to_novel(cache, cfg, shots=0, select_by_base_val=False)


def test_base_validation_needs_two_shots(proto_setup):
    # one shot per class would all go to the validation split
    cache, cfg = proto_setup
    with pytest.raises(ParameterError, match="shots must be >= 2 with select_by_base_val"):
        run_base_to_novel(cache, cfg, shots=1, select_by_base_val=True)
    out = run_base_to_novel(cache, cfg, shots=2, select_by_base_val=True)
    assert out.val_history and np.isfinite(out.result.hm)
    assert run_base_to_novel(cache, cfg, shots=1, select_by_base_val=False).result.base_count == 22


def test_validation_selection_tracks_and_restores(proto_setup, monkeypatch):
    cache, cfg = proto_setup
    snapshots = []  # (values, bank entries) of each post-fill epoch
    train_epochs = evaluate.train_epochs

    def recording_train(state, feats, train_cfg, epoch_callback):
        def callback(state, epoch):
            epoch_callback(state, epoch)
            if state.bank.full:
                snapshots.append((state.optimizer.values.copy(), state.bank.entries.copy()))
        return train_epochs(state, feats, train_cfg, callback)

    monkeypatch.setattr(evaluate, "train_epochs", recording_train)
    out = run_base_to_novel(cache, cfg, shots=8, select_by_base_val=True)
    assert len(out.val_history) == len(snapshots) >= 1
    assert all(0.0 <= v <= 100.0 for v in out.val_history)
    assert np.isfinite(out.result.hm)
    best = int(np.argmax(out.val_history))  # the earliest of equal accuracies
    assert best < len(snapshots) - 1  # the last epoch is not the one restored
    values, entries = snapshots[best]
    assert out.state.optimizer.values.tobytes() == values.tobytes()
    assert out.state.bank.entries.tobytes() == entries.tobytes()
    assert_views(out.state)


def spy_on_encoding(monkeypatch, cache):
    """Record, per encode_batch call, whether it encodes the cache's own
    block."""
    calls = []
    encode = ToyVisualEncoder.encode_batch

    def spy(self, arrays):
        calls.append(arrays is cache.arrays())
        return encode(self, arrays)

    monkeypatch.setattr(ToyVisualEncoder, "encode_batch", spy)
    return calls


def test_validation_latents_are_encoded_once_per_run(proto_setup, monkeypatch):
    # The encoder is frozen: scored every epoch, the validation rows are rows
    # of the cache's block, encoded once, and so are the training rows.
    cache, cfg = proto_setup
    calls = spy_on_encoding(monkeypatch, cache)
    out = run_base_to_novel(cache, cfg, shots=8, select_by_base_val=True)
    assert len(out.val_history) == cfg.epochs
    assert calls == [True]


def test_scoring_encodes_the_cache_block_by_index(proto_setup, monkeypatch):
    # No gathered copy: the training, base, novel-shot and novel rows are
    # indexed out of one encoding of the cache's own block.
    cache, cfg = proto_setup
    calls = spy_on_encoding(monkeypatch, cache)
    out = run_base_to_novel(cache, cfg, shots=8, select_by_base_val=False)
    assert out.val_history == []
    assert calls == [True]


@pytest.mark.parametrize("row", [0, 13, 47], ids=["first", "novel", "last"])
def test_a_zero_latent_fails_naming_its_cache_row_before_training(proto_setup, monkeypatch,
                                                                   row):
    # Row 13 is of class 1, a novel class, so no training step reads it.
    cache, cfg = proto_setup
    records = cache.records
    sid = records[row].sample_id
    zero = LatentTensor(np.zeros(cache.grid, np.float32), sid)
    records[row] = CacheRecord(sid, records[row].class_label, zero)

    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(evaluate, "train_epochs", no_training)
    with pytest.raises(NumericalDegeneracyError, match=rf"zero-length .*\(row {row},"):
        run_base_to_novel(LatentCache(records), cfg, shots=8, select_by_base_val=True)


@pytest.mark.parametrize("select, latents", [(False, 16), (True, 12)])
def test_an_unfillable_bank_fails_before_encoding(proto_setup, monkeypatch, select, latents):
    # Two base classes of 8 shots train, 6 each under base-val selection.
    cache, cfg = proto_setup
    calls = spy_on_encoding(monkeypatch, cache)
    cfg = replace(cfg, epochs=2, bank_size=2 * latents + 1)
    with pytest.raises(BankFillError, match=rf"bank_size {2 * latents + 1} can never fill: "
                                            rf"epochs 2 over {latents} latents"):
        run_base_to_novel(cache, cfg, shots=8, select_by_base_val=select)
    assert calls == []
    out = run_base_to_novel(cache, replace(cfg, bank_size=2 * latents), 8, select)
    assert out.state.bank.full and calls == [True]


def test_protocol_peak_is_one_encoder_block():
    # The run encodes its 640 latents once, in blocks whose float64 copy is
    # the encoder's largest transient at these sizes (128 rows, 1 MiB, at
    # 4x16x16 and `embed_dim` 8). Beside it the run holds a trained state and
    # a few (n, d) embeddings; a float32 copy of the block (0.5 MiB), or a
    # second float64 one, would not fit.
    cache = generate_dataset(SyntheticSpec(num_classes=8, seed=3), n_per_class=80)
    cfg = TrainConfig(embed_dim=8, bank_size=16, epochs=3, seed=0)
    run_base_to_novel(cache, cfg, shots=16, select_by_base_val=True)  # fill the table caches
    out, peak = traced_peak(run_base_to_novel, cache, cfg, 16, True)
    assert out.result.base_count == out.result.novel_count == 256
    assert peak < 128 * int(np.prod(cache.grid)) * 8 + (512 << 10), peak


@pytest.fixture(scope="module")
def oracle_cache():
    # 6 base classes of 16 shots (12 under base-val selection) train: 96 or
    # 72 latents, one encoder block each in the subset protocol, and rows of
    # 72-row blocks of the whole cache's encoding here.
    return generate_dataset(SyntheticSpec(num_classes=12, seed=3), n_per_class=24)


@pytest.mark.parametrize("eta", [0.0, 1.0])
@pytest.mark.parametrize("select", [False, True], ids=["all-shots", "base-val"])
@pytest.mark.parametrize("embed_dim", [16, 32])
def test_protocol_is_bitwise_the_subset_protocol(oracle_cache, embed_dim, select, eta):
    # The run trains on rows of its one encoding and on the cache's own
    # latents; the oracle trains `fit` on a copied subset, encoded again.
    # Each block of both encodings is past BLAS's small-matrix switch at
    # these sizes, so the rows agree bitwise. At `embed_dim` 4 and 8 a
    # block's bits depend on the block layout (README): a single subset
    # block may fall under the switch while the cache's blocks do not, and
    # then the two protocols train on other bits. Their trained parameters
    # differ at `embed_dim` 8 on this cache, and at 4 and 8 on a 16x64
    # cache of seed 3, so they are not compared there.
    cfg = TrainConfig(embed_dim=embed_dim, bank_size=16, bank_refresh=True, eta=eta, epochs=5,
                      seed=3)
    out = run_base_to_novel(oracle_cache, cfg, 16, select)
    ref = subset_base_to_novel(oracle_cache, cfg, 16, select)
    assert out.result == ref.result
    assert out.val_history == ref.val_history and len(out.val_history) == 5 * select
    assert out.state.optimizer.values.tobytes() == ref.state.optimizer.values.tobytes()
    if eta > 0:
        assert out.state.bank.entries.tobytes() == ref.state.bank.entries.tobytes()
    else:
        assert out.state.bank is ref.state.bank is None
    for c in out.shot_indices:
        assert np.array_equal(out.shot_indices[c], ref.shot_indices[c])
        assert np.array_equal(out.eval_indices[c], ref.eval_indices[c])


@pytest.fixture(scope="module")
def b2n_peak():
    # A run at the benchmark's base-to-novel sizes (32 classes x 64 latents
    # of 4x16x16, `embed_dim` 32, 16 shots, base-val selection) at 2 epochs:
    # the bytes of its one (n, d) encoding, its output and its traced peak.
    cache = generate_dataset(SyntheticSpec(num_classes=32, seed=2), n_per_class=64)
    cfg = TrainConfig(embed_dim=32, bank_refresh=True, epochs=2, seed=2)
    run_base_to_novel(cache, cfg, 16, True)  # fill the table caches
    return (len(cache) * 32 * 8, *traced_peak(run_base_to_novel, cache, cfg, 16, True))


def test_protocol_peak_holds_no_training_copy(b2n_peak):
    # The run holds the cache's one (n, d) encoding (0.5 MiB) beside an
    # encoder block, a state or the scoring rows, 1.7 MiB in all. A float32
    # copy of its 192 training latents (0.75 MiB), with the second encoding
    # of them, took it to 2.7 MiB, past the encoding and 1.75 MiB.
    encoding, out, peak = b2n_peak
    assert len(out.val_history) == 2
    assert peak < encoding + int(1.75 * 2**20), peak


def test_protocol_scoring_holds_no_snapshot_or_second_logits(b2n_peak):
    # The run peaks in a training step, at the encoding and 1.23 MiB. Its
    # final scoring took it to 1.35 MiB past the encoding while it still held
    # the restored best-epoch snapshot of the parameters (82 KiB) and a
    # scaled copy of the novel logits (96 KiB) beside the unscaled ones.
    encoding, _, peak = b2n_peak
    assert peak < encoding + int(1.3 * 2**20), peak


def test_granule_source_accuracy_bounds_and_determinism(proto_setup):
    cache, cfg = proto_setup
    out = run_base_to_novel(cache, cfg, shots=8, select_by_base_val=False)
    arrays = cache.arrays()
    labels = cache.labels()
    # score on base-class samples in the trained label space
    base_eval = np.concatenate([out.eval_indices[c] for c in out.result.base_classes])
    remap = {c: i for i, c in enumerate(out.result.base_classes)}
    y = np.array([remap[labels[j]] for j in base_eval])
    a = granule_source_accuracy(out.state, cfg, arrays[base_eval], y, num_batches=4)
    b = granule_source_accuracy(out.state, cfg, arrays[base_eval], y, num_batches=4)
    assert a == b
    assert 0.0 <= a <= 100.0
    with pytest.raises(ParameterError):
        granule_source_accuracy(out.state, cfg, arrays[base_eval], y, num_batches=0)


@pytest.mark.parametrize("anchor", ANCHOR_POLICIES)
def test_granule_source_accuracy_is_bitwise_the_value_copy_pass(proto_setup, monkeypatch, anchor):
    # The probe runs on the live parameters and hands its frozen rows to the
    # composites as arrays. Every modulated row it scores is bitwise the
    # value-copy pass's, and it moves no parameter and no gradient.
    cache, cfg = proto_setup
    cfg = replace(cfg, anchor=anchor, eta=0.5)
    state = fit(cache, cfg)
    scored = []

    def recording_predict(visual, text, scale):
        scored.append(np.array(visual))
        return predict(visual, text, scale)

    monkeypatch.setattr(evaluate, "predict", recording_predict)
    before = optimizer_bytes(state)
    got = granule_source_accuracy(state, cfg, cache.arrays(), cache.labels(), num_batches=4)
    assert optimizer_bytes(state) == before
    live, scored[:] = scored[:], []
    assert got == value_copy_granule_source_accuracy(state, cfg, cache.arrays(), cache.labels(), 4)
    assert len(live) == len(scored) == 4
    assert all(a.tobytes() == b.tobytes() for a, b in zip(live, scored))


def test_granule_source_accuracy_rejects_empty_or_unpaired_samples(proto_setup):
    # An empty sample set would otherwise reach a reshape of zero features.
    cache, cfg = proto_setup
    state = run_base_to_novel(cache, cfg, shots=8, select_by_base_val=False).state
    arrays = cache.arrays()[:0]
    with pytest.raises(ParameterError, match="at least one sample"):
        granule_source_accuracy(state, cfg, arrays, np.zeros(0, dtype=np.intp))
    # Labels that do not pair up with the latents would index past them.
    with pytest.raises(ParameterError, match="10 latents"):
        granule_source_accuracy(state, cfg, cache.arrays()[:10], cache.labels())
    # Labels outside a 4-class fit's classes would wrap round (-1) or index
    # past its text rows (4).
    cfg = TrainConfig(embed_dim=4, bank_size=4, epochs=1, seed=0)
    state = fit(cache, cfg)
    for shift, got in [(-1, "-1 to 2"), (1, "1 to 4")]:
        with pytest.raises(ParameterError, match=rf"\[0, 4\), got {got}"):
            granule_source_accuracy(state, cfg, cache.arrays(), cache.labels() + shift)
