"""Momentum prototype bank: fill, EMA updates, retrieval, dump format."""

import re

import numpy as np
import pytest

import bandprompt.autodiff as ad
from bandprompt.bank import (
    SemanticBank,
    absorb,
    format_bank,
    read_bank,
    read_bank_block,
    read_lines,
    retrieve_rows,
    write_bank,
)
from bandprompt.errors import BankStateError, NumericalDegeneracyError, ParameterError
from bandprompt.refine import refined_text_graph
from bandprompt.trainer import init_group
from reference_ops import chain_retrieve_rows, mul, row_by_row_absorb, square, tsum


def read_dump(tmp_path, lines):
    """`read_bank` of a dump file that holds `lines`."""
    path = tmp_path / "dump.txt"
    path.write_text("".join(f"{line}\n" for line in lines))
    return read_bank(path)


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def test_fill_phase_is_sequential_and_ordered():
    bank = SemanticBank.create(size=3, dim=2, momentum=0.1, temperature=0.07)
    vecs = [unit([1.0, 0.0]), unit([0.0, 1.0]), unit([1.0, 1.0])]
    assert bank.mode == "filling"
    for i, v in enumerate(vecs):
        absorb(bank, v[None])
        assert bank.fill_count == i + 1
    assert bank.mode == "ema"
    assert bank.full
    assert np.array_equal(bank.entries, np.stack(vecs))


@pytest.mark.parametrize("splits", [(11,), (2, 9), (3, 1, 7), (1,) * 11])
def test_stacked_absorb_equals_row_by_row(splits):
    # 11 rows into a bank of 5 holding 2: the first stack straddles the
    # fill -> EMA boundary unless it is a single row; repeats hit ties.
    rng = np.random.default_rng(7)
    rows = np.stack([unit(rng.normal(size=4)) for _ in range(9)])
    rows = np.concatenate([rows, rows[[3, 3]]])
    bank = SemanticBank.create(size=5, dim=4, momentum=0.3, temperature=0.07)
    absorb(bank, rows[:2])
    ref = SemanticBank(entries=bank.entries.copy(), momentum=0.3, fill_count=2, temperature=0.07)
    start = 0
    for n in splits:
        absorb(bank, rows[start : start + n])
        start += n
    row_by_row_absorb(ref, rows)
    assert bank.fill_count == ref.fill_count == 5
    assert np.array_equal(bank.entries, ref.entries)


@pytest.mark.parametrize("momentum", [0.1, 0.5, 1.0])
def test_refresh_sized_absorb_equals_row_by_row_bitwise(momentum):
    # A 64-slot bank holding 40 takes 96 rows, as an epoch's refresh does:
    # the stack fills 24 slots and EMA-updates with the other 72, a third of
    # them repeats, which tie with the entries they made.
    rng = np.random.default_rng(11)
    rows = rng.normal(size=(72, 32))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    rows = np.concatenate([rows, rows[rng.integers(0, 72, size=24)]])
    start = rng.normal(size=(64, 32))
    start[:40] /= np.linalg.norm(start[:40], axis=1, keepdims=True)
    start[40:] = 0.0
    bank = SemanticBank(entries=start.copy(), momentum=momentum, temperature=0.07, fill_count=40)
    ref = SemanticBank(entries=start.copy(), momentum=momentum, temperature=0.07, fill_count=40)
    absorb(bank, rows)
    row_by_row_absorb(ref, rows)
    assert bank.fill_count == ref.fill_count == 64
    assert np.array_equal(bank.entries, ref.entries)


def test_a_zero_length_ema_update_names_its_slot():
    # Slot 0 sits a hair further from the last row than slot 1, which that
    # row's opposite pull cancels exactly; the rows before it stay absorbed.
    rows = np.array([[-(1.0 + 1e-6), 0.0], [-1.0, 0.0], [1.0, 0.0]])
    banks = [SemanticBank.create(size=2, dim=2, momentum=0.5, temperature=0.07)
             for _ in range(2)]
    for run, bank in zip((absorb, row_by_row_absorb), banks):
        with pytest.raises(NumericalDegeneracyError, match="zero-length entry at slot 1"):
            run(bank, rows)
    assert np.array_equal(banks[0].entries, banks[1].entries)
    assert banks[0].fill_count == 2


def test_a_bad_row_leaves_the_bank_untouched():
    bank = SemanticBank.create(size=2, dim=2, momentum=0.1, temperature=0.07)
    stack = np.array([unit([1.0, 0.0]), unit([0.0, 1.0]), [2.0, 0.0]])
    with pytest.raises(ParameterError, match="row 2"):
        absorb(bank, stack)
    assert bank.fill_count == 0 and not bank.entries.any()


def test_ema_update_pinned_values():
    bank = SemanticBank(entries=np.array([[1.0, 0.0], [0.0, 1.0]]),
                        momentum=0.1, fill_count=2, temperature=0.07)
    absorb(bank, np.array([[2.0, 1.0]]) / np.sqrt(5.0))
    # nearest is slot 0; blend 0.9*e + 0.1*v then renormalize
    blended = 0.9 * np.array([1.0, 0.0]) + 0.1 * np.array([2.0, 1.0]) / np.sqrt(5.0)
    assert np.allclose(bank.entries[0], blended / np.linalg.norm(blended), atol=1e-12)
    assert np.array_equal(bank.entries[1], [0.0, 1.0])


def test_ema_ties_update_the_lowest_slot():
    bank = SemanticBank(entries=np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                        momentum=0.5, fill_count=3, temperature=0.07)
    absorb(bank, unit([1.0, 1e-8])[None])
    assert not np.array_equal(bank.entries[0], [1.0, 0.0])
    assert np.array_equal(bank.entries[1], [1.0, 0.0])


def test_entries_stay_unit_under_absorption():
    rng = np.random.default_rng(0)
    bank = SemanticBank.create(size=4, dim=8, momentum=0.3, temperature=0.07)
    for _ in range(40):
        absorb(bank, unit(rng.normal(size=8))[None])
    norms = np.linalg.norm(bank.entries, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12


def test_momentum_one_replaces_the_nearest_entry():
    bank = SemanticBank(entries=np.eye(2), momentum=1.0, fill_count=2, temperature=0.07)
    v = unit([3.0, 1.0])
    absorb(bank, v[None])
    assert np.allclose(bank.entries[0], v, atol=1e-12)


def test_opposed_ema_collapse_is_detected():
    bank = SemanticBank(entries=np.array([[1.0, 0.0]]), momentum=0.5, temperature=0.07,
                        fill_count=1)
    with pytest.raises(NumericalDegeneracyError):
        absorb(bank, np.array([[-1.0, 0.0]]))


def test_singleton_bank_tracks_the_stream():
    bank = SemanticBank.create(size=1, dim=2, momentum=0.2, temperature=0.07)
    absorb(bank, unit([1.0, 0.0])[None])
    target = unit([0.0, 1.0])
    gaps = []
    for _ in range(30):
        absorb(bank, target[None])
        gaps.append(float(np.linalg.norm(bank.entries[0] - target)))
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-2


def test_soft_retrieve_pinned_two_entry_weights():
    weights, context = retrieve_rows(np.eye(2), np.array([[1.0, 0.0]]), 1.0)
    weights, context = weights[0], context.value[0]
    expected = np.exp([1.0, 0.0])
    expected /= expected.sum()
    assert np.allclose(weights, expected, atol=1e-12)
    assert np.allclose(weights, [0.73106, 0.26894], atol=1e-5)
    assert np.allclose(context, weights @ np.eye(2), atol=1e-12)


def test_cold_retrieval_sharpens_to_the_argmax():
    rng = np.random.default_rng(2)
    entries = np.stack([unit(rng.normal(size=4)) for _ in range(6)])
    q = unit(rng.normal(size=4))
    weights, context = retrieve_rows(entries, q[None, :], 1e-4)
    hot = int(np.argmax(entries @ q))
    onehot = np.zeros(6)
    onehot[hot] = 1.0
    assert np.max(np.abs(weights[0] - onehot)) <= 1e-3
    assert np.max(np.abs(context.value[0] - entries[hot])) <= 1e-3


def test_context_stays_inside_the_unit_ball():
    rng = np.random.default_rng(3)
    entries = np.stack([unit(rng.normal(size=5)) for _ in range(8)])
    for _ in range(20):
        weights, context = retrieve_rows(entries, unit(rng.normal(size=5))[None, :], 0.07)
        assert np.linalg.norm(context.value[0]) <= 1.0 + 1e-12
        assert abs(weights[0].sum() - 1.0) <= 1e-12


def test_retrieval_differentiates_queries_not_entries():
    rng = np.random.default_rng(4)
    entries = np.stack([unit(rng.normal(size=3)) for _ in range(4)])
    q = ad.parameter(np.stack([unit(rng.normal(size=3)) for _ in range(2)]))
    weights, context = retrieve_rows(entries, q, 0.5)
    ad.backward(tsum(square(context)))
    assert q.grad is not None and q.grad.shape == (2, 3)
    assert np.any(q.grad != 0.0)
    # numeric check on one query coordinate
    eps = 1e-6
    def total(qv):
        w, c = retrieve_rows(entries, qv, 0.5)
        return float(np.sum(c.value ** 2))
    qp = q.value.copy(); qp[0, 1] += eps
    qm = q.value.copy(); qm[0, 1] -= eps
    fd = (total(qp) - total(qm)) / (2 * eps)
    assert fd == pytest.approx(q.grad[0, 1], rel=1e-5, abs=1e-8)


def test_retrieval_is_one_node_equal_to_its_chain():
    """One tape node over the queries and the frozen entries, whose weights,
    contexts and query gradient equal the four-node chain's bitwise."""
    rng = np.random.default_rng(5)
    entries = np.stack([unit(rng.normal(size=6)) for _ in range(9)])
    queries = rng.normal(size=(4, 6))
    probe = rng.normal(size=(4, 6))

    def run(op):
        q = ad.parameter(queries)
        weights, context = op(entries, q, 0.07)
        ad.backward(tsum(mul(context, ad.lift(probe))))
        return weights, context, q

    weights, context, q = run(retrieve_rows)
    want_weights, want_context, want_q = run(chain_retrieve_rows)
    assert isinstance(weights, np.ndarray)
    assert np.array_equal(weights, want_weights)
    assert np.array_equal(context.value, want_context.value)
    assert np.array_equal(q.grad, want_q.grad)
    frozen = [p for p in context._parents if p is not q]
    assert len(context._parents) == 2 and len(frozen) == 1
    assert not frozen[0].requires_grad and np.shares_memory(frozen[0].value, entries)
    with pytest.raises(ParameterError):
        retrieve_rows(entries, queries[0], 0.07)


def test_retrieval_rejects_queries_of_another_width():
    with pytest.raises(ParameterError, match=r"\(3, 3\).*\(2, 2\)"):
        retrieve_rows(np.eye(3), np.ones((2, 2)), 0.1)


def test_retrieval_requires_a_full_bank():
    # retrieve_rows is a bare composite; its callers check the fill
    bank = SemanticBank.create(size=4, dim=2, momentum=0.1, temperature=0.07)
    absorb(bank, unit([1.0, 0.0])[None])
    agg = tuple(init_group("agg", 0, 0, 2, np.random.default_rng(0)).values())
    with pytest.raises(BankStateError, match=r"1/4 filled"):
        refined_text_graph(unit([1.0, 0.0])[None, :], bank, agg, 1.0)


def test_absorb_validates_inputs():
    bank = SemanticBank.create(size=2, dim=3, momentum=0.1, temperature=0.07)
    with pytest.raises(ParameterError):
        absorb(bank, np.array([[1.0, 1.0, 1.0]]))  # not unit
    with pytest.raises(ParameterError):
        absorb(bank, unit([1.0, 0.0])[None])  # wrong dim
    with pytest.raises(ParameterError):
        absorb(bank, unit([1.0, 0.0, 0.0]))  # not a 2-D stack
    with pytest.raises(NumericalDegeneracyError):
        absorb(bank, np.array([[np.nan, 0.0, 0.0]]))


def test_constructor_validation():
    with pytest.raises(ParameterError):
        SemanticBank.create(size=0, dim=4, momentum=0.1, temperature=0.07)
    with pytest.raises(ParameterError):
        SemanticBank.create(size=4, dim=0, momentum=0.1, temperature=0.07)
    with pytest.raises(ParameterError):
        SemanticBank(entries=np.eye(2), momentum=0.0, temperature=0.07, fill_count=2)
    with pytest.raises(ParameterError):
        SemanticBank(entries=np.eye(2), momentum=1.5, temperature=0.07, fill_count=2)
    with pytest.raises(ParameterError):
        SemanticBank(entries=np.eye(2), temperature=0.0, momentum=0.1, fill_count=2)
    with pytest.raises(ParameterError):
        SemanticBank(entries=np.eye(2), fill_count=3, momentum=0.1, temperature=0.07)


def test_dump_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    bank = SemanticBank.create(size=3, dim=4, momentum=0.1, temperature=0.07)
    for _ in range(3):
        absorb(bank, unit(rng.normal(size=4))[None])
    text = format_bank(bank)
    head = text.splitlines()[0].split()
    assert head[:2] == ["3", "4"]
    path = tmp_path / "bank.txt"
    write_bank(bank, path)
    assert path.read_text() == text
    parsed = read_bank(path)
    assert np.array_equal(parsed.entries, bank.entries)
    assert parsed.momentum == bank.momentum
    assert parsed.temperature == bank.temperature
    assert parsed.full


def test_parse_rejects_malformed_dumps(tmp_path):
    with pytest.raises(ParameterError):
        read_dump(tmp_path, [])
    with pytest.raises(ParameterError):
        read_dump(tmp_path, ["2 2"])  # short header
    with pytest.raises(ParameterError):
        read_dump(tmp_path, ["2 2 0.1 0.07", "1 0"])  # missing row
    with pytest.raises(ParameterError):
        read_dump(tmp_path, ["2 2 0.1 0.07", "1 0 0", "0 1 0"])  # wrong width
    path = tmp_path / "partial.txt"
    path.write_text("2 2 0.1 0.07\n1 0\n0 0\n")
    partial, _ = read_bank_block(read_lines(path, "bank dump"), 0, fill_count=1)
    assert not partial.full and partial.fill_count == 1


def test_garbled_bank_dumps_raise_parameter_error(tmp_path):
    for lines in (["2 2 0.1 x", "1 0", "0 1"],      # garbled header number
                  ["2 2 0.1 0.07", "1 zz", "0 1"],  # garbled entry
                  ["2 2 0.1 0.07", "1 0 3", "0 1"]):  # ragged rows
        with pytest.raises(ParameterError):
            read_dump(tmp_path, lines)
    path = tmp_path / "bank.txt"
    path.write_bytes(b"1 2 0.1 0.07\n\xff 0\n")
    with pytest.raises(ParameterError, match="UTF-8"):
        read_bank(path)


@pytest.mark.parametrize("lines, line", [
    ([], 1),
    (["2 2"], 1),                                       # short header
    (["0 2 0.1 0.07"], 1),                              # no rows
    (["2 2 0.1 0.07", "1 0"], 1),                       # missing row, named at its head
    (["2 2 0.1 0.07", "1 0 0", "0 1 0"], 2),            # wrong width
    (["2 2 0.1 x", "1 0", "0 1"], 1),                   # garbled header number
    (["2 2 0.1 0.07", "1 zz", "0 1"], 2),               # garbled entry
    (["2 2 0.1 0.07", "1 0", "0 1 3"], 3),              # ragged rows
    (["2 2 0.1 0.07", "1 0", "", "0 1.0.0"], 4),        # a blank line keeps its number
    (["2 2 0.1 0.07", "1 0", "0 1", "hello world"], 4),  # a line after the rows
    (["3 3 0.1 0.07", "1 0 0", "0 1 nan", "0 0 1"], 1),  # non-finite, named at its head
])
def test_a_malformed_dump_names_its_line(tmp_path, lines, line):
    path = tmp_path / "bank.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParameterError, match=rf"^{re.escape(str(path))}:{line}: malformed bank dump: "):
        read_bank(path)


def test_read_bank_rejects_lines_after_the_declared_rows(tmp_path):
    path = tmp_path / "bank.txt"
    path.write_text("2 2 0.1 0.07\n1 0\n0 1\n0 1\nhello world\n")
    with pytest.raises(ParameterError, match=rf"^{re.escape(str(path))}:4: .*after the 2 rows: '0 1'"):
        read_bank(path)


def test_every_strict_prefix_of_a_dump_fails_naming_its_line(tmp_path):
    # Both writers end a file with a newline, so a cut inside a line, which
    # may leave a shorter number that still parses, fails on the missing
    # newline, and a cut at a line break leaves a short block.
    bank = SemanticBank(entries=np.array([[0.6, -0.8], [1.0, 0.0], [0.0, -1.0]]),
                        momentum=0.1, temperature=0.07, fill_count=3)
    data = format_bank(bank).encode()
    path = tmp_path / "bank.txt"
    for n in range(len(data)):
        path.write_bytes(data[:n])
        with pytest.raises(ParameterError, match=rf"^{re.escape(str(path))}:\d+: "):
            read_bank(path)
    path.write_bytes(data)
    assert np.array_equal(read_bank(path).entries, bank.entries)
    path.write_bytes(b"1 2 0.1 0.07\n1 0\n\xff 0\n")
    with pytest.raises(ParameterError, match=rf"^{re.escape(str(path))}:3: bank dump is not UTF-8"):
        read_bank(path)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_a_non_finite_bank_is_rejected_when_it_is_built(tmp_path, bad):
    # A bank row of nan or inf would load and score every sample as one
    # class; it fails on construction, so every reader fails with it.
    entries = np.eye(3)
    entries[1, 2] = float(bad)
    with pytest.raises(ParameterError, match="bank entry 1 has non-finite values"):
        SemanticBank(entries=entries, momentum=0.1, temperature=0.07, fill_count=3)
    with pytest.raises(ParameterError, match="temperature"):
        SemanticBank(entries=np.eye(2), momentum=0.1, temperature=float(bad), fill_count=2)
    lines = ["3 3 0.1 0.07", "1 0 0", f"0 1 {bad}", "0 0 1"]
    with pytest.raises(ParameterError, match="temperature"):
        read_dump(tmp_path, [f"2 2 0.1 {bad}", "1 0", "0 1"])
    path = tmp_path / "bank.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParameterError, match="non-finite"):
        read_bank(path)
