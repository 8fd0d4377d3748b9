import dataclasses
import gc
import hashlib
import json
import math
import os
import signal
import struct
import sys
import time
import tracemalloc
import types
import warnings
import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dialoglow import autodiff as ad
from dialoglow import cli
from dialoglow import embeddings as emb
from dialoglow import metrics as mx
from dialoglow import model as m
from dialoglow import preprocess as pp
from dialoglow import synthetic
from dialoglow import train as tr
from dialoglow.corpus import LABEL_INDEX, Dataset, Dialogue, EmotionLabel, split_train_validation, split_windows
from helpers import project, serialize_dataset
from per_window_step import per_window_step
import whole_file_checkpoint


def tiny_model_cfg(**over):
    base = dict(
        embed_dim=8,
        hidden_size=4,
        window_size=4,
        fc_dims=(8,),
        variant="sa-bilstm",
    )
    base.update(over)
    return m.ModelConfig(**base)


def tiny_world(seed=0, n_dialogues=6, **cfg_over):
    ds = synthetic.build(n_dialogues=n_dialogues, seed=seed)
    vocab = tr.vocab_from_dataset(ds)
    cfg = tiny_model_cfg(**cfg_over)
    table = emb.random_table(vocab, cfg.embed_dim, seed=seed + 50)
    return ds, vocab, cfg, table


def held_out_world(val_fraction, split_seed, n_dialogues=6, **cfg_over):
    """tiny_world's dialogues split as `dialoglow train` splits them, with the
    vocab and table built on the training part: (train_ds, val_ds, vocab, cfg, table)."""
    ds = synthetic.build(n_dialogues=n_dialogues, seed=0)
    train_ds, val_ds = split_train_validation(ds, val_fraction, split_seed)
    vocab = tr.vocab_from_dataset(train_ds)
    cfg = tiny_model_cfg(**cfg_over)
    return train_ds, val_ds, vocab, cfg, emb.random_table(vocab, cfg.embed_dim, seed=50)


# --- dataset helpers --------------------------------------------------------


def test_dataset_helpers_prepare_each_distinct_text_once(monkeypatch):
    base = synthetic.build(n_dialogues=6, seed=0)
    # Repeat texts within and across dialogues.
    dialogues = [
        Dialogue(d.id, [dataclasses.replace(u, raw_text=base.dialogues[0].utterances[i % 2].raw_text)
                        if i % 3 == 0 else u for i, u in enumerate(d.utterances)])
        for d in base.dialogues
    ]
    ds = Dataset(base.split, dialogues)
    texts = [u.raw_text for d in ds.dialogues for u in d.utterances]
    assert len(set(texts)) < len(texts)
    prepare, calls = pp.prepare, []
    monkeypatch.setattr(pp, "prepare", lambda text: calls.append(text) or prepare(text))

    vocab = tr.vocab_from_dataset(ds, min_count=2)
    assert calls == list(dict.fromkeys(texts))
    assert vocab.tokens == pp.build_vocab([prepare(t) for t in texts], min_count=2).tokens
    calls.clear()
    encoded = tr.encode_dataset(ds, vocab, window_size=3)
    assert calls == list(dict.fromkeys(texts))
    assert encoded == [
        [([vocab.encode(prepare(u.raw_text)) for u in w], [LABEL_INDEX[u.gold] for u in w])
         for w in split_windows(d.utterances, 3)]
        for d in ds.dialogues
    ]


@pytest.mark.parametrize("val_fraction", [0.0, 0.2])
def test_train_prepares_each_distinct_text_of_each_set_once(monkeypatch, val_fraction):
    ds, held = split_train_validation(synthetic.build(n_dialogues=30, seed=3), val_fraction, seed=0)
    val_ds = held if held.dialogues else ds  # nothing held out: score on ds itself
    assert (val_ds is ds) == (val_fraction == 0.0)
    vocab = tr.vocab_from_dataset(ds)
    cfg = tiny_model_cfg()
    table = emb.random_table(vocab, cfg.embed_dim, seed=0)
    prepare, calls = pp.prepare, []
    monkeypatch.setattr(pp, "prepare", lambda text: calls.append(text) or prepare(text))
    tr.train(ds, vocab, table, cfg, tr.TrainConfig(epochs=1), val_ds)
    # Scoring on ds reuses its windows; a separate set's texts are prepared once more.
    texts = lambda d: list(dict.fromkeys(u.raw_text for dlg in d.dialogues for u in dlg.utterances))
    assert calls == texts(ds) + (texts(val_ds) if val_ds is not ds else [])


# --- config -----------------------------------------------------------------


def test_train_config_defaults_and_variant_epochs():
    tc = tr.TrainConfig()
    assert tc.lr0 == 2e-4 and tc.decay == 0.99 and tc.batch_size == 16
    assert tc.class_weights == (1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    assert tc.epochs_for("bilstm") == 10
    assert tc.epochs_for("sa-bilstm") == 20
    assert tr.TrainConfig(epochs=3).epochs_for("sa-bilstm") == 3


@pytest.mark.parametrize(
    "bad",
    [
        dict(lr0=0.0),
        dict(decay=0.0),
        dict(decay=1.5),
        dict(epochs=0),
        dict(batch_size=0),
        dict(dropout=1.0),
        dict(val_fraction=1.0),
        dict(grad_clip=0.0),
        dict(class_weights=(1.0,) * 7),
        dict(class_weights=(1, 1, 1, -1, 0, 0, 0, 0)),
        dict(class_weights=(1, 1, 1, 1, 0.5, 0, 0, 0)),  # non-considered must be 0
        dict(lr0=math.nan),
        dict(lr0=math.inf),
        dict(grad_clip=math.nan),
        dict(grad_clip=math.inf),
        dict(class_weights=(math.nan, 1, 1, 1, 0, 0, 0, 0)),
        dict(class_weights=(1, math.inf, 1, 1, 0, 0, 0, 0)),
        dict(seed=-1),
        dict(seed=2**64),
    ],
)
def test_train_config_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        tr.TrainConfig(**bad)


def test_train_config_takes_every_philox_key():
    for seed in (0, 2**64 - 1):
        assert tr.TrainConfig(seed=seed).seed == seed
        ad.seeded_rng(seed)


def test_learning_rate_schedule_is_the_literal_expression():
    for epoch in (0, 1, 5):
        assert tr.learning_rate(2e-4, 0.99, epoch) == 2e-4 * 0.99**epoch
    assert tr.learning_rate(2e-4, 0.99, 1) == pytest.approx(0.000198, abs=1e-12)


# --- loss -------------------------------------------------------------------


def test_uniform_logits_cost_log_eight_per_utterance():
    logits = ad.Tensor(np.zeros((1, 8)))
    loss = tr.weighted_cross_entropy(logits, [2], tr.TrainConfig().class_weights)
    assert float(loss.data) == pytest.approx(math.log(8.0), rel=1e-12)


def test_all_non_considered_batch_costs_exactly_zero():
    logits = ad.Tensor(np.random.default_rng(0).normal(size=(3, 8)), requires_grad=True)
    golds = [4, 5, 7]  # fear, surprise, non-neutral
    with ad.Tape() as tape:
        loss = tr.weighted_cross_entropy(logits, golds, tr.TrainConfig().class_weights)
    assert float(loss.data) == 0.0
    assert len(tape._records) == 0  # constant, nothing to differentiate


def test_two_utterances_average_their_losses():
    rng = np.random.default_rng(1)
    rows = rng.normal(size=(2, 8))
    w = tr.TrainConfig().class_weights
    a = float(tr.weighted_cross_entropy(ad.Tensor(rows[:1]), [0], w).data)
    b = float(tr.weighted_cross_entropy(ad.Tensor(rows[1:]), [3], w).data)
    both = float(tr.weighted_cross_entropy(ad.Tensor(rows), [0, 3], w).data)
    assert both == pytest.approx((a + b) / 2.0, rel=1e-12)


def test_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    logits = ad.Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    golds = [0, 1, 5, 3]  # one zero-weight row in the middle

    def f():
        return tr.weighted_cross_entropy(logits, golds, tr.TrainConfig().class_weights)

    assert ad.grad_check(f, [logits]) < 1e-5


def test_zero_weight_utterance_adds_no_gradient_anywhere():
    # Independent-rows variant: dropping a zero-weight utterance must leave
    # every parameter gradient untouched (the loss normalizer is the weight
    # sum, which it does not enter either).
    ds, vocab, cfg, table = tiny_world(variant="bilstm")
    params = m.ModelParams.init(cfg, table, seed=1)
    ids = [vocab.encode(pp.prepare(t)) for t in ("okay well", "glad today", "whoa um")]
    cw = np.asarray(tr.TrainConfig().class_weights)

    def grads_for(id_lists, golds):
        with ad.Tape() as tape:
            logits = m.forward_window(id_lists, params, cfg)
            loss = tr.weighted_cross_entropy(logits, golds, cw)
            return ad.backward(tape, loss)

    with_extra = grads_for(ids, [0, 1, 5])  # surprise carries weight 0
    without = grads_for(ids[:2], [0, 1])
    named = params.trainable_tensors()
    assert set(with_extra) >= {named[k] for k in named}
    for name, t in named.items():
        diff = np.max(np.abs(np.asarray(with_extra[t]) - np.asarray(without[t])))
        assert diff < 1e-12, f"{name} gradient moved by {diff}"


# --- optimizer --------------------------------------------------------------


def test_adam_first_step_epsilon_outside_sqrt():
    p = ad.Tensor(0.0, requires_grad=True)
    named = {"theta": p}
    state = tr.AdamState(named)
    lr = 2e-4
    tr.adam_step(named, {"theta": np.asarray(1.0)}, state, lr)
    expected = -lr / (1.0 + tr.ADAM_EPS)
    assert abs(p.data - expected) < 1e-12
    assert state.t == 1
    # epsilon inside the root would give -lr/sqrt(1 + eps) instead
    inside = -lr / math.sqrt(1.0 + tr.ADAM_EPS)
    assert abs(p.data - inside) > 1e-13


def test_adam_zero_gradient_leaves_fresh_params_unchanged():
    p = ad.Tensor([1.0, -2.0], requires_grad=True)
    named = {"w": p}
    state = tr.AdamState(named)
    tr.adam_step(named, {"w": np.zeros(2)}, state, lr=0.1)
    assert np.array_equal(p.data, [1.0, -2.0])
    assert state.t == 1


def no_gradient(p):
    """An empty RowGrad: no gradient for p this step."""
    return ad.RowGrad(p.shape, np.zeros(0, dtype=np.intp), np.zeros((0, math.prod(p.shape[1:]))))


def test_adam_missing_gradient_still_decays_momentum():
    p = ad.Tensor(0.0, requires_grad=True)
    named = {"w": p}
    state = tr.AdamState(named)
    tr.adam_step(named, {"w": np.asarray(1.0)}, state, lr=0.1)
    moved = float(p.data)
    tr.adam_step(named, {"w": no_gradient(p)}, state, lr=0.1)  # no grad this step
    assert state.t == 2
    assert float(p.data) != moved  # momentum keeps pushing


def test_adam_rejects_non_finite_gradients():
    p = ad.Tensor(0.0, requires_grad=True)
    state = tr.AdamState({"w": p})
    with pytest.raises(ValueError, match="w"):
        tr.adam_step({"w": p}, {"w": np.asarray(np.nan)}, state, lr=0.1)


def test_clip_gradients_scales_only_above_limit():
    g = {"a": np.array([3.0, 0.0]), "b": np.array([0.0, 4.0])}
    norm = tr.clip_gradients(g, limit=2.5)
    assert norm == pytest.approx(5.0)
    clipped = math.sqrt(sum(float(np.sum(v * v)) for v in g.values()))
    assert clipped == pytest.approx(2.5, rel=1e-12)
    g2 = {"a": np.array([0.3])}
    tr.clip_gradients(g2, limit=10.0)
    assert np.array_equal(g2["a"], [0.3])


def textbook_adam(p, m, v, g, t, lr):
    """Kingma & Ba's update written out for one parameter: new (p, m, v)."""
    m = tr.ADAM_BETA1 * m + (1.0 - tr.ADAM_BETA1) * g
    v = tr.ADAM_BETA2 * v + (1.0 - tr.ADAM_BETA2) * (g * g)
    bc1, bc2 = 1.0 - tr.ADAM_BETA1**t, 1.0 - tr.ADAM_BETA2**t
    return p - lr * (m / bc1) / (np.sqrt(v / bc2) + tr.ADAM_EPS), m, v


def assert_moments_are_the_dense_ones_on_moved_rows(state, k, m, v, where):
    """state's moments of k, one row per entry of state.moved[k], equal the
    rows of the dense m and v (shaped like the parameter) that moved, and the
    dense ones are exactly 0.0 on every row that never moved."""
    moved = state.moved[k]
    for got, dense in ((state.m[k], m), (state.v[k], v)):
        dense = np.reshape(dense, (len(dense) if np.ndim(dense) else 1, -1))
        assert np.array_equal(got, dense[moved]), (k, where)
        assert (np.delete(dense, moved, axis=0) == 0.0).all(), (k, where)


def test_adam_steps_equal_the_textbook_expressions_bit_for_bit():
    rng = np.random.default_rng(6)
    shapes = {"s": (), "b": (5,), "w": (70, 300)}  # w spans two update slices
    named = {k: ad.Tensor(rng.normal(size=sh), requires_grad=True) for k, sh in shapes.items()}
    want = {k: (t.data.copy(), np.zeros(t.shape), np.zeros(t.shape)) for k, t in named.items()}
    state = tr.AdamState(named)
    for t in range(1, 5):
        lr = tr.learning_rate(0.01, 0.99, t)
        grads = {k: rng.normal(size=sh) for k, sh in shapes.items()}
        dense = dict(grads)
        if t == 3:  # no gradient for b this step: its moments still decay
            grads["b"], dense["b"] = no_gradient(named["b"]), np.zeros(shapes["b"])
        tr.adam_step(named, grads, state, lr)
        for k in shapes:
            want[k] = textbook_adam(*want[k], dense[k], t, lr)
            assert np.array_equal(named[k].data, want[k][0]), (k, t)
            assert_moments_are_the_dense_ones_on_moved_rows(state, k, *want[k][1:], t)
    assert state.t == 4


def same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


# Signed zeros, subnormals and ordinary values.
ADAM_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-322, -1e-321, -2e-308]),
    st.floats(-1e3, 1e3),
    st.floats(-1e-300, 1e-300),
)
TINY_ENTRIES = st.sampled_from([0.0, -0.0, 5e-324, 2e-322, -1e-321])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_adam_step_keeps_the_textbook_bits_through_zeros_and_subnormals(data):
    # Each step gives the table a row gradient (of any entries, or of tiny ones), a
    # dense one, the exact negation of the last gradient, or none for 1-40 steps:
    # long enough for a tiny moment to decay to a few units of the smallest
    # subnormal, where b1 * m rounds back to m and it stops short of 0.0.
    n, width = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 3))

    def entries(*shape, of=ADAM_ENTRIES):
        size = math.prod(shape)
        return np.reshape(data.draw(st.lists(of, min_size=size, max_size=size)), shape)

    named = {"e": ad.Tensor(entries(n, width), requires_grad=True)}  # may hold -0.0
    state = tr.AdamState(named)
    p, m, v = named["e"].data.copy(), np.zeros((n, width)), np.zeros((n, width))
    g, t = None, 0
    kinds = st.sampled_from(["rows", "tiny", "dense", "negate", "idle"])
    for kind in data.draw(st.lists(kinds, min_size=1, max_size=8)):
        if kind in ("rows", "tiny"):
            ids = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
            rows = entries(len(ids), width, of=TINY_ENTRIES if kind == "tiny" else ADAM_ENTRIES)
            g = ad.RowGrad((n, width), np.array(ids), rows)
        elif kind == "dense":
            g = entries(n, width)
        elif kind == "negate" and g is not None:
            g = g * -1.0
        step_g = None if kind == "idle" else g
        for _ in range(data.draw(st.integers(1, 40)) if kind == "idle" else 1):
            t += 1
            lr = tr.learning_rate(0.01, 0.99, t)
            step_g = no_gradient(named["e"]) if step_g is None else step_g
            tr.adam_step(named, {"e": step_g}, state, lr)
            dense = np.asarray(step_g, dtype=np.float64)
            p, m, v = textbook_adam(p, m, v, dense, t, lr)
            assert same_bits(named["e"].data, p), (kind, t)
            assert_moments_are_the_dense_ones_on_moved_rows(state, "e", m, v, (kind, t))
            moved = state.moved["e"]
            assert same_bits(state.m["e"], m[moved]) and same_bits(state.v["e"], v[moved]), (kind, t)


def test_row_gradient_adam_equals_dense_adam():
    rng = np.random.default_rng(8)
    # Each case: the table's shape, the ids each step looks up (None: no
    # embedding gradient that step) and the rows that have moved at the end.
    # In the first, the touched rows change and ids repeat. The
    # second is wider than one update slice (tr.ADAM_SLICE // 300 = 54 rows):
    # rows join below, between and above the rows already moved, one step adds
    # no new row, and the last moves every row but the pad row. In the third,
    # rows 1-4 move in the order 1, 3, 2, 4: one slice that spans a run of
    # consecutive ids without holding them in order.
    cases = [
        ((7, 3), [[[1, 2, 2], [5, 1]], [[3, 5]], None, [[2, 6, 6, 1]]],
         [1, 2, 3, 5, 6]),
        ((5, 2), [[[1, 3]], [[2, 4]], None, [[3, 1]]], [1, 2, 3, 4]),
        ((130, 300), [[[60, 62, 64], [70, 90]], [[5, 10, 62]], [[63, 65, 80]], None,
                      [[120, 129, 129]], [[5, 60, 129]], [list(range(1, 130))]],
         list(range(1, 130))),
    ]
    for shape, steps, moved in cases:
        weights = rng.normal(size=shape)
        weights[pp.PAD_ID] = 0.0
        sides = []
        for _ in range(2):
            named = {"embedding": ad.Tensor(weights.copy(), requires_grad=True),
                     "w": ad.Tensor(np.ones(4), requires_grad=True)}
            sides.append((named, tr.AdamState(named)))
        for t, ids in enumerate(steps):
            grads = {"w": rng.normal(size=4)}
            grads["embedding"] = no_gradient(sides[0][0]["embedding"])
            if ids is not None:
                ids = np.concatenate(ids)
                probe = ad.Tensor(np.zeros(shape), requires_grad=True)
                r = rng.normal(size=(len(ids), shape[1]))
                with ad.Tape() as tape:
                    picked = ad.gather_rows(probe, ids)
                    loss = project(picked, r)
                grads["embedding"] = ad.backward(tape, loss)[probe]
                assert isinstance(grads["embedding"], ad.RowGrad)
            (rows, rows_state), (dense, dense_state) = sides
            tr.adam_step(rows, grads, rows_state, lr=0.01)
            dense_grads = {k: np.asarray(g) for k, g in grads.items()}
            tr.adam_step(dense, dense_grads, dense_state, lr=0.01)
            for k in rows:
                assert np.array_equal(rows[k].data, dense[k].data), (k, shape, t)
                assert_moments_are_the_dense_ones_on_moved_rows(
                    rows_state, k, dense_state.m[k], dense_state.v[k], (shape, t))
        table = sides[0][0]["embedding"].data
        assert np.array_equal(table[pp.PAD_ID], np.zeros(shape[1]))
        assert sorted(sides[0][1].moved["embedding"].tolist()) == moved
        never = np.setdiff1d(np.arange(1, shape[0]), moved)
        assert np.array_equal(table[never], weights[never])  # never looked up, never moved


def test_adam_state_grows_with_the_rows_that_move_not_with_the_table():
    table = ad.Tensor(np.zeros((40_000, 300)), requires_grad=True)  # 96 MB
    grad = ad.RowGrad(table.shape, np.array([7, 8, 39_000]), np.ones((3, 300)))
    tracemalloc.start()
    try:
        state = tr.AdamState({"embedding": table})
        tr.adam_step({"embedding": table}, {"embedding": grad}, state, lr=0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Dense moments would be two more 96 MB arrays.
    assert peak < 4 * 2**20, f"adam_step peaked at {peak / 2**20:.1f} MB"
    assert state.m["embedding"].shape == state.v["embedding"].shape == (3, 300)


def test_clip_gradients_on_row_and_dense_gradients_equals_clipping_dense_forms():
    # Multiples of 0.5: every square and partial sum is exact, so the norm
    # cannot depend on the order numpy sums in.
    for limit in (1.0, 100.0):
        rows = ad.RowGrad((5, 2), np.array([1, 3]), np.array([[2.0, -1.0], [0.5, 3.0]]))
        mixed = {"a": np.array([[1.5, -2.0], [0.5, 1.0]]), "e": rows}
        dense = {k: np.asarray(g) for k, g in mixed.items()}
        assert tr.clip_gradients(mixed, limit) == tr.clip_gradients(dense, limit)
        assert isinstance(mixed["e"], ad.RowGrad)
        for k in dense:
            assert np.array_equal(np.asarray(mixed[k]), dense[k]), (k, limit)


def test_inverse_frequency_weights_balance_and_zeroing():
    ds = synthetic.build(n_dialogues=12, seed=3)
    w = tr.inverse_frequency_weights(ds)
    assert len(w) == 8
    assert all(x == 0.0 for x in w[4:])
    assert all(x > 0.0 for x in w[:4])
    counts = [0] * 4
    for d in ds.dialogues:
        for u in d.utterances:
            gi = list(EmotionLabel).index(u.gold)
            if gi < 4:
                counts[gi] += 1
    # rarer class, larger weight
    order_by_count = np.argsort(counts)
    weights_sorted = [w[i] for i in order_by_count]
    assert weights_sorted == sorted(weights_sorted, reverse=True)


# --- checkpoints ------------------------------------------------------------


def saved_checkpoint(tmp_path, seed=0):
    ds, vocab, cfg, table = tiny_world(seed=seed)
    params = m.ModelParams.init(cfg, table, seed=seed)
    ckpt = tr.Checkpoint(
        model_config=cfg,
        tensors={k: t.data.copy() for k, t in params.named_tensors().items()},
        vocab_sha256=pp.vocab_content_sha256(vocab),
        metadata={
            "epoch": 4,
            "seed": seed,
            "embedding": {"oov_count": table.oov_count, "trainable": True},
        },
    )
    path = tmp_path / "model.ckpt"
    tr.save_checkpoint(ckpt, path)
    return ckpt, path, vocab, cfg, params


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    ckpt, path, _, cfg, _ = saved_checkpoint(tmp_path)
    loaded = tr.load_checkpoint(path)
    assert loaded.model_config == cfg
    assert loaded.vocab_sha256 == ckpt.vocab_sha256
    assert loaded.metadata == ckpt.metadata
    assert set(loaded.tensors) == set(ckpt.tensors)
    for name, arr in ckpt.tensors.items():
        assert np.array_equal(loaded.tensors[name], arr), name


def test_checkpoint_rebuilds_identical_forward_pass(tmp_path):
    _, path, vocab, cfg, params = saved_checkpoint(tmp_path)
    cfg2, params2 = tr.params_from_checkpoint(tr.load_checkpoint(path))
    ids = [vocab.encode(pp.prepare(t)) for t in ("okay well", "so glad now")]
    a = m.forward_window(ids, params, cfg).data
    b = m.forward_window(ids, params2, cfg2).data
    assert np.array_equal(a, b)


def test_checkpoint_file_bytes_are_pinned(tmp_path):
    # The digest was recorded from the writer that copied each tensor to bytes
    # before joining them; writing from the arrays' own buffers changes nothing.
    # The tensors cover an integer array, a non-contiguous one and an empty one.
    ckpt = tr.Checkpoint(
        model_config=m.ModelConfig(embed_dim=3, hidden_size=2, window_size=4, fc_dims=(2,),
                                   variant="bilstm"),
        tensors={
            "embedding": np.arange(12.0).reshape(4, 3) / 7.0,
            "bias": np.array([1.5, -2.0, np.pi]),
            "counts": np.arange(6).reshape(2, 3).T,
            "empty": np.zeros((0, 3)),
        },
        vocab_sha256="ab" * 32,
        metadata={"epoch": 2, "history": [{"epoch": 0, "val_uwa": 0.25}], "note": "pinned"},
    )
    path = tmp_path / "pinned.ckpt"
    tr.save_checkpoint(ckpt, path)
    blob = path.read_bytes()
    assert len(blob) == 632
    assert hashlib.sha256(blob).hexdigest() == (
        "6467be1f21a3fd30b38e178d185a11cbd51794fdafb2aa6c536f21d7324774fd"
    )


def assert_separate_float64_arrays(tensors):
    """Each tensor is writeable, C-contiguous, aligned float64 memory that no other shares."""
    for name, arr in tensors.items():
        flags = arr.flags
        assert flags.writeable and flags.c_contiguous and flags.aligned, name
        assert arr.dtype == np.float64, name
    arrays = list(tensors.items())
    for i, (name, arr) in enumerate(arrays):
        for other, arr2 in arrays[i + 1 :]:
            assert not np.may_share_memory(arr, arr2), (name, other)


def test_loaded_tensors_own_writable_memory(tmp_path):
    # Writeable, aligned arrays, none sharing memory with another, not read-only views of the file.
    _, path, *_ = saved_checkpoint(tmp_path)
    assert_separate_float64_arrays(tr.load_checkpoint(path).tensors)


def test_truncated_checkpoint_fails_the_checksum(tmp_path):
    _, path, *_ = saved_checkpoint(tmp_path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(tr.CheckpointError, match="checksum"):
        tr.load_checkpoint(path)


def test_checkpoint_rejects_bad_magic_and_future_version(tmp_path):
    _, path, *_ = saved_checkpoint(tmp_path)
    blob = bytearray(path.read_bytes())
    other = tmp_path / "not_a_checkpoint.bin"
    other.write_bytes(b"what" + bytes(blob[4:]))
    with pytest.raises(tr.CheckpointError, match="magic"):
        tr.load_checkpoint(other)
    blob[4:8] = struct.pack("<I", 99)
    versioned = tmp_path / "future.ckpt"
    versioned.write_bytes(bytes(blob))
    with pytest.raises(tr.CheckpointError, match="version 99"):
        tr.load_checkpoint(versioned)


def test_params_from_checkpoint_requires_every_tensor(tmp_path):
    ckpt, *_ = saved_checkpoint(tmp_path)
    del ckpt.tensors["fc0.w"]
    with pytest.raises(tr.CheckpointError, match="fc0.w"):
        tr.params_from_checkpoint(ckpt)


def test_frozen_embedding_survives_the_round_trip(tmp_path):
    ds, vocab, cfg, _ = tiny_world()
    frozen = emb.random_table(vocab, cfg.embed_dim, seed=9, trainable=False)
    params = m.ModelParams.init(cfg, frozen, seed=0)
    ckpt = tr.Checkpoint(
        model_config=cfg,
        tensors={k: t.data.copy() for k, t in params.named_tensors().items()},
        vocab_sha256="x",
        metadata={"embedding": {"oov_count": 0, "trainable": False}},
    )
    path = tmp_path / "frozen.ckpt"
    tr.save_checkpoint(ckpt, path)
    _, rebuilt = tr.params_from_checkpoint(tr.load_checkpoint(path))
    assert "embedding" not in rebuilt.trainable_tensors()
    assert not rebuilt.embedding.weights.requires_grad


def reseal_header(path, edit):
    """Apply edit to a saved checkpoint's JSON header and recompute the checksum."""
    blob = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + hlen])
    edit(header)
    hbytes = json.dumps(header).encode("utf-8")
    body = blob[:8] + struct.pack("<Q", len(hbytes)) + hbytes + blob[16 + hlen : -4]
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


def test_checkpoint_label_count_from_older_headers_must_be_eight(tmp_path):
    _, path, _, cfg, _ = saved_checkpoint(tmp_path)
    reseal_header(path, lambda h: h["model_config"].update(num_labels=8))
    assert tr.load_checkpoint(path).model_config == cfg
    # Older headers also carry the training dropout rate; loading drops it.
    reseal_header(path, lambda h: h["model_config"].update(dropout_p=0.3))
    assert tr.load_checkpoint(path).model_config == cfg
    reseal_header(path, lambda h: h["model_config"].update(num_labels=4))
    with pytest.raises(tr.CheckpointError, match="4 labels"):
        tr.load_checkpoint(path)


@pytest.mark.parametrize(
    "edit",
    [
        lambda h: h["tensors"][-1].update(offset=h["tensors"][-1]["offset"] + 8),
        lambda h: h["tensors"][0].update(shape=[10**6, 8]),
        lambda h: h.pop("tensors"),
        lambda h: h.update(metadata=[]),
        lambda h: h["metadata"].update(embedding=[]),
        lambda h: h["metadata"]["embedding"].update(oov_count="x"),
        lambda h: h["metadata"]["embedding"].update(trainable="false"),
        lambda h: h.update(vocab_sha256=5),
    ],
    ids=[
        "offset-past-payload",
        "shape-past-payload",
        "no-tensor-directory",
        "metadata-not-an-object",
        "embedding-metadata-not-an-object",
        "oov-count-not-a-count",
        "trainable-not-a-bool",
        "vocab-hash-not-a-string",
    ],
)
def test_checksum_valid_malformed_checkpoint_fails_as_input_error(tmp_path, capsys, edit):
    _, path, vocab, *_ = saved_checkpoint(tmp_path)
    reseal_header(path, edit)
    with pytest.raises(tr.CheckpointError):
        tr.load_checkpoint(path)
    vocab.save(tmp_path / "vocab.txt")
    data = tmp_path / "dialogues.json"
    data.write_text(json.dumps(serialize_dataset(synthetic.build(n_dialogues=2))), encoding="utf-8")
    assert cli.main(["eval", str(path), str(data)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", ["eval", "predict"])
@pytest.mark.parametrize(
    "name, shape",
    [("out.w", (7, 8)), ("lstm_fwd.w", (16, 13)), ("embedding", (3, 8)), ("embedding", (9, 8))],
    ids=["out.w", "lstm_fwd.w", "embedding-under-specials", "embedding-not-vocab-size"],
)
def test_checkpoint_tensor_shapes_must_fit_the_config(tmp_path, capsys, command, name, shape):
    ckpt, path, vocab, *_ = saved_checkpoint(tmp_path)
    ckpt.tensors[name] = np.zeros(shape)
    tr.save_checkpoint(ckpt, path)
    vocab.save(tmp_path / "vocab.txt")
    data = tmp_path / "dialogues.json"
    data.write_text(json.dumps(serialize_dataset(synthetic.build(n_dialogues=2))), encoding="utf-8")
    assert cli.main([command, str(path), str(data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(name) in err


def test_interrupted_writes_keep_the_previous_files(tmp_path, monkeypatch):
    ckpt, path, vocab, *_ = saved_checkpoint(tmp_path)
    vocab_path = tmp_path / "vocab.txt"
    vocab.save(vocab_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def interrupted(src, dst):
        raise OSError("interrupted before the rename")

    monkeypatch.setattr(os, "replace", interrupted)
    ckpt.tensors["out.b"] = ckpt.tensors["out.b"] + 1.0
    with pytest.raises(OSError):
        tr.save_checkpoint(ckpt, path)
    with pytest.raises(OSError):
        pp.Vocab(vocab.tokens[:-1]).save(vocab_path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


# An unclosed file warns when it is collected; a warning there reaches pytest as an
# unraisable exception, so both are errors in the reader's tests.
closes_its_file = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)


def load_outcome(load, path):
    """What ``load`` makes of ``path``: the checkpoint or its CheckpointError message."""
    try:
        return load(path)
    except tr.CheckpointError as exc:
        return str(exc)


def assert_loads_like_the_oracle(path):
    """``load_checkpoint`` returns what the whole-file reader returns, or its message word for word.

    The one intended difference: a tensor holding a non-finite value is refused.
    """
    want = load_outcome(whole_file_checkpoint.load_checkpoint, path)
    got = load_outcome(tr.load_checkpoint, path)
    if isinstance(want, str):
        assert got == want
        return
    nonfinite = [name for name, arr in want.tensors.items() if not np.isfinite(arr).all()]
    if nonfinite:
        assert got == f"{path}: tensor {nonfinite[0]!r} holds non-finite values"
        return
    assert not isinstance(got, str), got
    assert (got.model_config, got.vocab_sha256, got.metadata) == (
        want.model_config, want.vocab_sha256, want.metadata
    )
    assert list(got.tensors) == list(want.tensors)
    for name, arr in want.tensors.items():
        assert np.array_equal(got.tensors[name], arr), name
    assert_separate_float64_arrays(got.tensors)


def seal(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    _, path, *_ = saved_checkpoint(tmp_path_factory.mktemp("small"))
    return path, path.read_bytes()


corruptions = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 1 << 20), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 1 << 20)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=24)),
)


@closes_its_file
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(corruption=corruptions, reseal=st.booleans())
def test_corrupt_checkpoint_loads_like_the_whole_file_reader(small_checkpoint, corruption, reseal):
    # reseal recomputes the CRC over the damaged file, so the damage reaches the
    # header and tensor checks behind it.
    path, blob = small_checkpoint
    kind, *args = corruption
    if kind == "flip":
        at = args[0] % len(blob)
        bad = blob[:at] + bytes([blob[at] ^ args[1]]) + blob[at + 1 :]
    elif kind == "truncate":
        bad = blob[: args[0] % len(blob)]
    else:
        bad = blob + args[0]
    if reseal and len(bad) >= 4:
        bad = seal(bad[:-4])
    damaged = path.with_name("damaged.ckpt")
    damaged.write_bytes(bad)
    assert_loads_like_the_oracle(damaged)


@closes_its_file
@pytest.mark.parametrize("layout", ["reversed", "gaps", "overlap", "misaligned"])
def test_hand_built_tensor_directory_loads_like_the_whole_file_reader(tmp_path, layout):
    # No writer here lays tensors out like this: reversed, the payload runs in
    # the directory's reverse order; with gaps, 8 stray bytes precede every
    # tensor; overlap points lstm_bwd.w at lstm_fwd.w's bytes. Misaligned puts
    # the first tensor at offset 4 of a zero prefix whose bytes 10-11 are F8 7F:
    # its first value is a NaN, while the floats at bytes 0-7 and 8-15 are finite.
    ckpt, path, *_ = saved_checkpoint(tmp_path)
    blob = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + hlen])
    payload = bytearray(bytes(10) + b"\xf8\x7f" + bytes(4) if layout == "misaligned" else b"")
    entries = header["tensors"][::-1] if layout == "reversed" else header["tensors"]
    for entry in entries:
        if layout == "gaps":
            payload += b"\xff" * 8
        entry["offset"] = len(payload)
        payload += np.ascontiguousarray(ckpt.tensors[entry["name"]], dtype="<f8").tobytes()
    at = {entry["name"]: entry for entry in entries}
    if layout == "overlap":
        at["lstm_bwd.w"]["offset"] = at["lstm_fwd.w"]["offset"]
    if layout == "misaligned":
        entries[0]["offset"] = 4
    hbytes = json.dumps(header).encode("utf-8")
    path.write_bytes(seal(blob[:8] + struct.pack("<Q", len(hbytes)) + hbytes + bytes(payload)))
    assert_loads_like_the_oracle(path)
    if layout == "misaligned":
        with pytest.raises(tr.CheckpointError, match="tensor 'embedding' holds non-finite values"):
            tr.load_checkpoint(path)
        return
    want = dict(ckpt.tensors)
    if layout == "overlap":
        want["lstm_bwd.w"] = want["lstm_fwd.w"]
    loaded = tr.load_checkpoint(path)
    assert list(loaded.tensors) == list(want)
    for name, arr in want.items():
        assert np.array_equal(loaded.tensors[name], arr), name


class ShortReads:
    """A file whose every ``readinto`` fills at most 4093 bytes, as network filesystems may."""

    def __init__(self, raw):
        self.raw = raw

    def readinto(self, buf):
        return self.raw.readinto(memoryview(buf).cast("B")[:4093])

    def __getattr__(self, name):
        return getattr(self.raw, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.raw.close()


@closes_its_file
def test_short_reads_load_the_whole_checkpoint(tmp_path, monkeypatch):
    ckpt, path, *_ = saved_checkpoint(tmp_path)
    ckpt.tensors["embedding"] = np.random.default_rng(0).normal(size=(640, 8))  # 40 kB
    tr.save_checkpoint(ckpt, path)
    monkeypatch.setattr(tr, "open", lambda *a, **kw: ShortReads(open(*a, **kw)), raising=False)
    loaded = tr.load_checkpoint(path)
    for name, arr in ckpt.tensors.items():
        assert np.array_equal(loaded.tensors[name], arr), name


@closes_its_file
def test_file_shorter_than_its_stat_size_fails_the_checksum(tmp_path, monkeypatch):
    _, path, *_ = saved_checkpoint(tmp_path)
    fstat = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: types.SimpleNamespace(st_size=fstat(fd).st_size + 8))
    with pytest.raises(tr.CheckpointError, match="checksum mismatch, file is corrupt or truncated"):
        tr.load_checkpoint(path)


@closes_its_file
@pytest.mark.parametrize("where", ["out.b", "embedding"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_tensor_value_fails_naming_the_tensor(tmp_path, where, value):
    ckpt, path, *_ = saved_checkpoint(tmp_path)
    ckpt.tensors[where].reshape(-1)[-1] = value
    tr.save_checkpoint(ckpt, path)
    with pytest.raises(tr.CheckpointError, match=f"tensor '{where}' holds non-finite values"):
        tr.load_checkpoint(path)


def test_small_chunks_loaded_from_several_threads_keep_every_tensor(tmp_path, monkeypatch):
    # Chunks of 24 bytes: most tensors span several, and chunk ends fall inside
    # them. Eight loads on four threads interleave their checks in the worker's queue.
    monkeypatch.setattr(tr, "LOAD_CHUNK_BYTES", 24)
    ckpt, path, *_ = saved_checkpoint(tmp_path)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as callers:
            loads = [callers.submit(tr.load_checkpoint, path) for _ in range(8)]
            loaded = [done.result(timeout=60) for done in loads]
    finally:
        sys.setswitchinterval(interval)
    for got in loaded:
        for name, arr in ckpt.tensors.items():
            assert np.array_equal(got.tensors[name], arr), name
    ckpt.tensors["out.w"].reshape(-1)[4] = math.nan
    tr.save_checkpoint(ckpt, path)
    with pytest.raises(tr.CheckpointError, match="'out.w'"):
        tr.load_checkpoint(path)


def test_forked_child_loads_a_checkpoint(tmp_path):
    ckpt, path, *_ = saved_checkpoint(tmp_path)
    tr.load_checkpoint(path)  # the parent's worker thread is running when it forks
    parent_pool = ad._POOL
    with warnings.catch_warnings():
        # Python 3.12+ warns about forking a process that runs threads.
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:  # the child: never return into pytest
        code = 1
        try:
            assert ad._POOL is not parent_pool
            loaded = tr.load_checkpoint(path)
            assert all(np.array_equal(loaded.tensors[k], v) for k, v in ckpt.tensors.items())
            code = 0
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's load_checkpoint did not finish within 60 s")
    assert os.waitstatus_to_exitcode(done[1]) == 0


# --- the loop ---------------------------------------------------------------


def test_train_history_shape_and_schedule():
    ds, val_ds, vocab, cfg, table = held_out_world(0.25, split_seed=1)
    tcfg = tr.TrainConfig(epochs=3, seed=1, dropout=0.0, lr0=0.01)
    result = tr.train(ds, vocab, table, cfg, tcfg, val_ds)
    assert len(result.history) == 3
    for e, row in enumerate(result.history):
        assert set(row) == {"epoch", "lr", "train_loss", "val_wa", "val_uwa"}
        assert row["epoch"] == e
        assert row["lr"] == 0.01 * 0.99**e
        assert row["val_wa"] is not None and 0.0 <= row["val_wa"] <= 1.0
    assert result.last.metadata["epoch"] == 2
    assert result.last.metadata["history"] == result.history


def test_train_is_deterministic_per_seed(tmp_path):
    outs = []
    for run in range(2):
        ds, val_ds, vocab, cfg, table = held_out_world(0.25, split_seed=7)
        tcfg = tr.TrainConfig(epochs=2, seed=7)
        result = tr.train(ds, vocab, table, cfg, tcfg, val_ds)
        path = tmp_path / f"run{run}.ckpt"
        tr.save_checkpoint(result.best, path)
        outs.append((result.history, path.read_bytes()))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]

    ds, val_ds, vocab, cfg, table = held_out_world(0.25, split_seed=7)
    other = tr.train(ds, vocab, table, cfg, tr.TrainConfig(epochs=2, seed=8), val_ds)
    assert other.history != outs[0][0]


def test_train_trains_the_table_it_is_given():
    tcfg = tr.TrainConfig(epochs=2, seed=0)
    runs = []
    for _ in range(2):  # each run on its own fresh, same-seed table
        ds, val_ds, vocab, cfg, table = held_out_world(0.25, split_seed=0, n_dialogues=4)
        before = table.weights.data.copy()
        runs.append(tr.train(ds, vocab, table, cfg, tcfg, val_ds))
        assert np.shares_memory(runs[-1].last.tensors["embedding"], table.weights.data)
        assert not np.array_equal(table.weights.data, before)
    first, second = runs
    assert first.history == second.history
    for which in ("last", "best"):
        a, b = getattr(first, which).tensors, getattr(second, which).tensors
        assert a.keys() == b.keys()
        for name in a:
            assert a[name].tobytes() == b[name].tobytes(), (which, name)

    frozen = emb.random_table(vocab, cfg.embed_dim, seed=50, trainable=False)
    before = frozen.weights.data.copy()
    tr.train(ds, vocab, frozen, cfg, tcfg, val_ds)
    assert frozen.weights.data.tobytes() == before.tobytes()


@pytest.mark.parametrize("trainable, epochs", [(True, 1), (False, 3)])
def test_train_allocates_less_than_one_table(trainable, epochs):
    # A toy model whose vocab holds 40k tokens the corpus never uses: a 4.9 MB
    # table. A copy of it, for training or for the best epoch's snapshot,
    # would take the peak past the table's own size.
    ds, val_ds, vocab, cfg, _ = held_out_world(0.1, split_seed=0, embed_dim=16)
    vocab = pp.Vocab(vocab.tokens + [f"unseen{i}" for i in range(40_000)])
    table = emb.random_table(vocab, cfg.embed_dim, seed=50, trainable=trainable)
    tcfg = tr.TrainConfig(epochs=epochs, seed=0)
    tracemalloc.start()
    try:
        result = tr.train(ds, vocab, table, cfg, tcfg, val_ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if not trainable:  # the best epoch is snapshotted before the last one runs
        assert result.best.metadata["epoch"] < epochs - 1
    nbytes = table.weights.data.nbytes
    assert peak < nbytes, f"train() peaked at {peak / 2**20:.2f} MB, the table is {nbytes / 2**20:.2f} MB"


@pytest.mark.parametrize(
    "variant, trainable, ops",
    [("sa-bilstm", True, 12), ("bilstm", True, 10), ("sa-bilstm", False, 11), ("bilstm", False, 9)],
)
def test_one_step_tapes_one_op_per_layer_and_none_for_a_frozen_lookup(monkeypatch, variant, trainable, ops):
    # At ModelConfig()'s sizes: the lookup, the BiLSTM, attention and its dropout
    # (sa-bilstm), three ops per hidden layer, the output layer and the loss.
    ds = synthetic.build(n_dialogues=1, seed=0)
    vocab = tr.vocab_from_dataset(ds)
    cfg = m.ModelConfig(variant=variant)
    table = emb.random_table(vocab, cfg.embed_dim, seed=0, trainable=trainable)
    params = m.ModelParams.init(cfg, table, seed=0)
    trainable_tensors = params.trainable_tensors()
    backward, seen = ad.backward, []

    def spy(tape, loss):
        grads = backward(tape, loss)
        seen.append((len(tape), table.weights in grads))
        return grads

    monkeypatch.setattr(ad, "backward", spy)
    windows = tr.encode_dataset(ds, vocab, cfg.window_size)[0][:1]
    cw = np.asarray(tr.TrainConfig().class_weights)
    dropout = (0.3, ad.seeded_rng(0, stream=2))
    state = tr.AdamState(trainable_tensors)
    assert tr._optimize_step(windows, params, cfg, trainable_tensors, state, 1e-3, cw, dropout, None) is not None
    assert seen == [(ops, trainable)]


def six_utterance_step(window_size, **cfg_over):
    """(windows, params, cfg) of tiny_world's 6-utterance dialogue cut into windows of window_size."""
    ds, vocab, cfg, table = tiny_world(window_size=window_size, **cfg_over)
    dialogue = next(i for i, d in enumerate(ds.dialogues) if len(d.utterances) == 6)
    windows = tr.encode_dataset(ds, vocab, window_size)[dialogue]
    return windows, m.ModelParams.init(cfg, table, seed=1), cfg


def step_gradients(monkeypatch, windows, params, cfg, dropout):
    """(loss, {name: dense gradient}) of one ``_optimize_step``, caught before Adam runs."""
    caught = {}
    monkeypatch.setattr(tr, "adam_step", lambda named, grads, state, lr: caught.update(grads))
    trainable = params.trainable_tensors()
    cw = np.asarray(tr.TrainConfig().class_weights)
    state = tr.AdamState(trainable)
    loss = tr._optimize_step(windows, params, cfg, trainable, state, 1e-3, cw, dropout, None)
    return loss, {k: np.asarray(g) for k, g in caught.items()}


@pytest.mark.parametrize("variant", ["sa-bilstm", "bilstm"])
@pytest.mark.parametrize("window_size", [1, 2, 4, 5])
def test_a_step_over_many_windows_matches_the_per_window_oracle(monkeypatch, variant, window_size):
    # No dropout: the oracle draws masks per window. The table's gradient sums
    # its windows' lookups in another order, so agreement is to rounding.
    windows, params, cfg = six_utterance_step(window_size, variant=variant)
    assert len(windows) > 1
    cw = np.asarray(tr.TrainConfig().class_weights)
    want_loss, want = per_window_step(windows, params, cfg, cw, (0.0, ad.seeded_rng(0, stream=2)))
    loss, got = step_gradients(monkeypatch, windows, params, cfg, (0.0, ad.seeded_rng(0, stream=2)))
    assert abs(loss - want_loss) <= 1e-10 * abs(want_loss)
    assert got.keys() == want.keys()
    for name in want:
        assert np.max(np.abs(got[name] - want[name])) <= 1e-10 * np.max(np.abs(want[name])), name


@pytest.mark.parametrize("variant", ["sa-bilstm", "bilstm"])
def test_a_one_window_step_equals_the_per_window_oracle_bit_for_bit(monkeypatch, variant):
    windows, params, cfg = six_utterance_step(6, variant=variant)
    assert len(windows) == 1
    cw = np.asarray(tr.TrainConfig().class_weights)
    want_loss, want = per_window_step(windows, params, cfg, cw, (0.3, ad.seeded_rng(0, stream=2)))
    loss, got = step_gradients(monkeypatch, windows, params, cfg, (0.3, ad.seeded_rng(0, stream=2)))
    assert loss == want_loss
    assert got.keys() == want.keys()
    for name in want:
        assert np.array_equal(got[name], want[name]), name


@pytest.mark.parametrize("variant, attention", [("sa-bilstm", 1), ("bilstm", 0)])
@pytest.mark.parametrize("window_size", [1, 2, 6])
def test_a_step_tapes_one_lookup_encoder_and_attention_whatever_its_windows(
    monkeypatch, variant, attention, window_size
):
    windows, params, cfg = six_utterance_step(window_size, variant=variant)
    assert len(windows) == math.ceil(6 / window_size)
    backward, ops = ad.backward, []

    def spy(tape, loss):
        ops.extend(rule.__qualname__.split(".")[0] for _, _, rule in tape._records)
        return backward(tape, loss)

    monkeypatch.setattr(ad, "backward", spy)
    step_gradients(monkeypatch, windows, params, cfg, (0.3, ad.seeded_rng(0, stream=2)))
    assert ops.count("gather_rows") == 1
    assert ops.count("bilstm_max") == 1
    assert ops.count("self_attention") == attention


@pytest.mark.parametrize(
    "variant, trainable, fc_dims",
    [("sa-bilstm", True, (8,)), ("bilstm", True, (8,)), ("sa-bilstm", False, (8,)),
     ("bilstm", False, (8,)), ("sa-bilstm", True, ()), ("bilstm", True, ())],
)
def test_every_step_gives_every_trainable_tensor_a_gradient(monkeypatch, variant, trainable, fc_dims):
    # adam_step reads a gradient for every parameter it is given.
    ds, vocab, cfg, _ = tiny_world(variant=variant, fc_dims=fc_dims)
    table = emb.random_table(vocab, cfg.embed_dim, seed=50, trainable=trainable)
    adam_step, steps = tr.adam_step, []

    def spy(named, grads, state, lr):
        steps.append((list(named), list(grads)))
        adam_step(named, grads, state, lr)

    monkeypatch.setattr(tr, "adam_step", spy)
    tr.train(ds, vocab, table, cfg, tr.TrainConfig(epochs=2, batch_size=4, seed=0), ds)
    assert len(steps) > 2
    for named, grads in steps:
        assert ("embedding" in named) == trainable
        assert grads == named


def test_no_tape_is_alive_while_the_gradients_are_clipped_and_adam_steps(monkeypatch):
    # A step's tape holds its forward buffers; they are freed before the update.
    def tapes():
        return sum(isinstance(o, ad.Tape) for o in gc.get_objects())

    seen = []

    def spying(fn):
        def spy(*args):
            seen.append((fn.__name__, tapes()))
            return fn(*args)

        return spy

    for name in ("clip_gradients", "adam_step"):
        monkeypatch.setattr(tr, name, spying(getattr(tr, name)))
    ds, val_ds, vocab, cfg, table = held_out_world(0.25, split_seed=0, n_dialogues=4)
    gc.collect()
    before = tapes()
    tr.train(ds, vocab, table, cfg, tr.TrainConfig(epochs=1, seed=0, grad_clip=1e-3), val_ds)
    assert {name for name, _ in seen} == {"clip_gradients", "adam_step"}
    assert all(alive == before for _, alive in seen), seen


def test_train_best_checkpoint_tracks_peak_val_uwa():
    ds, val_ds, vocab, cfg, table = held_out_world(0.25, split_seed=2, n_dialogues=8)
    tcfg = tr.TrainConfig(epochs=4, seed=2, lr0=0.02, dropout=0.0)
    result = tr.train(ds, vocab, table, cfg, tcfg, val_ds)
    uwas = [row["val_uwa"] for row in result.history]
    best_epoch = result.best.metadata["epoch"]
    assert uwas[best_epoch] == max(uwas)
    assert best_epoch == uwas.index(max(uwas))  # ties go to the earliest
    assert result.best.metadata["history"] == result.history[: best_epoch + 1]


def test_train_best_checkpoint_equals_a_run_stopped_at_the_best_epoch():
    ds, vocab, cfg, table = tiny_world(n_dialogues=12)
    tcfg = tr.TrainConfig(epochs=5, seed=0, lr0=0.02, dropout=0.0)
    result = tr.train(ds, vocab, table, cfg, tcfg, ds)
    best = result.best.metadata["epoch"]
    assert 0 < best < 4  # later epochs train on after the best one
    _, _, _, fresh = tiny_world(n_dialogues=12)  # train() has trained the first table
    stopped = tr.train(ds, vocab, fresh, cfg, dataclasses.replace(tcfg, epochs=best + 1), ds)
    assert result.best.tensors.keys() == stopped.last.tensors.keys()
    for name, arr in result.best.tensors.items():
        assert arr.tobytes() == stopped.last.tensors[name].tobytes(), name


def test_train_best_last_epoch_shares_the_last_checkpoint_arrays():
    ds, vocab, cfg, table = tiny_world(n_dialogues=8)
    tcfg = tr.TrainConfig(epochs=5, seed=0, lr0=0.05, dropout=0.0)
    result = tr.train(ds, vocab, table, cfg, tcfg, ds)
    assert result.best.metadata["epoch"] == 4
    assert result.best.tensors.keys() == result.last.tensors.keys()
    for name, arr in result.best.tensors.items():
        assert np.shares_memory(arr, result.last.tensors[name]), name


def test_train_bilstm_variant_batches_flat_utterances():
    ds, val_ds, vocab, cfg, table = held_out_world(0.25, split_seed=3, variant="bilstm")
    tcfg = tr.TrainConfig(epochs=2, seed=3, batch_size=4)
    result = tr.train(ds, vocab, table, cfg, tcfg, val_ds)
    assert len(result.history) == 2
    assert result.best.model_config.variant == "bilstm"


def test_train_accepts_an_explicit_validation_set():
    ds, vocab, cfg, table = tiny_world(n_dialogues=6)
    val = synthetic.build(n_dialogues=2, seed=99)
    result = tr.train(ds, vocab, table, cfg, tr.TrainConfig(epochs=1, seed=0), val_ds=val)
    # The epoch is scored on val, as evaluate_dataset scores the trained model on it.
    report = tr.evaluate_dataset(val, vocab, tr.params_from_checkpoint(result.last)[1], cfg)
    assert (result.history[0]["val_wa"], result.history[0]["val_uwa"]) == (report.wa, report.uwa)


def test_train_loss_trends_down_on_the_synthetic_set():
    ds, vocab, cfg, table = tiny_world(n_dialogues=10)
    tcfg = tr.TrainConfig(epochs=5, seed=4, lr0=0.02, dropout=0.0)
    result = tr.train(ds, vocab, table, cfg, tcfg, ds)
    losses = [row["train_loss"] for row in result.history]
    assert losses[-1] < losses[0]


def test_token_batches_cut_longest_first_runs_at_the_cap():
    assert list(tr._token_batches([3, 5, 1, 5, 9, 12], 10)) == [[5], [4], [1, 3], [0, 2]]
    assert list(tr._token_batches([], 10)) == []


@pytest.mark.parametrize("variant", ["sa-bilstm", "bilstm"])
def test_infer_equals_forward_window_per_window(monkeypatch, variant):
    # Enough ragged windows for several packed batches, a one-utterance window,
    # and an utterance longer than the cap, which is encoded alone.
    _, vocab, cfg, table = tiny_world(variant=variant)
    params = m.ModelParams.init(cfg, table, seed=1)
    rng = np.random.default_rng(5)
    utterance = lambda k: rng.integers(1, len(vocab), size=k).tolist()  # no PAD_ID
    windows = [
        [utterance(rng.integers(1, 30)) for _ in range(rng.integers(1, cfg.window_size + 1))]
        for _ in range(40)
    ]
    windows[7] = [utterance(6)]
    windows[20][1] = utterance(tr.INFER_BATCH_TOKENS + 20)
    want = np.concatenate([m.forward_window(ids, params, cfg).data for ids in windows])
    batches, encode = [], m.encode_sentence
    monkeypatch.setattr(m, "encode_sentence", lambda ids, *a: batches.append(ids) or encode(ids, *a))
    got = tr.infer(windows, params, cfg)
    assert len(batches) >= 4
    assert sorted(len(ids) for batch in batches for ids in batch) == sorted(
        len(ids) for w in windows for ids in w
    )
    assert all(sum(map(len, b)) <= tr.INFER_BATCH_TOKENS for b in batches if len(b) > 1)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_cli_predict_labels_tally_to_evaluate_dataset(tmp_path):
    ds, vocab, cfg, table = tiny_world()
    assert any(len(d) > cfg.window_size for d in ds.dialogues)
    params = m.ModelParams.init(cfg, table, seed=0)
    # Seeded init gives every utterance one label; centring the output bias on
    # the mean logit spreads the predictions so a misaligned tally shows.
    windows = [ids for dlg in tr.encode_dataset(ds, vocab, cfg.window_size) for ids, _ in dlg]
    params.out_b.data = -tr.infer(windows, params, cfg).mean(axis=0)
    ckpt = tr.Checkpoint(
        model_config=cfg,
        tensors={k: t.data.copy() for k, t in params.named_tensors().items()},
        vocab_sha256=pp.vocab_content_sha256(vocab),
        metadata={"embedding": {"oov_count": table.oov_count, "trainable": True}},
    )
    ckpt_path = tmp_path / "checkpoint.bin"
    tr.save_checkpoint(ckpt, ckpt_path)
    vocab.save(tmp_path / "vocab.txt")
    data = tmp_path / "dialogues.json"
    data.write_text(json.dumps(serialize_dataset(ds)), encoding="utf-8")
    out = tmp_path / "predicted.json"
    assert cli.main(["predict", str(ckpt_path), str(data), "--out", str(out)]) == 0

    predicted = json.loads(out.read_text(encoding="utf-8"))
    assert [len(dlg) for dlg in predicted] == [len(d) for d in ds.dialogues]
    preds = [LABEL_INDEX[EmotionLabel(u["predicted_emotion"])] for dlg in predicted for u in dlg]
    golds = [LABEL_INDEX[u.gold] for d in ds.dialogues for u in d.utterances]
    report = tr.evaluate_dataset(ds, vocab, params, cfg)
    assert len(set(preds)) > 1
    assert mx.report(preds, golds).to_json_dict() == report.to_json_dict()

    empty = tmp_path / "empty.json"
    empty.write_text("[]", encoding="utf-8")
    assert cli.main(["predict", str(ckpt_path), str(empty), "--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8")) == []
