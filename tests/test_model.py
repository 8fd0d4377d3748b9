import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialoglow import autodiff as ad
from dialoglow import embeddings as emb
from dialoglow import model as m
from dialoglow import preprocess as pp
from dialoglow.corpus import LABEL_ORDER
from helpers import project
import padded_lstm


def tiny_cfg(**over):
    base = dict(
        embed_dim=5,
        hidden_size=3,
        window_size=4,
        fc_dims=(4,),
        variant="sa-bilstm",
    )
    base.update(over)
    return m.ModelConfig(**base)


def tiny_setup(seed=0, **over):
    cfg = tiny_cfg(**over)
    vocab = pp.build_vocab([["aa", "bb", "cc", "dd", "ee"]])
    table = emb.random_table(vocab, cfg.embed_dim, seed=seed + 100)
    params = m.ModelParams.init(cfg, table, seed=seed)
    return cfg, vocab, params


def test_config_sentence_dim_tracks_hidden_size():
    assert tiny_cfg().sentence_dim == 6
    assert m.ModelConfig().sentence_dim == 512
    with pytest.raises(ValueError):
        tiny_cfg(variant="transformer")
    with pytest.raises(ValueError):
        tiny_cfg(fc_dims=(4, 0))


def test_init_forget_bias_one_and_xavier_bounds():
    cfg, _, params = tiny_setup(seed=3)
    l, d = cfg.hidden_size, cfg.embed_dim
    for direction in ("lstm_fwd", "lstm_bwd"):
        w, b = params.tensors[f"{direction}.w"], params.tensors[f"{direction}.b"].data
        assert np.array_equal(b[l : 2 * l], np.ones(l))
        assert np.array_equal(np.delete(b, slice(l, 2 * l)), np.zeros(3 * l))
        bound = math.sqrt(6.0 / (d + l + 4 * l))
        assert w.shape == (4 * l, d + l)
        assert np.all(np.abs(w.data) <= bound)
    assert np.array_equal(params.tensors["out.b"].data, np.zeros(len(LABEL_ORDER)))
    _, _, again = tiny_setup(seed=3)
    assert np.array_equal(params.tensors["lstm_fwd.w"].data, again.tensors["lstm_fwd.w"].data)


@pytest.mark.parametrize(
    "fc_dims, hidden",
    [((), []), ((4,), ["fc0"]), ((4, 4), ["fc0", "fc1"])],
    ids=["no-hidden", "one-hidden", "two-hidden"],
)
def test_named_tensors_cover_all_parameters(fc_dims, hidden):
    cfg, vocab, params = tiny_setup(fc_dims=fc_dims)
    names = list(params.named_tensors())
    assert names == [
        "embedding",
        "lstm_fwd.w",
        "lstm_fwd.b",
        "lstm_bwd.w",
        "lstm_bwd.b",
        *(f"{layer}.{p}" for layer in hidden for p in "wb"),
        "out.w",
        "out.b",
    ]
    assert names == ["embedding", *m.param_shapes(cfg)]
    # classify walks every hidden layer: each trainable tensor gets a gradient.
    with ad.Tape() as tape:
        logits = m.forward_window(window_ids(vocab, ["aa bb", "cc"]), params, cfg)
        loss = ad.weighted_nll(logits, [0, 1], [1.0, 1.0])
    grads = ad.backward(tape, loss)
    for name, t in params.trainable_tensors().items():
        assert t in grads and np.any(np.asarray(grads[t]) != 0.0), name
    frozen = emb.random_table(pp.build_vocab([["aa"]]), cfg.embed_dim, 0, trainable=False)
    p2 = m.ModelParams.init(cfg, frozen, seed=0)
    assert "embedding" not in p2.trainable_tensors()


def test_lstm_with_zero_weights_runs_each_row_from_its_own_start():
    # Zero weights make every gate a constant of its bias, in i, f, g, o order.
    # The hidden state then rises step by step when g > 0 and falls when g < 0,
    # so the pooled maximum is a row's last state or its first.
    l, d = 2, 3
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    directions, states = [], []
    for cell in (1.1, -1.1):  # forward, backward
        gate = {"i": 0.3, "f": -0.8, "g": cell, "o": 0.5}
        directions += [ad.Tensor(np.zeros((4 * l, d + l))),
                       ad.Tensor(np.repeat(list(gate.values()), l))]
        i, f, g, o = sig(gate["i"]), sig(gate["f"]), math.tanh(gate["g"]), sig(gate["o"])
        c, want = 0.0, []
        for _ in range(3):
            c = f * c + i * g
            want.append(o * math.tanh(c))
        states.append(want)
    x = ad.Tensor(np.random.default_rng(0).normal(size=(4, d)))
    u = ad.bilstm_max(x, [3, 1], *directions).data
    rising, falling = states
    assert np.allclose(u[0], [rising[2]] * l + [falling[0]] * l, atol=1e-15)
    assert np.allclose(u[1], [rising[0]] * l + [falling[0]] * l, atol=1e-15)


def test_lstm_three_chained_steps_gradient_matches_fd():
    rng = np.random.default_rng(7)
    l, d = 3, 4
    directions = []  # forward w, b, then backward w, b
    for _ in range(2):
        directions += [ad.Tensor(rng.uniform(-0.4, 0.4, (4 * l, d + l)), requires_grad=True),
                       ad.Tensor(rng.uniform(-0.2, 0.2, 4 * l), requires_grad=True)]
    x = ad.Tensor(rng.uniform(-1, 1, (3, d)), requires_grad=True)
    r = rng.uniform(-1, 1, (1, 2 * l))

    def f():
        return project(ad.bilstm_max(x, [3], *directions), r)

    assert ad.grad_check(f, [x, *directions]) < 1e-5


def test_encode_sentence_ignores_trailing_padding_ids():
    # The middle row is padded up to its longest neighbour; only the
    # neighbours' lengths change between these windows.
    cfg, vocab, params = tiny_setup()
    ids = vocab.encode(["aa", "bb", "cc"])
    neighbours = [(["dd"], ["ee"]), (["dd"] * 9, ["ee", "aa"]), (["dd", "ee"], ["ee"] * 3)]
    rows = [
        m.encode_sentence([vocab.encode(a), ids, vocab.encode(b)], params).data[1]
        for a, b in neighbours
    ]
    assert rows[0].shape == (cfg.sentence_dim,)
    assert all(np.array_equal(r, rows[0]) for r in rows)
    # A one-row batch steps a discarded second row, off BLAS's matrix-vector path.
    alone = m.encode_sentence([ids], params).data[0]
    assert np.array_equal(alone, rows[0])


def test_forward_window_tape_length_does_not_grow_with_tokens():
    cfg, vocab, params = tiny_setup()
    lengths = []
    for sizes in ((1, 1, 1), (5, 9, 2), (30, 40, 35)):
        ids = [vocab.encode(["aa"] * k) for k in sizes]
        with ad.Tape() as tape:
            ad.weighted_nll(m.forward_window(ids, params, cfg), [0, 1, 2], [1.0, 1.0, 1.0])
        lengths.append(len(tape))
    assert lengths[0] == lengths[1] == lengths[2]


def test_attention_scores_all_ones_width_four_gives_two():
    f = ad.attention_scores(np.ones((2, 4)))
    assert np.array_equal(f, np.full((2, 2), 2.0))


def test_attention_scores_symmetric_and_quadratic_in_scale():
    rng = np.random.default_rng(5)
    u = rng.normal(size=(6, 8))
    f = ad.attention_scores(u)
    assert np.array_equal(f, f.T)
    f2 = ad.attention_scores(2.0 * u)
    assert np.allclose(f2, 4.0 * f, atol=1e-12)


def test_self_attend_single_utterance_is_identity():
    rng = np.random.default_rng(1)
    u = ad.Tensor(rng.normal(size=(1, 6)))
    out = m.self_attend(u, [0, 1])
    assert np.array_equal(out.data, u.data)


def test_self_attend_records_one_op():
    u = ad.Tensor(np.random.default_rng(2).normal(size=(3, 4)), requires_grad=True)
    with ad.Tape() as tape:
        m.self_attend(u, [0, 3])
    assert len(tape) == 1


def test_self_attend_identical_rows_are_fixed_point():
    row = np.array([0.3, -1.2, 0.7, 2.0])
    u = ad.Tensor(np.tile(row, (5, 1)))
    out = m.self_attend(u, [0, 5])
    assert np.allclose(out.data, u.data, atol=1e-12)


def test_self_attend_hand_derived_two_by_two():
    u = ad.Tensor([[2.0, 0.0], [0.0, 1.0]])
    f = ad.attention_scores(u.data)
    root2 = math.sqrt(2.0)
    assert np.allclose(f, np.array([[4.0, 0.0], [0.0, 1.0]]) / root2, atol=1e-15)
    out = m.self_attend(u, [0, 2]).data
    alpha = math.exp(4.0 / root2) / (math.exp(4.0 / root2) + 1.0)
    assert np.allclose(out[0], [2.0 * alpha, 1.0 - alpha], atol=1e-12)
    assert np.allclose(out[0], [1.8886, 0.0557], atol=1e-3)
    beta = math.exp(1.0 / root2) / (math.exp(1.0 / root2) + 1.0)
    assert np.allclose(out[1], [2.0 * (1.0 - beta), beta], atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 12))
def test_attention_weights_row_stochastic_property(seed, n):
    rng = np.random.default_rng(seed)
    u = rng.uniform(-3, 3, size=(n, 4))
    w = ad.attention_weights(ad.attention_scores(u))
    assert np.all(np.abs(w.sum(axis=1) - 1.0) < 1e-12)


def window_ids(vocab, texts):
    return [vocab.encode(pp.prepare(t)) for t in texts]


def forward_padded(ids, params, cfg, steps, dropout=None):
    """``model.head`` over the frozen padded encoder (``padded_lstm``).

    Each utterance's word vectors are padded to ``steps`` with random
    non-zero values.
    """
    x = np.random.default_rng(steps).normal(size=(len(ids), steps, cfg.embed_dim))
    for row, real in zip(x, ids):
        row[: len(real)] = params.embedding.weights.data[real]
    lstm = [params.tensors[f"lstm_{d}.{p}"].data for d in ("fwd", "bwd") for p in "wb"]
    no_grad = np.zeros((len(ids), cfg.sentence_dim))
    u, _ = padded_lstm.bilstm_max(x, [len(row) for row in ids], lstm, no_grad)
    return m.head(ad.Tensor(u), [0, len(ids)], params, cfg, dropout)


def test_forward_window_padding_invariance_bit_exact():
    cfg, vocab, params = tiny_setup()
    ids = window_ids(vocab, ["aa bb", "cc", "dd ee aa"])
    plain = m.forward_window(ids, params, cfg)
    assert plain.shape == (3, len(LABEL_ORDER))
    assert np.array_equal(plain.data, forward_padded(ids, params, cfg, 3).data)
    assert np.array_equal(plain.data, forward_padded(ids, params, cfg, 25).data)
    # Same seeds make even training-mode dropout line up.
    dropout = lambda: (0.3, ad.seeded_rng(4))
    t1 = m.head(m.encode_sentence(ids, params), [0, 3], params, cfg, dropout())
    t2 = forward_padded(ids, params, cfg, 25, dropout())
    assert np.array_equal(t1.data, t2.data)
    assert not np.array_equal(t1.data, plain.data)


def test_forward_window_permutation_equivariance():
    cfg, vocab, params = tiny_setup()
    texts = ["aa bb", "cc dd", "ee", "aa cc ee"]
    ids = window_ids(vocab, texts)
    base = m.forward_window(ids, params, cfg).data
    perm = [2, 0, 3, 1]
    shuffled = m.forward_window([ids[i] for i in perm], params, cfg).data
    assert np.allclose(shuffled, base[perm], atol=1e-12)


def test_bilstm_rows_independent_and_match_sa_on_singleton():
    cfg, vocab, params = tiny_setup(variant="bilstm")
    ids = window_ids(vocab, ["aa bb", "cc"])
    swapped = window_ids(vocab, ["aa bb", "dd ee"])
    a = m.forward_window(ids, params, cfg).data
    b = m.forward_window(swapped, params, cfg).data
    assert np.array_equal(a[0], b[0])  # row 0 blind to the other utterance
    sa_cfg = tiny_cfg(variant="sa-bilstm")
    single = window_ids(vocab, ["aa bb"])
    assert np.array_equal(
        m.forward_window(single, params, cfg).data,
        m.forward_window(single, params, sa_cfg).data,
    )


def test_sa_variant_actually_mixes_rows():
    cfg, vocab, params = tiny_setup()
    ids = window_ids(vocab, ["aa bb", "cc"])
    swapped = window_ids(vocab, ["aa bb", "dd ee"])
    a = m.forward_window(ids, params, cfg).data
    b = m.forward_window(swapped, params, cfg).data
    assert not np.array_equal(a[0], b[0])


def test_classify_rejects_vectors_and_handles_empty_stack():
    _, _, params = tiny_setup()
    with pytest.raises(ValueError):
        m.classify(ad.Tensor(np.zeros(6)), params)
    cfg2, _, params2 = tiny_setup(fc_dims=())
    x = ad.Tensor(np.random.default_rng(0).normal(size=(2, cfg2.sentence_dim)))
    assert m.classify(x, params2).shape == (2, len(LABEL_ORDER))


def test_forward_window_validates_shape():
    cfg, vocab, params = tiny_setup()
    ids = window_ids(vocab, ["aa"] * 5)
    with pytest.raises(ValueError):
        m.forward_window(ids, params, cfg)  # 5 > window_size 4
    with pytest.raises(ValueError):
        m.forward_window([[]], params, cfg)


def test_forward_window_end_to_end_gradients_match_fd():
    cfg, vocab, params = tiny_setup()
    ids = window_ids(vocab, ["aa bb", "cc dd", "ee"])
    gold = [0, 1, 3]
    weights = [1.0, 1.0, 0.0]

    def f():
        logits = m.forward_window(ids, params, cfg)
        return ad.weighted_nll(logits, gold, weights)

    tensors = list(params.named_tensors().values())
    err = ad.grad_check(f, tensors)
    assert err < 1e-5
