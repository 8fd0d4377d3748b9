import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dialoglow import autodiff as ad
from helpers import project


# Independent oracle: plain central differences, no reuse of ad.grad_check.
def fd_grad(f, t, eps=1e-5):
    out = np.zeros(t.data.shape)
    coords = list(np.ndindex(*t.data.shape)) if t.data.ndim else [()]
    for idx in coords:
        orig = t.data[idx]
        t.data[idx] = orig + eps
        hi = float(f().data)
        t.data[idx] = orig - eps
        lo = float(f().data)
        t.data[idx] = orig
        out[idx] = (hi - lo) / (2.0 * eps)
    return out


def rel_err(a, b, floor=1e-3):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    num = np.abs(a - b)
    den = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((num / den).max())


def rand(rng, *shape, lo=-2.0, hi=2.0, grad=True):
    return ad.Tensor(rng.uniform(lo, hi, size=shape), requires_grad=grad)


def random_projection(y, rng):
    # Random linear functional of the op output; makes the test directional.
    if y.ndim == 0:
        return project(y, rng.uniform(0.5, 1.5))
    return project(y, rng.uniform(-1.0, 1.0, size=y.shape))


def _case_affine2(rng):
    x, w, b = rand(rng, 3, 4), rand(rng, 4, 2), rand(rng, 2)
    return [x, w, b], lambda: ad.affine(x, w, b)


def _case_relu(rng):
    data = rng.uniform(0.2, 2.0, size=(4, 3)) * rng.choice([-1.0, 1.0], size=(4, 3))
    a = ad.Tensor(data, requires_grad=True)
    return [a], lambda: ad.relu(a)


def _case_concat0(rng):
    a, b = rand(rng, 2, 3), rand(rng, 4, 3)
    return [a, b], lambda: ad.concat([a, b])


def _case_concat1(rng):
    a, b = rand(rng, 3), rand(rng, 5)
    return [a, b], lambda: ad.concat([a, b])


def _case_gather(rng):
    a = rand(rng, 5, 3)
    return [a], lambda: ad.gather_rows(a, [1, 3, 1, 4])


def lstm_states(xs, w, b):
    # Hidden state after each step of one LSTM direction over (steps, d) inputs.
    hid = len(b) // 4
    h = c = np.zeros(hid)
    states = []
    for xt in xs:
        i, f, g, o = np.split(w @ np.concatenate([xt, h]) + b, 4)
        c = ad.sigmoid(f) * c + ad.sigmoid(i) * np.tanh(g)
        h = ad.sigmoid(o) * np.tanh(c)
        states.append(h)
    return np.array(states)


def _case_bilstm_max(rng):
    # Ragged rows laid back to back: the longest in the middle, one of a single step.
    x = rand(rng, 7, 2)
    fwd_w, fwd_b = rand(rng, 8, 4, lo=-1.0, hi=1.0), rand(rng, 8)
    bwd_w, bwd_b = rand(rng, 8, 4, lo=-1.0, hi=1.0), rand(rng, 8)
    params, lengths = [x, fwd_w, fwd_b, bwd_w, bwd_b], [2, 4, 1]
    # The max has a kink where two steps tie: keep the finite differences clear of it.
    for row, n in zip(np.split(x.data, np.cumsum(lengths)[:-1]), lengths):
        for w, b, xs in ((fwd_w, fwd_b, row), (bwd_w, bwd_b, row[::-1])):
            top = np.sort(lstm_states(xs, w.data, b.data), axis=0)
            assume(n == 1 or np.min(top[-1] - top[-2]) > 1e-3)
    return params, lambda: ad.bilstm_max(x, lengths, *params[1:])


def _case_self_attention(rng):
    # 1-4 rows: a one-row window is the identity, with weight exactly 1.
    a = rand(rng, int(rng.integers(1, 5)), int(rng.integers(1, 6)))
    return [a], lambda: ad.self_attention(a)


def _case_dropout_train(rng):
    a = rand(rng, 4, 4)
    # Fresh identically-seeded rng per call keeps the mask fixed, so the
    # finite-difference probes see a deterministic function.
    mk = lambda: np.random.Generator(np.random.Philox(key=123))
    return [a], lambda: ad.dropout(a, 0.4, mk())


def _case_weighted_nll(rng):
    logits = rand(rng, 4, 6)
    gold = rng.integers(0, 6, size=4)
    w = np.array([1.0, 0.0, 0.5, 2.0])
    return [logits], lambda: ad.weighted_nll(logits, gold, w)


PRIMITIVE_CASES = [
    _case_affine2,
    _case_relu,
    _case_concat0,
    _case_concat1,
    _case_gather,
    _case_bilstm_max,
    _case_self_attention,
    _case_dropout_train,
    _case_weighted_nll,
]


@pytest.mark.parametrize("case", PRIMITIVE_CASES, ids=lambda c: c.__name__[6:])
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_primitive_gradient_matches_central_difference(case, seed):
    rng = np.random.default_rng(seed)
    params, op = case(rng)
    loss_fn = lambda: random_projection(op(), np.random.default_rng(seed + 1))
    with ad.Tape() as tape:
        loss = loss_fn()
    grads = ad.backward(tape, loss)
    for p in params:
        got = grads.get(p, np.zeros(p.data.shape))
        want = fd_grad(loss_fn, p)
        assert rel_err(got, want) < 1e-6


def composed_self_attention(ud, g):
    """Frozen plain-numpy copy of the five taped ops ``self_attention`` replaced.

    Forward: transpose, matmul, scale, softmax, matmul. Backward: their rules
    in reverse tape order, u's three gradients summed as ``backward`` did.
    """
    t = ud.T
    c = float(1.0 / math.sqrt(ud.shape[1]))
    scores = (ud @ t) * c
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    out = p @ ud
    dp, du = g @ ud.T, p.T @ g  # matmul(p, u)
    ds = p * (dp - np.sum(dp * p, axis=1, keepdims=True))  # softmax
    ds = ds * c  # scale
    du, dt = du + ds @ t.T, ud.T @ ds  # matmul(u, t)
    du = du + dt.T  # transpose
    return out, du


@pytest.mark.parametrize("width", [1, 2, 7, 39, 512])
def test_self_attention_equals_the_composed_chain_bit_for_bit(width):
    rng = np.random.default_rng(width)
    for n in range(1, 26):
        u = ad.Tensor(rng.uniform(-1.0, 1.0, size=(n, width)), requires_grad=True)
        g = rng.normal(size=(n, width))
        with ad.Tape() as tape:
            out = ad.self_attention(u)
            loss = project(out, g)
        assert len(tape) == 2  # the op and the projection
        want_out, want_du = composed_self_attention(u.data, g)
        assert np.array_equal(out.data, want_out)
        assert np.array_equal(ad.backward(tape, loss)[u], want_du)


def test_tensor_is_float64_and_scalar_item():
    t = ad.Tensor([[1, 2], [3, 4]])
    assert t.data.dtype == np.float64
    assert not t.requires_grad
    assert ad.Tensor(3.5).shape == ()


def test_shape_mismatch_errors_name_both_shapes():
    a = ad.Tensor(np.zeros((3, 4)))
    b = ad.Tensor(np.zeros((2, 4)))
    with pytest.raises(ValueError) as err:
        ad.affine(a, b, ad.Tensor(np.zeros(4)))
    assert "(3, 4)" in str(err.value) and "(2, 4)" in str(err.value)
    with pytest.raises(ValueError) as err:
        ad.affine(ad.Tensor(np.zeros((2, 3))), a, ad.Tensor(np.zeros((5, 2))))
    assert "(3, 4)" in str(err.value) and "(5, 2)" in str(err.value)


def test_backward_requires_scalar_loss_on_tape():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    with ad.Tape() as tape:
        y = ad.relu(x)
    with pytest.raises(ValueError):
        ad.backward(tape, y)
    off_tape = ad.Tensor(0.0)
    with pytest.raises(ValueError):
        ad.backward(tape, off_tape)


def test_fanout_gradients_accumulate():
    x = ad.Tensor([[-2.0]], requires_grad=True)
    zero = ad.Tensor([0.0])
    square = lambda: ad.affine(x, x, zero)  # x is the input and the weight: x**2
    with ad.Tape() as tape:
        s = square()
        loss = project(ad.concat([s, s]), np.ones((2, 1)))
    grads = ad.backward(tape, loss)
    assert np.allclose(grads[x], 4.0 * x.data, atol=1e-12)
    want = fd_grad(lambda: project(ad.concat([square(), square()]), np.ones((2, 1))), x)
    assert rel_err(grads[x], want) < 1e-6


def test_constant_leaves_get_no_gradient():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    c = ad.Tensor([3.0, 4.0])
    with ad.Tape() as tape:
        loss = project(ad.concat([x, c]), [1.0, 2.0, 3.0, 4.0])
    grads = ad.backward(tape, loss)
    assert x in grads
    assert c not in grads


def test_an_output_of_one_tape_is_a_leaf_under_the_next():
    x = ad.Tensor([[1.0, -2.0]], requires_grad=True)
    with ad.Tape():
        h = ad.relu(x)
    assert h.requires_grad
    with ad.Tape() as tape:
        loss = project(h, [[3.0, 4.0]])
    assert len(tape) == 1
    grads = ad.backward(tape, loss)
    assert np.array_equal(grads[h], [[3.0, 4.0]])
    assert x not in grads  # the first tape's rule is not replayed
    assert not ad.relu(x).requires_grad  # no tape open: nothing recorded


def test_max_over_time_routes_to_first_argmax():
    # Zero weights make every gate a constant of its bias, and a forget bias
    # of -1000 makes f exactly 0.0: every real step then has the same hidden
    # state, so each maximum is an exact tie. With f = 0 and w_h = 0 only the
    # step taking the gradient reaches the input half of the weight gradient.
    hid, d = 2, 3
    b = np.repeat([0.4, -1000.0, 0.9, 0.2], hid)
    x = np.random.default_rng(2).normal(size=(2, 4, d))  # two rows of up to four steps
    r = np.random.default_rng(3).uniform(0.5, 1.5, size=(2, 2 * hid))

    def pooled(x, lengths):
        params = []
        for _ in range(2):
            params += [ad.Tensor(np.zeros((4 * hid, d + hid)), requires_grad=True),
                       ad.Tensor(b, requires_grad=True)]
        with ad.Tape() as tape:
            u = ad.bilstm_max(ad.Tensor(x), lengths, *params)
            loss = project(u, r)
        grads = ad.backward(tape, loss)
        return u.data, [grads[p] for p in params]

    u, (dw_fwd, db_fwd, dw_bwd, db_bwd) = pooled(np.concatenate([x[0], x[1, :2]]), [4, 2])
    # The same rows cut to their first step in time: no tie left to break.
    u_first, (first_dw_fwd, first_db_fwd, first_dw_bwd, first_db_bwd) = pooled(x[:, 0], [1, 1])
    assert np.array_equal(u, u_first)
    assert np.array_equal(db_fwd, first_db_fwd) and np.array_equal(db_bwd, first_db_bwd)
    # The weight-gradient GEMM sums over every step, zeros included, so its
    # rounding may differ by an ulp; another step's x would differ by O(1).
    assert np.allclose(dw_fwd[:, :d], first_dw_fwd[:, :d], rtol=1e-12, atol=0.0)
    assert np.allclose(dw_bwd[:, :d], first_dw_bwd[:, :d], rtol=1e-12, atol=0.0)
    assert np.any(dw_fwd[:, :d] != 0.0) and np.any(dw_bwd[:, :d] != 0.0)


def test_max_over_time_rejects_empty_span():
    x = ad.Tensor(np.zeros((3, 2)))
    w, b = ad.Tensor(np.zeros((4, 3))), ad.Tensor(np.zeros(4))
    assert ad.bilstm_max(x, [1, 2], w, b, w, b).shape == (2, 2)
    with pytest.raises(ValueError, match="expected a 2-d tensor"):
        ad.bilstm_max(ad.Tensor(np.zeros((2, 3, 2))), [3, 3], w, b, w, b)
    for lengths in ([1, 0, 2], [1, 1], [1, 3], []):
        with pytest.raises(ValueError, match="positive lengths summing to 3"):
            ad.bilstm_max(x, lengths, w, b, w, b)


def test_softmax_known_values():
    out = ad.attention_weights(np.array([[0.0, np.log(2.0)]]))
    assert np.allclose(out, [[1.0 / 3.0, 2.0 / 3.0]], atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    shift=st.floats(-30.0, 30.0, allow_nan=False),
)
def test_softmax_shift_invariant(seed, shift):
    rng = np.random.default_rng(seed)
    scores = rng.uniform(-5, 5, size=(3, 7))
    base = ad.attention_weights(scores)
    moved = ad.attention_weights(scores + shift)
    assert np.allclose(base, moved, atol=1e-12)


def libm_sigmoid(x: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-800.0, 800.0), min_size=1, max_size=64))
def test_sigmoid_is_within_8_ulp_of_libm(xs):
    got = ad.sigmoid(np.array(xs))
    want = np.array([libm_sigmoid(x) for x in xs])
    # Both are non-negative, so their bit patterns order like their values.
    assert np.abs(got.view(np.int64) - want.view(np.int64)).max() <= 8


def test_sigmoid_exact_values_without_warnings():
    x = np.array([-np.inf, np.inf, 0.0, 1000.0, -1000.0, -745.0])
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        out = ad.sigmoid(x)
    assert out is x
    assert out.tolist() == [0.0, 1.0, 0.5, 1.0, 0.0, 0.0]


@pytest.mark.parametrize("hid", [1, 3, 8, 256])
def test_sigmoid_in_place_on_gate_blocks_equals_a_contiguous_copy(hid):
    # _pooled_lstm activates the (i, f) and o column blocks of each step's (m, 4h) rows.
    rng = np.random.default_rng(hid)
    for m in range(1, 41):
        a = rng.normal(0.0, 4.0, size=(m, 4 * hid))
        want = [ad.sigmoid(a[:, : 2 * hid].copy()), ad.sigmoid(a[:, 3 * hid :].copy())]
        ad.sigmoid(a[:, : 2 * hid])
        ad.sigmoid(a[:, 3 * hid :])
        assert np.array_equal(a[:, : 2 * hid], want[0])
        assert np.array_equal(a[:, 3 * hid :], want[1])


def test_dropout_eval_is_identity_and_train_scales():
    # A zero rate, which a run trained without dropout passes, is the
    # identity and draws nothing; inference does not call dropout at all.
    x = ad.Tensor(np.full((50, 40), 3.0))
    rng = ad.seeded_rng(11)
    assert ad.dropout(x, 0.0, rng) is x
    assert rng.random() == ad.seeded_rng(11).random()
    out = ad.dropout(x, 0.3, rng).data
    kept = out != 0.0
    assert np.allclose(out[kept], 3.0 / 0.7, atol=1e-12)
    assert 0.55 < kept.mean() < 0.8


def test_dropout_empirical_mean_preserved():
    n = 100_000
    x = ad.Tensor(np.ones(n))
    out = ad.dropout(x, 0.3, ad.seeded_rng(5)).data
    assert abs(out.mean() - 1.0) < 0.01


def test_dropout_rejects_bad_p_and_missing_rng():
    x = ad.Tensor(np.ones(3))
    with pytest.raises(ValueError):
        ad.dropout(x, 1.0, ad.seeded_rng(0))
    with pytest.raises(TypeError):
        ad.dropout(x, 0.5)


def test_weighted_nll_all_zero_weights_is_constant_zero():
    logits = ad.Tensor(np.random.default_rng(3).normal(size=(4, 8)), requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.weighted_nll(logits, [0, 1, 2, 3], np.zeros(4))
    assert float(loss.data) == 0.0
    assert len(tape) == 0


def test_grad_check_accepts_smooth_function():
    rng = np.random.default_rng(0)
    w = ad.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    x = ad.Tensor(rng.normal(size=(3, 2)))
    r = rng.normal(size=(3, 2))
    zero = ad.Tensor(np.zeros(2))
    f = lambda: project(ad.self_attention(ad.affine(w, x, zero)), r)
    assert ad.grad_check(f, [w]) < 1e-6


def test_grad_check_linear_function_near_machine_epsilon():
    w = ad.Tensor([0.3, -1.2, 2.0], requires_grad=True)
    c = [1.0, 2.0, -0.5]
    f = lambda: project(w, c)
    assert ad.grad_check(f, [w]) < 1e-9


def test_grad_check_rejects_training_dropout():
    x = ad.Tensor(np.ones(64), requires_grad=True)
    rng = ad.seeded_rng(2)
    f = lambda: project(ad.dropout(x, 0.5, rng), np.ones(64))
    with pytest.raises(ValueError):
        ad.grad_check(f, [x])


def test_grad_check_flags_wrong_gradient():
    # A deliberately broken op: forward x**2 but backward pretending 3x.
    x = ad.Tensor([1.0, 2.0], requires_grad=True)

    def broken():
        y = ad._out(x.data * x.data, (x,), lambda g: (3.0 * x.data * g,))
        return project(y, np.ones(2))

    assert ad.grad_check(broken, [x]) > 0.2


@pytest.mark.parametrize(
    "x, w0", [(1e10, 1e300), (np.finfo(np.float64).max, 1.0)], ids=["at-the-point", "perturbed"]
)
def test_grad_check_names_the_op_whose_forward_pass_overflows(x, w0):
    # x * w overflows at the point, or, for the largest float times 1.0, only
    # once grad_check perturbs w up by eps.
    w = ad.Tensor([[w0]], requires_grad=True)
    f = lambda: project(ad.affine(ad.Tensor([[x]]), w, ad.Tensor([0.0])), [[1.0]])
    with np.errstate(over="ignore"), pytest.raises(
        FloatingPointError, match="^affine produced a non-finite value$"
    ):
        ad.grad_check(f, [w])


def test_seeded_rng_reproducible_and_streams_distinct():
    a = ad.seeded_rng(42).random(5)
    b = ad.seeded_rng(42).random(5)
    c = ad.seeded_rng(42, stream=1).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("ids", [[], [[0, 2], [2, 0]], 1], ids=["empty", "2-d", "scalar"])
def test_gather_rows_takes_only_a_non_empty_1d_index_array(ids):
    with pytest.raises(ValueError, match="non-empty 1-d index array"):
        ad.gather_rows(ad.Tensor(np.zeros((4, 3))), ids)


def test_gather_rows_gradient_over_two_lookups_equals_a_dense_scatter_add():
    rng = np.random.default_rng(4)
    table = ad.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    ids1, ids2 = np.array([[1, 3, 1], [0, 5, 3]]), np.array([4, 1, 1, 0])
    r1, r2 = rng.normal(size=(2, 3, 3)), rng.normal(size=(4, 3))
    with ad.Tape() as tape:
        a = ad.gather_rows(table, ids1.reshape(-1))
        b = ad.gather_rows(table, ids2)
        loss = project(ad.concat([a, b]), np.concatenate([r1.reshape(-1, 3), r2]))
    got = ad.backward(tape, loss)[table]
    assert isinstance(got, ad.RowGrad)
    assert got.ids.tolist() == [0, 1, 3, 4, 5]  # sorted, distinct
    # Oracle: the dense scatter-add per lookup, summed in backward's order
    # (the later lookup's gradient arrives first).
    dense = []
    for ids, r in ((ids1, r1), (ids2, r2)):
        d = np.zeros((6, 3))
        np.add.at(d, ids, r)
        dense.append(d)
    assert np.array_equal(np.asarray(got), dense[1] + dense[0])


def test_finite_check_names_the_op():
    u = ad.Tensor([[np.inf, 0.0], [1.0, 2.0]])  # row 0 scores inf twice; inf - inf is NaN
    with np.errstate(invalid="ignore"):
        with pytest.raises(FloatingPointError, match="^self_attention produced a non-finite value"):
            ad.self_attention(u)
        # The encoder is one op: a NaN anywhere in a row's input makes its vector NaN.
        x = np.zeros((5, 2))
        x[3, 1] = np.nan  # the first step of the second row
        w, b = ad.Tensor(np.full((4, 3), 0.5)), ad.Tensor(np.zeros(4))
        assert np.all(np.isfinite(ad.bilstm_max(ad.Tensor(x[:3]), [3], w, b, w, b).data))
        with pytest.raises(FloatingPointError, match="^bilstm_max produced a non-finite value"):
            ad.bilstm_max(ad.Tensor(x), [3, 2], w, b, w, b)


def full_size_window(seed):
    # ModelConfig's shapes (d=300, h=256) on one ragged window of 15 utterances.
    rng = np.random.default_rng(seed)
    lengths = np.maximum(1, rng.poisson(11, size=15))
    x = ad.Tensor(rng.normal(scale=0.5, size=(lengths.sum(), 300)), requires_grad=True)
    params = [ad.Tensor(rng.uniform(-0.1, 0.1, size=shape), requires_grad=True)
              for shape in ((1024, 556), (1024,)) * 2]
    return x, lengths.tolist(), params, rng.normal(size=(15, 512))


def bilstm_max_and_grads(x, lengths, params, r):
    with ad.Tape() as tape:
        loss = project(ad.bilstm_max(x, lengths, *params), r)
    grads = ad.backward(tape, loss)
    return tape._records[0][0].data, [grads[t] for t in (x, *params)]


def directions_on_threads(monkeypatch):
    # Each _pooled_lstm forward and BPTT run as (pass, reverse, thread name);
    # reverse marks the backward direction.
    runs, pooled = [], ad._pooled_lstm

    def spy(xp, sizes, w, b, reverse):
        u, rule = pooled(xp, sizes, w, b, reverse)

        def spy_rule(g):
            runs.append(("bptt", reverse, threading.current_thread().name))
            return rule(g)

        runs.append(("forward", reverse, threading.current_thread().name))
        return u, spy_rule

    monkeypatch.setattr(ad, "_pooled_lstm", spy)
    return runs


def set_cpus_and_blas_threads(monkeypatch, cpus, blas_threads):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    if blas_threads is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(blas_threads))


def test_bilstm_max_threaded_equals_two_serial_directions(monkeypatch):
    set_cpus_and_blas_threads(monkeypatch, {0, 1}, blas_threads=1)
    x, lengths, params, r = full_size_window(seed=5)
    # Oracle: the two directions called one after the other on this thread.
    order, sizes, at = ad._pack(np.asarray(lengths))
    xp, g = x.data[at], r[order]
    u_fwd, fwd_rule = ad._pooled_lstm(xp, sizes, params[0].data, params[1].data, False)
    u_bwd, bwd_rule = ad._pooled_lstm(xp, sizes, params[2].data, params[3].data, True)
    dx_fwd, dw_fwd, db_fwd = fwd_rule(g[:, :256])
    dx_bwd, dw_bwd, db_bwd = bwd_rule(g[:, 256:])
    dx = np.empty(x.shape)
    dx[at] = dx_fwd + dx_bwd
    want = [dx, dw_fwd, db_fwd, dw_bwd, db_bwd]

    runs = directions_on_threads(monkeypatch)
    u, grads = bilstm_max_and_grads(x, lengths, params, r)
    threads = {(kind, reverse): name for kind, reverse, name in runs}
    main = threading.current_thread().name
    assert len(runs) == 4 and threads["forward", False] == threads["bptt", False] == main
    assert threads["forward", True] == threads["bptt", True] != main
    assert [t.name for t in threading.enumerate()].count(threads["bptt", True]) == 1
    assert np.array_equal(u[order], np.concatenate([u_fwd, u_bwd], axis=1))
    for got, expected in zip(grads, want):
        assert np.array_equal(got, expected)


@pytest.mark.parametrize(
    "cpus, blas_threads, full_size",
    [({0}, 1, True), ({0, 1}, None, True), ({0, 1, 2}, 2, True), ({0, 1}, 1, False)],
    ids=["one_cpu", "default_blas_threads", "blas_threads_fill_cpus", "small"],
)
def test_bilstm_max_stays_serial_without_spare_cores_or_big_weights(
    monkeypatch, cpus, blas_threads, full_size
):
    set_cpus_and_blas_threads(monkeypatch, cpus, blas_threads)
    monkeypatch.setattr(ad, "_POOL", None)  # any use of the pool would raise
    runs = directions_on_threads(monkeypatch)
    if full_size:
        x, lengths, params, r = full_size_window(seed=6)
    else:
        rng = np.random.default_rng(6)
        x, lengths = rand(rng, 11, 8), [5, 2, 1, 3]
        params, r = [rand(rng, 64, 24), rand(rng, 64)] * 2, rng.normal(size=(4, 32))
    assert (params[0].data.size < ad.PARALLEL_MIN_WEIGHTS) != full_size
    bilstm_max_and_grads(x, lengths, params, r)
    assert len(runs) == 4 and {name for *_, name in runs} == {threading.current_thread().name}


def test_worker_thread_runs_under_the_callers_numpy_error_state():
    # numpy keeps its error state per thread; the CLI sets it on the calling one.
    def overflow():
        return np.array([1e308]) * 10.0

    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        ad._both(True, lambda: None, overflow)
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ad._both(True, lambda: None, overflow)[1][0] == np.inf


def test_forked_child_finishes_a_threaded_bilstm_max(monkeypatch):
    set_cpus_and_blas_threads(monkeypatch, {0, 1}, blas_threads=1)
    x, lengths, params, r = full_size_window(seed=7)
    u, grads = bilstm_max_and_grads(x, lengths, params, r)
    parent_pool = ad._POOL
    with warnings.catch_warnings():
        # Python 3.12+ warns about forking a process that runs threads.
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:  # the child: never return into pytest
        code = 1
        try:
            assert ad._POOL is not parent_pool
            u_child, grads_child = bilstm_max_and_grads(x, lengths, params, r)
            assert np.array_equal(u_child, u)
            assert all(np.array_equal(a, b) for a, b in zip(grads_child, grads))
            code = 0
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's bilstm_max did not finish within 60 s")
    assert os.waitstatus_to_exitcode(done[1]) == 0


def run_with_blas_threads(threads, check):
    # OpenBLAS takes its thread count when numpy loads it, so a check that
    # needs a given count runs in a child process of its own.
    src = str(Path(ad.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("OMP_NUM_THREADS", None)
    script = Path(__file__).with_name("blas_thread_checks.py")
    done = subprocess.run([sys.executable, str(script), check], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr


def test_packed_bilstm_max_matches_the_padded_encoder_under_one_blas_thread():
    run_with_blas_threads(1, "oracle")


def test_packed_bilstm_max_matches_the_padded_encoder_under_two_blas_threads():
    run_with_blas_threads(2, "two_threads")


@pytest.mark.parametrize("threads", [1, 2])
def test_bptt_in_the_forward_buffers_equals_the_frozen_separate_buffer_rule(threads):
    run_with_blas_threads(threads, "frozen_rule")


def test_bptt_allocates_only_its_outputs_and_one_input_buffer():
    # A dialogue-shaped full-size batch. Besides dx, dw and db, each
    # direction's rule may allocate the (tokens, d + h) [x_t, h_prev] array
    # and a margin of eight (n, h) arrays for its carries and per-step
    # temporaries (about four are live at once). The rule that kept buffers
    # of its own also allocated a (tokens, 4h) gate-gradient array, two
    # (tokens, h) arrays and a (steps, n, h) one: 2.6 MB more here.
    x, lengths, params, r = full_size_window(seed=5)
    order, sizes, at = ad._pack(np.asarray(lengths))
    xp, n, hid = x.data[at], len(lengths), 256
    for reverse in (False, True):
        w, b = params[2 * reverse].data, params[2 * reverse + 1].data
        _, rule = ad._pooled_lstm(xp, sizes, w, b, reverse)
        g = np.ascontiguousarray(r[order][:, hid * reverse : hid * (reverse + 1)])
        tracemalloc.start()
        try:
            out = rule(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        allowed = sum(a.nbytes for a in out) + len(xp) * (x.shape[1] + hid) * 8 + 8 * n * hid * 8
        assert peak < allowed, f"BPTT peaked at {peak} bytes, {peak - allowed} past {allowed}"
