"""Dense float64 tensors with taped reverse-mode differentiation.

Only the operations the dialogue model records are provided. Two are whole
layers: ``bilstm_max`` takes utterances' token vectors back to back, packs them
step by step with the rows sorted longest first, runs both LSTM directions
over them and max-pools them; ``self_attention`` mixes a window's rows by
scaled dot-product weights. Every op runs on plain numpy arrays; while a
tape is open, ops that touch a gradient-bearing tensor append a backward rule
to it, and ``backward`` replays the tape in reverse. Creation order is already
topological, so no sorting is needed and every rule fires at most once;
``bilstm_max``'s rule relies on that, as it consumes its forward's buffers.

``bilstm_max`` is the only op that uses a second thread. When its weights
are large enough (PARALLEL_MIN_WEIGHTS) and the usable CPUs hold both
directions' BLAS threads (set by OPENBLAS_NUM_THREADS or OMP_NUM_THREADS),
the backward direction runs on one worker thread while the calling thread
runs the forward one, in the forward pass and in BPTT alike; numpy
releases the GIL inside its GEMMs and large loops, so they overlap.
Each direction writes only its own arrays, so the results are bit-identical
to running them one after the other, which is what happens otherwise.

The LSTM gates use ``sigmoid``, an in-place numpy ``1/(1+exp(-x))``. It is
the formula scipy's ``expit`` evaluates, kept in numpy because importing
``scipy.special`` cost every process 0.2-0.3 s and about 18 MB of peak RSS
(2-core x86-64 VM); numpy's vectorised ``exp`` may differ from libm's by a
few ulp, so a gate can differ from ``expit``'s in its last bits.
"""
from __future__ import annotations

import itertools
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence

import numpy as np


class Tensor:
    """A dense float64 array plus a flag marking it as a trainable leaf."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim


# One record per differentiable op: the output tensor, its input tensors,
# and a rule mapping d(loss)/d(output) to per-input gradient arrays.
_BackwardRule = Callable[[np.ndarray], Sequence["np.ndarray | RowGrad"]]


class Tape:
    """Ordered record of the ops whose outputs require grad; used as ``with Tape() as tape: ...``."""

    __slots__ = ("_records",)

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], _BackwardRule]] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        _TAPE_STACK.pop()
        return False

    def __len__(self) -> int:
        # perfbench/spans.py reads a step's op count through this (autodiff.tape_ops).
        return len(self._records)


_TAPE_STACK: list[Tape] = []


def _out(data: np.ndarray, parents: tuple[Tensor, ...], rule: _BackwardRule) -> Tensor:
    """Wrap an op result; while a tape is open and a parent requires grad, record
    the op on the innermost tape and mark the result as requiring grad.

    FloatingPointError, naming the op, if the result holds a non-finite value.
    """
    if not np.all(np.isfinite(data)):
        # Every op calls _out directly, so the calling frame is the primitive's own.
        raise FloatingPointError(f"{sys._getframe(1).f_code.co_name} produced a non-finite value")
    out = Tensor(data)
    if _TAPE_STACK and any(p.requires_grad for p in parents):
        _TAPE_STACK[-1]._records.append((out, parents, rule))
        out.requires_grad = True
    return out


def _require_shape(name: str, got: tuple[int, ...], want_ndim: int) -> None:
    if len(got) != want_ndim:
        raise ValueError(f"{name}: expected a {want_ndim}-d tensor, got shape {got}")


# ---------------------------------------------------------------------------
# elementwise and linear-algebra primitives


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` with x (rows, in), w (in, out), b (out,)."""
    xd, wd, bd = x.data, w.data, b.data
    if wd.ndim != 2 or bd.ndim != 1 or wd.shape[1] != bd.shape[0]:
        raise ValueError(f"affine: weight {wd.shape} and bias {bd.shape} disagree")
    if xd.ndim != 2 or xd.shape[1] != wd.shape[0]:
        raise ValueError(f"affine: input {xd.shape} vs weight {wd.shape}")
    return _out(
        xd @ wd + bd,
        (x, w, b),
        lambda g: (g @ wd.T, xd.T @ g, g.sum(axis=0)),
    )


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0
    return _out(a.data * mask, (a,), lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# structural primitives


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Join tensors of one rank along their first axis."""
    parts = tuple(parts)
    if not parts:
        raise ValueError("concat: need at least one tensor")
    if parts[0].ndim == 0 or any(p.ndim != parts[0].ndim for p in parts):
        raise ValueError(f"concat: need tensors of one rank >= 1, got {[p.shape for p in parts]}")
    splits = np.cumsum([p.shape[0] for p in parts])[:-1]
    return _out(np.concatenate([p.data for p in parts]), parts, lambda g: np.split(g, splits))


class RowGrad:
    """Gradient of a matrix that is zero outside a few rows.

    ``ids`` are sorted, unique row ids and ``rows[i]`` is the gradient of row
    ``ids[i]``. ``np.asarray`` gives the dense matrix. Adding two RowGrads
    merges them row by row; multiplying by a scalar scales the rows.
    """

    __slots__ = ("shape", "ids", "rows")

    def __init__(self, shape: tuple[int, int], ids: np.ndarray, rows: np.ndarray):
        self.shape, self.ids, self.rows = shape, ids, rows

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = np.zeros(self.shape, dtype=dtype)
        out[self.ids] = self.rows
        return out

    def __add__(self, other: "RowGrad") -> "RowGrad":
        ids = np.union1d(self.ids, other.ids)
        rows = np.zeros((len(ids), self.shape[1]))
        rows[np.searchsorted(ids, self.ids)] = self.rows
        rows[np.searchsorted(ids, other.ids)] += other.rows
        return RowGrad(self.shape, ids, rows)

    def __mul__(self, c: float) -> "RowGrad":
        return RowGrad(self.shape, self.ids, self.rows * c)


def gather_rows(a: Tensor, ids) -> Tensor:
    """Select rows of a matrix by a 1-d index array; gradient scatter-adds back.

    The result has shape ``(len(ids), a.shape[1])`` and the gradient is a
    RowGrad over the distinct ids, so every row looked up receives gradient.
    A row that must stay fixed (like an all-zero padding row) must not be
    among ``ids``; EmbeddingTable.lookup refuses the pad id.
    """
    _require_shape("gather_rows", a.shape, 2)
    idx = np.asarray(ids, dtype=np.intp)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("gather_rows: ids must be a non-empty 1-d index array")
    if idx.min() < 0 or idx.max() >= a.shape[0]:
        raise ValueError(f"gather_rows: ids out of range for shape {a.shape}")
    shape = a.shape

    def rule(g):
        row_ids, slot = np.unique(idx, return_inverse=True)
        rows = np.zeros((len(row_ids), shape[1]))
        # Each row sums its occurrences in index order, as a dense scatter-add would.
        np.add.at(rows, slot, g)
        return (RowGrad(shape, row_ids, rows),)

    return _out(a.data[idx], (a,), rule)


# ---------------------------------------------------------------------------
# model-specific primitives


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``, with a one-row ``a`` stepped alongside a discarded copy of its row.

    OpenBLAS sends a one-row product to its matrix-vector kernel, which rounds
    differently from the same row inside a product of two or more rows. On a
    2-core x86-64 VM with one OpenBLAS thread (0.3.31), the forward products
    at ModelConfig's sizes, with 300 and 256 inputs per entry, gave a row the
    same bits in products of 2 to 64 rows, so a sentence vector does not
    depend on the batch it is encoded in. BPTT's products, with 1024 inputs
    per entry, rounded a row differently at some row counts.
    """
    if len(a) == 1:
        return (np.concatenate([a, a]) @ b)[:1]
    return a @ b


def _pack(lengths: np.ndarray):
    """The packed layout of rows laid back to back: rows sorted longest first, then time-major.

    Returns ``order``, the caller's row of each sorted row (a stable sort);
    ``sizes``, the number of live rows per step, which never grows, since step
    s holds the sorted rows ``[:sizes[s]]``; and, for every packed position,
    the row of the back-to-back input it holds.
    """
    order = np.argsort(-lengths, kind="stable")
    live = lengths[order] > np.arange(lengths.max())[:, None]  # (steps, n)
    steps, ranks = np.nonzero(live)
    starts = np.cumsum(lengths) - lengths
    return order, live.sum(axis=1), starts[order[ranks]] + steps


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Overwrite x with 1/(1+exp(-x)) and return it.

    Saturated inputs give exactly 0.0 (below about -709.8, where exp(-x)
    overflows, and at -inf) and 1.0, with no floating-point warning.
    """
    with np.errstate(over="ignore", under="ignore"):
        np.negative(x, out=x)
        np.exp(x, out=x)
        x += 1.0
        np.reciprocal(x, out=x)
    return x


def _pooled_lstm(xp: np.ndarray, sizes: np.ndarray, w: np.ndarray, b: np.ndarray, reverse: bool):
    """One LSTM direction over a packed batch, max-pooled over each row's steps.

    ``xp`` is (tokens, d): the steps of n rows sorted longest first, laid
    out step by step, each step a block of its ``sizes[s]`` live rows, which
    are a prefix of the rows (see ``_pack``). ``reverse`` walks from the last
    step down; a row then joins when the walk reaches its last step, from the
    zero state. Only live rows are computed: the input projection is one GEMM
    over the tokens and each step's recurrent GEMM covers the rows that
    carry a state over from the step before. The gates are computed in place,
    in the input projection's buffer. Returns the (n, h) maximum of the
    hidden state over each row's steps, in sorted row order, and the BPTT
    rule mapping its gradient to (d xp, d w, d b). Of tied steps, the first
    in time takes the gradient.

    Per token the forward keeps the gate activations, the cells and the
    hidden states, and no ``tanh(c)``: a step's ``tanh(c)`` goes to an
    (n, h) scratch array, and BPTT recomputes it from the cells. The rule
    consumes the forward's buffers, so it runs once, as ``backward`` runs
    every rule of a tape (``grad_check`` runs ``backward`` once per tape):
    it writes the gate gradients over the activations and the pooled
    gradient over the hidden states. Besides its outputs it allocates one
    (tokens, d + h) array, [x_t, h_prev] per token, the input of the
    weight gradient's single GEMM.
    """
    tokens, d = xp.shape
    n, hid = int(sizes[0]), b.shape[0] // 4
    w_x, w_h = w[:, :d], w[:, d:]
    w_hT = w_h.T
    # Step s is the block starts[s]:starts[s + 1] of every per-token array.
    starts = [0, *itertools.accumulate(sizes.tolist())]
    acts = _product(xp, w_x.T)  # pre-activations, turned into gate activations i, f, g, o
    acts += b
    cells, hs, tanh_c = np.empty((tokens, hid)), np.empty((tokens, hid)), np.empty((n, hid))
    u = np.empty((n, hid))
    u.fill(-np.inf)
    # (block start, live rows, block start of the step before in the walk,
    # rows carrying their state over from it); the other rows start at zero.
    walk, p, k = [], 0, 0
    for s in reversed(range(len(starts) - 1)) if reverse else range(len(starts) - 1):
        lo, hi = starts[s], starts[s + 1]
        m = hi - lo
        k = min(m, k)
        walk.append((lo, m, p, k))
        a = acts[lo:hi]
        if k:
            a[:k] += _product(hs[p : p + k], w_hT)
        sig, g, o = a[:, : 2 * hid], a[:, 2 * hid : 3 * hid], a[:, 3 * hid :]
        sigmoid(sig)
        np.tanh(g, out=g)
        sigmoid(o)
        c, tc, h = cells[lo:hi], tanh_c[:m], hs[lo:hi]
        np.multiply(sig[:, :hid], g, out=c)  # i * g
        if k:
            c[:k] += sig[:k, hid:] * cells[p : p + k]  # + f * c_prev
        np.tanh(c, out=tc)
        np.multiply(o, tc, out=h)
        np.maximum(u[:m], h, out=u[:m])
        p, k = lo, m

    def rule(gu):
        inputs = np.empty((tokens, d + hid))
        inputs[:, :d] = xp
        for lo, m, p, k in walk:
            inputs[lo : lo + k, d:] = hs[p : p + k]
            inputs[lo + k : lo + m, d:] = 0.0  # a row's first step starts from h = 0
        # Each maximum's packed position, the first in time of tied steps,
        # takes its gradient: hs becomes the pooled gradient of each token.
        pending = np.ones((n, hid), dtype=bool)
        for lo, hi in zip(starts, starts[1:]):
            at = hs[lo:hi] == u[: hi - lo]
            at &= pending[: hi - lo]
            pending[: hi - lo] ^= at
            hs[lo:hi] = 0.0
            np.copyto(hs[lo:hi], gu[: hi - lo], where=at)
        dh, dc, f_prev = np.zeros((n, hid)), np.zeros((n, hid)), np.empty((n, hid))
        for lo, m, p, k in reversed(walk):
            a, tc = acts[lo : lo + m], np.tanh(cells[lo : lo + m], out=tanh_c[:m])
            i, f, g, o = (a[:, j * hid : (j + 1) * hid] for j in range(4))
            dh[:m] += hs[lo : lo + m]
            dc[:m] += dh[:m] * o * (1.0 - tc * tc)
            # Each gate's gradient overwrites its activation after the last read of it.
            o[:] = dh[:m] * tc * o * (1.0 - o)
            f_prev[:k] = f[:k]  # the forget gates that carry dc to the step before
            f[:k] = dc[:k] * cells[p : p + k] * f[:k] * (1.0 - f[:k])
            f[k:] = 0.0  # a row's first step starts from c = 0
            di = dc[:m] * g * i * (1.0 - i)
            g[:] = dc[:m] * i * (1.0 - g * g)
            i[:] = di
            if k:
                dh[:k] = _product(a[:k], w_h)
                dc[:k] *= f_prev[:k]
        return _product(acts, w_x), acts.T @ inputs, acts.sum(axis=0)

    return u, rule


# The directions overlap only while numpy runs without the GIL, mostly in each
# step's recurrent GEMM, whose time grows with the weight matrix. Below this
# many weight entries per direction, 4h * (d + h), the GEMMs are too short and
# the second thread mostly waits for the GIL. Forward + BPTT time, parallel
# over serial, on a 2-core x86-64 VM with one OpenBLAS thread: h=256 (as in
# ModelConfig, 569k entries) 0.58-0.74 for 1-16 rows of 2-19 steps; h=128
# 0.87-1.05; h=8-64 with d <= 64 1.3-2.0, except 0.86 at h=64 with 64 rows.
# The value was chosen to keep the tests' tiny models and the gradient checks
# serial. h=128 with d=300 (219k entries) falls below it and stays serial;
# that size is not measured end to end, as no benchmark workload uses it.
PARALLEL_MIN_WEIGHTS = 1 << 18


def _new_pool() -> None:
    # One worker, started on the first submit: the calling thread runs the
    # forward direction, the worker the backward one, so at most two threads
    # compute. An op that stays serial never submits, so starts no thread.
    global _POOL
    _POOL = ThreadPoolExecutor(max_workers=1, thread_name_prefix="dialoglow-bilstm")


_new_pool()
# A forked child inherits the executor but not its thread, and work queued on
# it would wait forever: the child gets a pool of its own.
os.register_at_fork(after_in_child=_new_pool)


def _submit(fn: Callable, *args):
    """``_POOL.submit(fn, *args)``, run under the caller's numpy error state,
    which numpy keeps per thread."""
    err = np.geterr()

    def run():
        with np.errstate(**err):
            return fn(*args)

    return _POOL.submit(run)


def _cores_for_both_directions() -> bool:
    """Whether the two directions' BLAS threads fit on the usable CPUs.

    OpenBLAS, numpy's usual BLAS, takes its thread count from these variables
    in this order, and with neither set starts one thread per usable CPU,
    which leaves no core for a second caller. On a 2-core x86-64 VM, a
    full-size ``dialoglow train`` (60 dialogues, 2 epochs) plus ``predict`` took
    16.6-18.6 s and 2.5-2.8 s with both directions at once on the default two
    OpenBLAS threads, against 15.8-16.2 s and 2.0-2.4 s one after the other;
    with one OpenBLAS thread, 14.1-16.3 s and 1.93-2.1 s at once. Pinned to
    one CPU (taskset -c 0), both at once gave 0.91x eval throughput and 1.07x
    predict latency in perfbench's ``dialogue`` runs (4 pairs).
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        threads = os.environ.get(var, "")
        if threads.isdigit() and int(threads) > 0:
            return 2 * int(threads) <= cpus
    return False


def _both(parallel: bool, first: Callable, second: Callable):
    """``(first(), second())``, running ``second`` on the worker thread if ``parallel``."""
    if not parallel:
        return first(), second()
    later = _submit(second)
    try:
        done = first()
    finally:
        # Wait even if first() raised: the caller may go on to change the inputs.
        other = later.result()
    return done, other


def bilstm_max(
    x: Tensor, lengths: Sequence[int], fwd_w: Tensor, fwd_b: Tensor, bwd_w: Tensor, bwd_b: Tensor
) -> Tensor:
    """Max-pooled BiLSTM vectors of rows laid back to back, (n, 2h).

    ``x`` is (tokens, d): row r's ``lengths[r]`` steps follow the rows
    before it, and the lengths are positive and sum to ``tokens``. Each
    direction's ``w`` is (4h, d + h) acting on [x_t, h_prev] and its ``b`` is
    (4h,), gates stacked input, forget, cell, output; no peepholes. The rows
    are sorted longest first and their steps packed step by step (``_pack``).
    Both directions read the packed steps: the forward one from the first
    step up, the backward one from each row's last step down. Row r is the
    maximum over its steps of the forward hidden state, then of the backward
    one. Of tied steps, the first in time takes the gradient, in both
    directions. No product runs on one row (``_product``), so a row's output
    does not depend on the other rows of the batch.

    The forward direction runs on the calling thread, the backward one on
    the worker thread at the same time, for the output and again for the
    BPTT rule. The op stays serial on the calling thread when a direction's
    weights hold fewer than PARALLEL_MIN_WEIGHTS entries or when twice the
    BLAS thread count exceeds the usable CPUs: one CPU, or a BLAS thread
    count left at its default of one per CPU. The tape record and ``dx``'s
    sum happen on the calling thread in a fixed order either way.

    The forward keeps no per-token ``tanh(c)``, and the BPTT rule consumes
    the forward's buffers (``_pooled_lstm``), so it runs once, as
    ``backward`` guarantees. Both directions read the one packed input.
    """
    _require_shape("bilstm_max", x.shape, 2)
    tokens, d = x.shape
    hid = fwd_w.shape[0] // 4
    for w, b in ((fwd_w, fwd_b), (bwd_w, bwd_b)):
        if w.shape != (4 * hid, d + hid) or b.shape != (4 * hid,):
            raise ValueError(f"bilstm_max: x {x.shape}, w {w.shape} and b {b.shape} disagree")
    lens = np.asarray(lengths, dtype=np.intp)
    if lens.ndim != 1 or lens.size == 0 or lens.min() < 1 or lens.sum() != tokens:
        raise ValueError(f"bilstm_max: need positive lengths summing to {tokens}, got {lengths!r}")
    order, sizes, at = _pack(lens)
    xp = x.data[at]
    parallel = fwd_w.data.size >= PARALLEL_MIN_WEIGHTS and _cores_for_both_directions()
    (u_fwd, fwd_rule), (u_bwd, bwd_rule) = _both(
        parallel,
        lambda: _pooled_lstm(xp, sizes, fwd_w.data, fwd_b.data, False),
        lambda: _pooled_lstm(xp, sizes, bwd_w.data, bwd_b.data, True),
    )
    u = np.empty((len(lens), 2 * hid))
    u[order] = np.concatenate([u_fwd, u_bwd], axis=1)

    def rule(g):
        g = g[order]
        (dx_fwd, dw_fwd, db_fwd), (dx_bwd, dw_bwd, db_bwd) = _both(
            parallel, lambda: fwd_rule(g[:, :hid]), lambda: bwd_rule(g[:, hid:])
        )
        dx = np.empty(x.shape)
        dx[at] = dx_fwd + dx_bwd
        return dx, dw_fwd, db_fwd, dw_bwd, db_bwd

    return _out(u, (x, fwd_w, fwd_b, bwd_w, bwd_b), rule)


def attention_scores(u: np.ndarray) -> np.ndarray:
    """Pairwise dot products of a matrix's rows, scaled by 1/sqrt(width)."""
    return (u @ u.T) * (1.0 / np.sqrt(u.shape[1]))


def attention_weights(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a score matrix; each row's max is subtracted before exponentiation."""
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def self_attention(u: Tensor) -> Tensor:
    """``p @ u`` with ``p = attention_weights(attention_scores(u))``: each row mixes all rows.

    Forward and rule take the float steps of the transpose, matmul, scale,
    softmax, matmul op chain in its order, so both equal its results bit for bit.
    """
    _require_shape("self_attention", u.shape, 2)
    ud = u.data
    p = attention_weights(attention_scores(ud))

    def rule(g):
        dp = g @ ud.T
        ds = p * (dp - np.sum(dp * p, axis=1, keepdims=True)) * (1.0 / np.sqrt(ud.shape[1]))
        # backward() sums the chain's gradients of u in this order, the last as
        # (ud.T @ ds).T; ds.T @ ud is another BLAS call, not bound to round alike.
        return (p.T @ g + ds @ ud + (ud.T @ ds).T,)

    return _out(p @ ud, (u,), rule)


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero with probability p, scale survivors by 1/(1-p).

    The mask is drawn from ``rng``; a rate of 0 is the identity and draws
    nothing.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout: p must be in [0, 1), got {p}")
    if p == 0.0:
        return x
    keep = rng.random(x.shape) >= p
    factor = keep / (1.0 - p)
    return _out(x.data * factor, (x,), lambda g: (g * factor,))


def weighted_nll(logits: Tensor, gold: Sequence[int], weights: Sequence[float]) -> Tensor:
    """Weighted mean negative log-softmax-likelihood over rows.

    loss = sum_i w_i * (-log softmax(logits_i)[gold_i]) / sum_i w_i. When
    every weight is zero the loss is the constant 0.0 and contributes no
    gradient anywhere.
    """
    _require_shape("weighted_nll", logits.shape, 2)
    n, k = logits.shape
    gold = np.asarray(gold, dtype=np.intp)
    w = np.asarray(weights, dtype=np.float64)
    if gold.shape != (n,) or w.shape != (n,):
        raise ValueError(
            f"weighted_nll: logits {logits.shape} need {n} golds and weights, "
            f"got {gold.shape} and {w.shape}"
        )
    if gold.min() < 0 or gold.max() >= k:
        raise ValueError(f"weighted_nll: gold ids out of range for {k} classes")
    if np.any(w < 0.0):
        raise ValueError("weighted_nll: weights must be non-negative")
    wsum = w.sum()
    if wsum == 0.0:
        return Tensor(0.0)
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    logsumexp = np.log(ez.sum(axis=1))
    nll = logsumexp - z[np.arange(n), gold]
    loss = float(np.dot(w, nll) / wsum)
    probs = ez / ez.sum(axis=1, keepdims=True)

    def rule(g):
        grad = probs.copy()
        grad[np.arange(n), gold] -= 1.0
        grad *= (w / wsum)[:, None]
        return (grad * float(g),)

    return _out(np.float64(loss), (logits,), rule)


# ---------------------------------------------------------------------------
# backward pass and gradient checking


def backward(tape: Tape, loss: Tensor) -> "dict[Tensor, np.ndarray | RowGrad]":
    """Replay ``tape`` in reverse from a scalar loss.

    Returns a map from every tensor reached that requires grad to its
    gradient: an array, or a RowGrad for a matrix read only through
    ``gather_rows``. An output of an earlier tape is a leaf here. Fan-out
    accumulates additively; parents that do not require grad are skipped.
    """
    if loss.shape != ():
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not any(out is loss for out, _, _ in tape._records):
        raise ValueError("backward: loss was not recorded on this tape")
    grads: "dict[Tensor, np.ndarray | RowGrad]" = {loss: np.ones(())}
    for out, parents, rule in reversed(tape._records):
        g = grads.get(out)
        if g is None:
            continue
        pgrads = rule(np.asarray(g))
        for parent, pg in zip(parents, pgrads):
            if not parent.requires_grad:
                continue
            acc = grads.get(parent)
            grads[parent] = pg if acc is None else acc + pg
    return grads


# Relative error is guarded below this scale so that finite-difference noise
# on true-zero gradients does not read as disagreement.
GRAD_CHECK_FLOOR = 1e-3
# The step of grad_check's central differences.
GRAD_CHECK_EPS = 1e-5


def grad_check(f: Callable[[], Tensor], params: Iterable[Tensor]) -> float:
    """Compare taped gradients of ``f()`` against central finite differences.

    ``f`` must close over ``params`` and be deterministic (a dropout mask
    drawn afresh per call is rejected). Every coordinate of every tensor is
    checked, with a step of GRAD_CHECK_EPS. Returns the worst relative error,
    guarded at GRAD_CHECK_FLOOR. A non-finite value raises FloatingPointError
    from the op that made it.
    """
    params = list(params)
    with Tape() as tape:
        loss = f()
    if loss.shape != ():
        raise ValueError("grad_check: f must return a scalar loss")
    if float(f().data) != float(loss.data):
        raise ValueError("grad_check: f is not deterministic; disable dropout first")
    grads = backward(tape, loss)
    worst = 0.0
    for p in params:
        g = np.asarray(grads[p]) if p in grads else np.zeros(p.shape)
        for idx in np.ndindex(*p.shape):
            orig = p.data[idx]
            p.data[idx] = orig + GRAD_CHECK_EPS
            lo_hi = float(f().data)
            p.data[idx] = orig - GRAD_CHECK_EPS
            lo_lo = float(f().data)
            p.data[idx] = orig
            fd = (lo_hi - lo_lo) / (2.0 * GRAD_CHECK_EPS)
            num = abs(float(g[idx]) - fd)
            den = max(abs(float(g[idx])), abs(fd), GRAD_CHECK_FLOOR)
            worst = max(worst, num / den)
    return worst


def seeded_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based Philox generator; streams split by jumping."""
    bits = np.random.Philox(key=np.uint64(seed))
    if stream:
        bits = bits.jumped(stream)
    return np.random.Generator(bits)
