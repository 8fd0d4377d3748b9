"""The packed LSTM direction as it was before BPTT reused the forward's buffers, frozen as its oracle.

``pooled_lstm`` is a copy of ``autodiff._pooled_lstm`` from when the forward
kept every token's ``tanh(c)`` and the BPTT rule worked in buffers of its
own: a ``(tokens, 4h)`` gate-gradient array, a zeroed ``(tokens, h)``
``h_prev`` concatenated to the inputs, and a ``(steps, n, h)`` array whose
``argmax`` over time routed the pooled gradient. Its rule leaves the
forward's arrays as they were, so it can run more than once. It takes the
package's ``_product`` and ``sigmoid`` at call time, as the op does, so the
check compares the buffers and the order of the float steps, not the
products.
"""
import itertools

import numpy as np

from dialoglow import autodiff as ad


def pooled_lstm(xp: np.ndarray, sizes: np.ndarray, w: np.ndarray, b: np.ndarray, reverse: bool):
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
    """
    tokens, d = xp.shape
    n, hid = int(sizes[0]), b.shape[0] // 4
    w_x, w_h = w[:, :d], w[:, d:]
    w_hT = w_h.T
    # Step s is the block starts[s]:starts[s + 1] of every per-token array.
    starts = [0, *itertools.accumulate(sizes.tolist())]
    acts = ad._product(xp, w_x.T)  # pre-activations, turned into gate activations i, f, g, o
    acts += b
    cells, tanh_c, hs = np.empty((tokens, hid)), np.empty((tokens, hid)), np.empty((tokens, hid))
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
            a[:k] += ad._product(hs[p : p + k], w_hT)
        sig, g, o = a[:, : 2 * hid], a[:, 2 * hid : 3 * hid], a[:, 3 * hid :]
        ad.sigmoid(sig)
        np.tanh(g, out=g)
        ad.sigmoid(o)
        c, tc, h = cells[lo:hi], tanh_c[lo:hi], hs[lo:hi]
        np.multiply(sig[:, :hid], g, out=c)  # i * g
        if k:
            c[:k] += sig[:k, hid:] * cells[p : p + k]  # + f * c_prev
        np.tanh(c, out=tc)
        np.multiply(o, tc, out=h)
        np.maximum(u[:m], h, out=u[:m])
        p, k = lo, m

    def rule(gu):
        # Each maximum's packed position, the first in time of tied steps, takes its gradient.
        over_time = np.full((len(sizes), n, hid), -np.inf)
        over_time[np.arange(n) < sizes[:, None]] = hs  # time-major, as packed
        at = np.asarray(starts)[np.argmax(over_time, axis=0)] + np.arange(n)[:, None]
        dh_out = np.zeros((tokens, hid))
        np.put_along_axis(dh_out, at, gu, axis=0)
        d_pre = np.empty_like(acts)
        h_in = np.zeros((tokens, hid))
        dh, dc = np.zeros((n, hid)), np.zeros((n, hid))
        for lo, m, p, k in reversed(walk):
            a, tc, da = acts[lo : lo + m], tanh_c[lo : lo + m], d_pre[lo : lo + m]
            i, f, g, o = (a[:, j * hid : (j + 1) * hid] for j in range(4))
            dh[:m] += dh_out[lo : lo + m]
            dc[:m] += dh[:m] * o * (1.0 - tc * tc)
            da[:, :hid] = dc[:m] * g * i * (1.0 - i)
            da[:k, hid : 2 * hid] = dc[:k] * cells[p : p + k] * f[:k] * (1.0 - f[:k])
            da[k:, hid : 2 * hid] = 0.0  # a row's first step starts from c = 0
            da[:, 2 * hid : 3 * hid] = dc[:m] * i * (1.0 - g * g)
            da[:, 3 * hid :] = dh[:m] * tc * o * (1.0 - o)
            if k:
                h_in[lo : lo + k] = hs[p : p + k]
                dh[:k] = ad._product(da[:k], w_h)
                dc[:k] *= f[:k]
        inputs = np.concatenate([xp, h_in], axis=1)
        return ad._product(d_pre, w_x), d_pre.T @ inputs, d_pre.sum(axis=0)

    return u, rule
