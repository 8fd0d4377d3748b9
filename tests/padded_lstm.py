"""The padded BiLSTM encoder that the packed ``bilstm_max`` replaced, frozen as its oracle.

``pooled_lstm`` is a copy of ``autodiff._pooled_lstm`` as it was before
packing: every row of the padded batch steps in lockstep over every step,
with its input gate shut at padding steps. ``bilstm_max`` runs its two
directions one after the other, as the op did on one thread. Both take the
matrix product as an argument, ``np.matmul`` (the ``@`` of the original) by
default, so a check can swap in one whose rows do not depend on each other.
The gates use the package's ``sigmoid``: the oracle checks the packing, not
how ``exp`` is computed.
"""
import numpy as np

from dialoglow.autodiff import sigmoid


def pooled_lstm(xs, real, w, b, reverse, matmul=np.matmul):
    """One LSTM direction over time-major inputs, max-pooled over each row's real steps.

    ``xs`` is (steps, n, d) and ``real`` (steps, n, 1) marks each row's real
    steps, which come first. Returns the (n, h) maximum and the BPTT rule
    mapping its gradient to (d xs, d w, d b).
    """
    steps, n, d = xs.shape
    hid = b.shape[0] // 4
    w_x, w_h = w[:, :d], w[:, d:]
    pre = (matmul(xs.reshape(-1, d), w_x.T) + b).reshape(steps, n, 4 * hid)
    pre[:, :, :hid][~real[:, :, 0]] = -np.inf  # shut input gate: sigmoid gives exactly 0.0
    acts = np.empty_like(pre)  # gate activations i, f, g, o
    cells = np.zeros((steps + 1, n, hid))
    hs = np.zeros((steps + 1, n, hid))
    # [s] of the *_in views is the state entering step s, of the *_out views the one it leaves.
    c_in, c_out = (cells[1:], cells[:-1]) if reverse else (cells[:-1], cells[1:])
    h_in, h_out = (hs[1:], hs[:-1]) if reverse else (hs[:-1], hs[1:])
    tanh_c = np.empty((steps, n, hid))
    for s in reversed(range(steps)) if reverse else range(steps):
        z = pre[s] + matmul(h_in[s], w_h.T)
        a = acts[s]
        a[:] = z
        sigmoid(a)
        a[:, 2 * hid : 3 * hid] = np.tanh(z[:, 2 * hid : 3 * hid])
        i, f, g, o = np.split(a, 4, axis=1)
        c_out[s] = f * c_in[s] + i * g
        tanh_c[s] = np.tanh(c_out[s])
        h_out[s] = o * tanh_c[s]
    arg = np.argmax(np.where(real, h_out, -np.inf), axis=0)[None]  # (1, n, h)

    def rule(gu):
        dh_out = np.zeros((steps, n, hid))
        np.put_along_axis(dh_out, arg, gu[None], axis=0)
        d_pre = np.empty_like(pre)
        dh, dc = np.zeros((n, hid)), np.zeros((n, hid))
        for s in range(steps) if reverse else reversed(range(steps)):
            i, f, g, o = np.split(acts[s], 4, axis=1)
            dh = dh + dh_out[s]
            dc = dc + dh * o * (1.0 - tanh_c[s] * tanh_c[s])
            da = d_pre[s]
            da[:, :hid] = dc * g * i * (1.0 - i)
            da[:, hid : 2 * hid] = dc * c_in[s] * f * (1.0 - f)
            da[:, 2 * hid : 3 * hid] = dc * i * (1.0 - g * g)
            da[:, 3 * hid :] = dh * tanh_c[s] * o * (1.0 - o)
            dh = matmul(da, w_h)
            dc = dc * f
        dz = d_pre.reshape(-1, 4 * hid)
        inputs = np.concatenate([xs, h_in], axis=2).reshape(-1, d + hid)
        return matmul(dz, w_x).reshape(steps, n, d), matmul(dz.T, inputs), dz.sum(axis=0)

    return np.take_along_axis(h_out, arg, axis=0)[0], rule


def bilstm_max(x, lengths, params, g, matmul=np.matmul):
    """(u, [dx, dw_fwd, db_fwd, dw_bwd, db_bwd]) of the padded encoder, for output gradient g.

    ``x`` is (n, steps, d) and ``params`` the arrays fwd_w, fwd_b, bwd_w, bwd_b.
    """
    hid = params[1].shape[0] // 4
    real = (np.arange(x.shape[1])[:, None] < np.asarray(lengths))[:, :, None]
    xs = x.transpose(1, 0, 2)
    u_fwd, fwd_rule = pooled_lstm(xs, real, params[0], params[1], False, matmul)
    u_bwd, bwd_rule = pooled_lstm(xs, real, params[2], params[3], True, matmul)
    dx_fwd, dw_fwd, db_fwd = fwd_rule(g[:, :hid])
    dx_bwd, dw_bwd, db_bwd = bwd_rule(g[:, hid:])
    dx = (dx_fwd + dx_bwd).transpose(1, 0, 2)
    return np.concatenate([u_fwd, u_bwd], axis=1), [dx, dw_fwd, db_fwd, dw_bwd, db_bwd]
