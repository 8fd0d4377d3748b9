"""The training step's forward and backward pass as it ran window by window, frozen as its oracle.

``per_window_step`` is a copy of ``train._optimize_step``'s gradient part from
when each window of a step was encoded and scored on its own and the window
logits were joined by a taped ``concat``, kept here with its own copy of that
op. Each window's embedding lookup scatter-adds into a dense gradient, which
is what ``gather_rows``'s RowGrad densifies to bit for bit, so the gradients of
several lookups add in ``backward``. For one window it takes the float steps
the one-forward step takes, dropout draws included; for more, it draws a
dropout mask per window and sums the table's gradient per lookup.
"""
import numpy as np

from dialoglow import autodiff as ad
from dialoglow import model as m
from dialoglow import train as tr


def concat(parts):
    """Join matrices along their first axis, as one taped op."""
    splits = np.cumsum([p.shape[0] for p in parts])[:-1]
    return ad._out(np.concatenate([p.data for p in parts]), tuple(parts), lambda g: np.split(g, splits))


def dense_lookup(table, ids):
    """``gather_rows`` with a dense scatter-add gradient."""
    idx = np.asarray(ids, dtype=np.intp)

    def rule(g):
        dense = np.zeros(table.shape)
        np.add.at(dense, idx, g)
        return (dense,)

    return ad._out(table.data[idx], (table,), rule)


def encode(ids_list, params):
    t = params.tensors
    x = dense_lookup(params.embedding.weights, np.concatenate(ids_list))
    lstm = (t["lstm_fwd.w"], t["lstm_fwd.b"], t["lstm_bwd.w"], t["lstm_bwd.b"])
    return ad.bilstm_max(x, [len(ids) for ids in ids_list], *lstm)


def head(u, params, cfg, dropout):
    """One window's logits: attention over all its rows for "sa-bilstm", then the FC stack."""
    if cfg.variant == "sa-bilstm":
        u = ad.self_attention(u, [0, u.shape[0]])
        if dropout is not None:
            u = ad.dropout(u, *dropout)
    return m.classify(u, params, dropout)


def per_window_step(windows, params, cfg, cw, dropout):
    """(loss, {trainable tensor name: dense gradient}) of one step over ``windows``."""
    golds = [g for _, gs in windows for g in gs]
    with ad.Tape() as tape:
        parts = [head(encode(ids, params), params, cfg, dropout) for ids, _ in windows]
        logits = parts[0] if len(parts) == 1 else concat(parts)
        loss = tr.weighted_cross_entropy(logits, golds, cw)
        grads = ad.backward(tape, loss)
    return float(loss.data), {k: np.asarray(grads[t]) for k, t in params.trainable_tensors().items()}
