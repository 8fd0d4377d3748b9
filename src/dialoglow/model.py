"""Dialogue emotion model.

Per utterance, a single-layer BiLSTM reads the word vectors in both
directions; each time step's two hidden states are concatenated and
max-pooled over time into one sentence vector. The "sa-bilstm" variant
then lets every utterance in a window attend over all the others with
scaled dot-product weights before a shared fully-connected stack scores
the labels; the "bilstm" variant skips straight from sentence vector to
classifier.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import LABEL_ORDER
from .embeddings import EmbeddingTable

VARIANTS = ("bilstm", "sa-bilstm")


@dataclass
class ModelConfig:
    embed_dim: int = 300
    hidden_size: int = 256  # per direction
    window_size: int = 25  # max utterances attended to jointly
    fc_dims: tuple[int, ...] = (128, 128)
    dropout_p: float = 0.3
    variant: str = "sa-bilstm"

    def __post_init__(self):
        self.fc_dims = tuple(self.fc_dims)
        if min(self.embed_dim, self.hidden_size, self.window_size) < 1:
            raise ValueError(f"model dimensions must be positive: {self}")
        if any(d < 1 for d in self.fc_dims):
            raise ValueError(f"fc_dims must be positive: {self.fc_dims}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")

    @property
    def sentence_dim(self) -> int:
        """Width of a pooled sentence vector, and of the attention space."""
        return 2 * self.hidden_size


@dataclass
class LstmDirection:
    """One direction's gate parameters, input/forget/cell/output stacked."""

    w: Tensor  # (4*hidden, embed_dim + hidden)
    b: Tensor  # (4*hidden,)


def _xavier(rng, fan_in: int, fan_out: int, shape) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


@dataclass
class ModelParams:
    embedding: EmbeddingTable
    lstm_fwd: LstmDirection
    lstm_bwd: LstmDirection
    fc: list[tuple[Tensor, Tensor]] = field(default_factory=list)
    out_w: Tensor = None
    out_b: Tensor = None

    @classmethod
    def init(cls, cfg: ModelConfig, embedding: EmbeddingTable, seed: int) -> "ModelParams":
        """Seeded uniform init; forget-gate biases start at 1, the rest at 0."""
        if embedding.dim != cfg.embed_dim:
            raise ValueError(
                f"embedding dim {embedding.dim} does not match config {cfg.embed_dim}"
            )
        rng = ad.seeded_rng(seed)
        l, d = cfg.hidden_size, cfg.embed_dim
        dirs = []
        for _ in range(2):
            w = Tensor(_xavier(rng, d + l, 4 * l, (4 * l, d + l)), requires_grad=True)
            b = np.zeros(4 * l)
            b[l : 2 * l] = 1.0
            dirs.append(LstmDirection(w=w, b=Tensor(b, requires_grad=True)))
        fc = []
        width = cfg.sentence_dim
        for out_dim in cfg.fc_dims:
            w = Tensor(_xavier(rng, width, out_dim, (width, out_dim)), requires_grad=True)
            fc.append((w, Tensor(np.zeros(out_dim), requires_grad=True)))
            width = out_dim
        labels = len(LABEL_ORDER)
        out_w = Tensor(_xavier(rng, width, labels, (width, labels)), requires_grad=True)
        out_b = Tensor(np.zeros(labels), requires_grad=True)
        return cls(
            embedding=embedding,
            lstm_fwd=dirs[0],
            lstm_bwd=dirs[1],
            fc=fc,
            out_w=out_w,
            out_b=out_b,
        )

    def named_tensors(self) -> dict[str, Tensor]:
        """Every parameter tensor, embedding included, in a fixed order."""
        named = {
            "embedding": self.embedding.weights,
            "lstm_fwd.w": self.lstm_fwd.w,
            "lstm_fwd.b": self.lstm_fwd.b,
            "lstm_bwd.w": self.lstm_bwd.w,
            "lstm_bwd.b": self.lstm_bwd.b,
        }
        for i, (w, b) in enumerate(self.fc):
            named[f"fc{i}.w"] = w
            named[f"fc{i}.b"] = b
        named["out.w"] = self.out_w
        named["out.b"] = self.out_b
        return named

    def trainable_tensors(self) -> dict[str, Tensor]:
        return {k: t for k, t in self.named_tensors().items() if t.requires_grad}


def lstm_cell_step(x: Tensor, h_prev: Tensor, c_prev: Tensor, p: LstmDirection):
    """One LSTM step; returns (h, c). No peephole connections."""
    hidden = h_prev.shape[0]
    gates = ad.add(ad.matmul(p.w, ad.concat([x, h_prev])), p.b)
    i = ad.sigmoid(ad.narrow(gates, 0, hidden))
    f = ad.sigmoid(ad.narrow(gates, hidden, hidden))
    g = ad.tanh(ad.narrow(gates, 2 * hidden, hidden))
    o = ad.sigmoid(ad.narrow(gates, 3 * hidden, hidden))
    c = ad.add(ad.mul(f, c_prev), ad.mul(i, g))
    h = ad.mul(o, ad.tanh(c))
    return h, c


def encode_sentence(
    ids: Sequence[int], valid_len: int, params: ModelParams, cfg: ModelConfig
) -> Tensor:
    """Pooled bidirectional sentence vector for one token-id sequence.

    Only the first ``valid_len`` ids take part, so trailing padding ids can
    never change the result.
    """
    if valid_len < 1 or valid_len > len(ids):
        raise ValueError(f"valid_len {valid_len} out of range for {len(ids)} ids")
    ids = list(ids)[:valid_len]
    m = len(ids)
    embedded = params.embedding.lookup(ids)
    xs = [ad.row(embedded, t) for t in range(m)]
    zeros = lambda: Tensor(np.zeros(cfg.hidden_size))
    h, c = zeros(), zeros()
    fwd = []
    for t in range(m):
        h, c = lstm_cell_step(xs[t], h, c, params.lstm_fwd)
        fwd.append(h)
    h, c = zeros(), zeros()
    bwd = [None] * m
    for t in reversed(range(m)):
        h, c = lstm_cell_step(xs[t], h, c, params.lstm_bwd)
        bwd[t] = h
    steps = [ad.concat([fwd[t], bwd[t]]) for t in range(m)]
    return ad.max_over_time(ad.stack_rows(steps), m)


def attention_scores(u_mat: Tensor, n: int) -> Tensor:
    """Pairwise dot products of sentence vectors, scaled by 1/sqrt(width).

    Entries touching rows or columns at and beyond ``n`` belong to padding;
    downstream softmax masking keeps them at exactly zero weight.
    """
    if u_mat.ndim != 2:
        raise ValueError(f"attention_scores: need a matrix, got shape {u_mat.shape}")
    if not 1 <= n <= u_mat.shape[0]:
        raise ValueError(f"attention_scores: n {n} out of range for {u_mat.shape}")
    return ad.scale(
        ad.matmul(u_mat, ad.transpose(u_mat)), 1.0 / math.sqrt(u_mat.shape[1])
    )


def self_attend(u_mat: Tensor, n: int) -> Tensor:
    """Replace each of the first n rows with its attention-weighted mixture.

    Row i becomes sum_j softmax(scores_i)[j] * row_j over the real rows
    only; padded rows come back as exact zeros. Arithmetic never touches
    the padding, so results do not depend on how far the input was padded.
    """
    if u_mat.ndim != 2:
        raise ValueError(f"self_attend: need a matrix, got shape {u_mat.shape}")
    total = u_mat.shape[0]
    if not 1 <= n <= total:
        raise ValueError(f"self_attend: n {n} out of range for {u_mat.shape}")
    core = u_mat if n == total else ad.narrow(u_mat, 0, n, axis=0)
    weights = ad.masked_softmax(attention_scores(core, n), np.ones(n, dtype=bool))
    mixed = ad.matmul(weights, core)
    return mixed if n == total else ad.pad_rows(mixed, total)


def classify(
    x: Tensor,
    params: ModelParams,
    cfg: ModelConfig,
    train: bool = False,
    rng: "np.random.Generator | None" = None,
) -> Tensor:
    """Shared per-row scorer: hidden affine+relu(+dropout) stack, raw logits out."""
    if x.ndim != 2:
        raise ValueError(f"classify: need a matrix of row vectors, got {x.shape}")
    for w, b in params.fc:
        x = ad.dropout(ad.relu(ad.affine(x, w, b)), cfg.dropout_p, train, rng)
    return ad.affine(x, params.out_w, params.out_b)


def forward_window(
    token_ids: Sequence[Sequence[int]],
    params: ModelParams,
    cfg: ModelConfig,
    train: bool = False,
    rng: "np.random.Generator | None" = None,
    n_pad: "int | None" = None,
) -> Tensor:
    """Logits for the real utterances of one window, shape (n, len(LABEL_ORDER))."""
    n = len(token_ids)
    if not 1 <= n <= cfg.window_size:
        raise ValueError(f"window holds {n} utterances, limit is {cfg.window_size}")
    if any(len(ids) == 0 for ids in token_ids):
        raise ValueError("every utterance needs at least one token id")
    u_rows = [encode_sentence(ids, len(ids), params, cfg) for ids in token_ids]
    u_mat = ad.stack_rows(u_rows)
    if n_pad is not None:
        if n_pad < n:
            raise ValueError(f"n_pad {n_pad} smaller than window size {n}")
        if n_pad > n:
            u_mat = ad.pad_rows(u_mat, n_pad)
    if cfg.variant == "sa-bilstm":
        mixed = self_attend(u_mat, n)
        core = mixed if mixed.shape[0] == n else ad.narrow(mixed, 0, n, axis=0)
        core = ad.dropout(core, cfg.dropout_p, train, rng)
    else:
        core = u_mat if u_mat.shape[0] == n else ad.narrow(u_mat, 0, n, axis=0)
    return classify(core, params, cfg, train, rng)
