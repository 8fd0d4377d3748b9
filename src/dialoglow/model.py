"""Dialogue emotion model.

Per utterance, a single-layer BiLSTM reads the word vectors in both
directions; each time step's two hidden states are concatenated and
max-pooled over time into one sentence vector. Any batch of utterances is
encoded by one embedding lookup of their token ids back to back and one op,
``autodiff.bilstm_max``, which packs those tokens, runs both directions over
them and pools them; an utterance's vector does not depend on the batch it is
encoded in. The "sa-bilstm" variant then lets
every utterance in a window attend over all the others with scaled
dot-product weights, one ``autodiff.self_attention`` op, before a shared
fully-connected stack scores the labels; the "bilstm" variant skips straight
to the classifier. ``head`` is that part after the encoder.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import LABEL_ORDER
from .embeddings import EmbeddingTable

VARIANTS = ("bilstm", "sa-bilstm")

# Training-time dropout: the rate and the generator that draws the masks.
Dropout = tuple[float, np.random.Generator]


@dataclass
class ModelConfig:
    embed_dim: int = 300
    hidden_size: int = 256  # per direction
    window_size: int = 25  # max utterances attended to jointly
    fc_dims: tuple[int, ...] = (128, 128)
    variant: str = "sa-bilstm"

    def __post_init__(self):
        self.fc_dims = tuple(self.fc_dims)
        if min(self.embed_dim, self.hidden_size, self.window_size) < 1:
            raise ValueError(f"model dimensions must be positive: {self}")
        if any(d < 1 for d in self.fc_dims):
            raise ValueError(f"fc_dims must be positive: {self.fc_dims}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")

    @property
    def sentence_dim(self) -> int:
        """Width of a pooled sentence vector, and of the attention space."""
        return 2 * self.hidden_size


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every parameter tensor but the embedding, by name, in a fixed order."""
    l, d = cfg.hidden_size, cfg.embed_dim
    shapes = {}
    for direction in ("lstm_fwd", "lstm_bwd"):
        shapes[f"{direction}.w"], shapes[f"{direction}.b"] = (4 * l, d + l), (4 * l,)
    width = cfg.sentence_dim
    for i, out_dim in enumerate([*cfg.fc_dims, len(LABEL_ORDER)]):
        layer = f"fc{i}" if i < len(cfg.fc_dims) else "out"
        shapes[f"{layer}.w"], shapes[f"{layer}.b"] = (width, out_dim), (out_dim,)
        width = out_dim
    return shapes


@dataclass
class ModelParams:
    """Embedding table plus every other parameter tensor, keyed and ordered by ``param_shapes``."""

    embedding: EmbeddingTable
    tensors: dict[str, Tensor]

    @classmethod
    def init(cls, cfg: ModelConfig, embedding: EmbeddingTable, seed: int) -> "ModelParams":
        """Seeded uniform init; forget-gate biases start at 1, the rest at 0."""
        if embedding.dim != cfg.embed_dim:
            raise ValueError(
                f"embedding dim {embedding.dim} does not match config {cfg.embed_dim}"
            )
        rng = ad.seeded_rng(seed)
        l = cfg.hidden_size
        named = {}
        for name, shape in param_shapes(cfg).items():
            if name.endswith(".w"):
                bound = math.sqrt(6.0 / sum(shape))
                named[name] = Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)
            else:
                named[name] = Tensor(np.zeros(shape), requires_grad=True)
                if name.startswith("lstm"):
                    named[name].data[l : 2 * l] = 1.0
        return cls(embedding, named)

    @property
    def out_b(self) -> Tensor:
        # The benchmark's worker (perfbench/worker.py) re-centres the output
        # bias of a fresh model through this name before it saves a checkpoint.
        return self.tensors["out.b"]

    def named_tensors(self) -> dict[str, Tensor]:
        """Every parameter tensor, embedding included, in a fixed order."""
        return {"embedding": self.embedding.weights, **self.tensors}

    def trainable_tensors(self) -> dict[str, Tensor]:
        return {k: t for k, t in self.named_tensors().items() if t.requires_grad}


def encode_sentence(token_ids: Sequence[Sequence[int]], params: ModelParams) -> Tensor:
    """Pooled bidirectional sentence vectors of a batch of utterances, (n, sentence_dim).

    One embedding lookup over the utterances' ids back to back, then one
    pooled BiLSTM op over those rows.
    """
    x = params.embedding.lookup(np.concatenate(token_ids))
    t = params.tensors
    lstm = (t["lstm_fwd.w"], t["lstm_fwd.b"], t["lstm_bwd.w"], t["lstm_bwd.b"])
    return ad.bilstm_max(x, [len(ids) for ids in token_ids], *lstm)


def self_attend(u_mat: Tensor) -> Tensor:
    """Replace each row with its attention-weighted mixture of all the rows.

    Row i becomes sum_j softmax(scores_i)[j] * row_j, recorded as one op.
    """
    # A wrapper so that perfbench/spans.py can trace attention as model.self_attend.
    return ad.self_attention(u_mat)


def classify(x: Tensor, params: ModelParams, dropout: "Dropout | None" = None) -> Tensor:
    """Shared per-row scorer: hidden affine+relu(+dropout) stack, raw logits out."""
    if x.ndim != 2:
        raise ValueError(f"classify: need a matrix of row vectors, got {x.shape}")
    t = params.tensors
    layer = 0
    while f"fc{layer}.w" in t:
        x = ad.relu(ad.affine(x, t[f"fc{layer}.w"], t[f"fc{layer}.b"]))
        if dropout is not None:
            x = ad.dropout(x, *dropout)
        layer += 1
    return ad.affine(x, t["out.w"], t["out.b"])


def check_window(token_ids: Sequence[Sequence[int]], cfg: ModelConfig) -> None:
    """ValueError unless the window holds 1 to window_size utterances, each of some tokens."""
    n = len(token_ids)
    if not 1 <= n <= cfg.window_size:
        raise ValueError(f"window holds {n} utterances, limit is {cfg.window_size}")
    if any(len(ids) == 0 for ids in token_ids):
        raise ValueError("every utterance needs at least one token id")


def head(
    u_mat: Tensor, params: ModelParams, cfg: ModelConfig, dropout: "Dropout | None" = None
) -> Tensor:
    """Logits of one window's sentence vectors: attention for "sa-bilstm", then the FC stack."""
    if cfg.variant == "sa-bilstm":
        u_mat = self_attend(u_mat)
        if dropout is not None:
            u_mat = ad.dropout(u_mat, *dropout)
    return classify(u_mat, params, dropout)


def forward_window(
    token_ids: Sequence[Sequence[int]], params: ModelParams, cfg: ModelConfig
) -> Tensor:
    """Inference logits for the utterances of one window, shape (n, len(LABEL_ORDER))."""
    check_window(token_ids, cfg)
    return head(encode_sentence(token_ids, params), params, cfg)
