"""Word embedding table with optional pretrained bootstrap.

Row 0 belongs to <pad>, stays all-zero and never receives gradient. Every
special token and every vocabulary word absent from the pretrained file is
drawn uniformly from [-0.05, 0.05] with a seeded generator.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import Tensor, gather_rows, seeded_rng
from .preprocess import PAD_ID, SPECIALS, Vocab


class EmbeddingError(ValueError):
    """Raised for unreadable or inconsistent embedding files."""


@dataclass
class EmbeddingTable:
    weights: Tensor  # (|vocab|, dim), float64
    dim: int
    oov_count: int
    trainable: bool

    def __post_init__(self):
        if self.weights.ndim != 2 or self.weights.shape[1] != self.dim:
            raise EmbeddingError(
                f"weights shape {self.weights.shape} does not match dim {self.dim}"
            )
        # Values are checked finite where they enter: load_checkpoint checks
        # every tensor and load_pretrained every row; _fill draws the rest.
        if not np.all(self.weights.data[PAD_ID] == 0.0):
            raise EmbeddingError("padding row must be all-zero")

    @property
    def vocab_size(self) -> int:
        return self.weights.shape[0]

    def lookup(self, ids) -> Tensor:
        """Rows for a token-id sequence; participates in the tape.

        The padding row is excluded from gradient flow, so it stays zero
        no matter how long training runs.
        """
        return gather_rows(self.weights, ids, stop_grad_rows=(PAD_ID,))


def _fill(vocab: Vocab, dim: int, seed: int, found: dict[int, np.ndarray]):
    rng = seeded_rng(seed)
    weights = np.zeros((len(vocab), dim))
    oov = 0
    for i, tok in enumerate(vocab.tokens):
        if i == PAD_ID:
            continue
        row = None if tok in SPECIALS else found.get(i)
        if row is None:
            weights[i] = rng.uniform(-0.05, 0.05, size=dim)
            oov += 1
        else:
            weights[i] = row
    return weights, oov


def load_pretrained(
    path: "str | Path",
    vocab: Vocab,
    dim: int,
    seed: int,
    trainable: bool = True,
) -> EmbeddingTable:
    """Read a text embedding file: one "token v1 ... vdim" line per word.

    Raises EmbeddingError when the file is not UTF-8 text or, citing the line
    number, when a line does not carry exactly ``dim`` values or one fails.
    """
    path = Path(path)
    wanted = {tok: i for i, tok in enumerate(vocab.tokens) if tok not in SPECIALS}
    found: dict[int, np.ndarray] = {}
    try:
        with path.open(encoding="utf-8") as fh:
            for ln, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split(" ")
                if len(parts) != dim + 1:
                    raise EmbeddingError(
                        f"{path}: line {ln}: expected {dim} values after the token, "
                        f"got {len(parts) - 1}"
                    )
                idx = wanted.get(parts[0])
                if idx is None or idx in found:
                    continue
                try:
                    vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
                except ValueError:
                    raise EmbeddingError(
                        f"{path}: line {ln}: non-numeric embedding value"
                    ) from None
                if not np.all(np.isfinite(vec)):
                    raise EmbeddingError(f"{path}: line {ln}: non-finite embedding value")
                found[idx] = vec
    except UnicodeDecodeError:
        # Text reads decode in chunks, so the bad byte's line is not known.
        raise EmbeddingError(f"{path}: not UTF-8 text") from None
    weights, oov = _fill(vocab, dim, seed, found)
    return EmbeddingTable(
        weights=Tensor(weights, requires_grad=trainable),
        dim=dim,
        oov_count=oov,
        trainable=trainable,
    )


def random_table(vocab: Vocab, dim: int, seed: int, trainable: bool = True) -> EmbeddingTable:
    """Fully seeded-random table for training without pretrained vectors."""
    weights, oov = _fill(vocab, dim, seed, {})
    return EmbeddingTable(
        weights=Tensor(weights, requires_grad=trainable),
        dim=dim,
        oov_count=oov,
        trainable=trainable,
    )
