"""Training loop and its supporting pieces.

Covers the weighted cross-entropy loss, bias-corrected Adam with a
per-epoch decayed learning rate, the two batching regimes (flat
utterance batches for the plain encoder, one dialogue per step for the
attentive variant), evaluation helpers, and a self-describing binary
checkpoint format. Everything is seeded; two runs with the same seed
produce byte-identical checkpoints and histories.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
import zlib
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from . import autodiff as ad
from . import metrics as mx
from . import model as m
from .corpus import CONSIDERED_LABELS, LABEL_INDEX, LABEL_ORDER, Dataset, split_windows
from .embeddings import EmbeddingTable
from .files import write_atomic
from .preprocess import SPECIALS, Vocab, build_vocab, prepare_distinct, vocab_content_sha256

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

DEFAULT_EPOCHS = {"bilstm": 10, "sa-bilstm": 20}

CHECKPOINT_MAGIC = b"DGLW"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """Raised for unreadable, corrupt, or incompatible checkpoint files."""


@dataclass
class TrainConfig:
    lr0: float = 2e-4
    decay: float = 0.99
    epochs: "int | None" = None  # None picks the per-variant default
    batch_size: int = 16  # flat-batch variant only; attentive steps one dialogue
    dropout: float = 0.3
    class_weights: tuple = (1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    seed: int = 0
    val_fraction: float = 0.1  # held out by `dialoglow train` before its vocab; train() never reads it
    grad_clip: "float | None" = None

    def __post_init__(self):
        self.class_weights = tuple(float(w) for w in self.class_weights)
        if not 0 <= self.seed < 2**64:  # the range of the Philox key
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if not 0.0 < self.lr0 < math.inf:  # a range check, as NaN fails every comparison
            raise ValueError(f"lr0 must be positive and finite, got {self.lr0}")
        if not 0.0 < self.decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {self.decay}")
        if self.epochs is not None and self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in [0, 1), got {self.val_fraction}")
        if self.grad_clip is not None and not 0.0 < self.grad_clip < math.inf:
            raise ValueError(f"grad_clip must be positive and finite, got {self.grad_clip}")
        if len(self.class_weights) != len(LABEL_ORDER):
            raise ValueError(
                f"class_weights needs {len(LABEL_ORDER)} entries, got {len(self.class_weights)}"
            )
        if not all(0.0 <= w < math.inf for w in self.class_weights):
            raise ValueError("class weights must be non-negative and finite")
        n = len(CONSIDERED_LABELS)
        if any(w != 0.0 for w in self.class_weights[n:]):
            raise ValueError("weights for labels outside the considered set must be exactly zero")

    def epochs_for(self, variant: str) -> int:
        return self.epochs if self.epochs is not None else DEFAULT_EPOCHS[variant]


def learning_rate(lr0: float, decay: float, epoch: int) -> float:
    return lr0 * decay**epoch


def weighted_cross_entropy(logits, golds, class_weights) -> ad.Tensor:
    """Cross-entropy averaged by the per-utterance weight sum.

    Weights come from the gold label's entry in class_weights, so labels
    outside the considered set (weight 0) sit in the batch for context
    without contributing loss or gradient.
    """
    cw = np.asarray(class_weights, dtype=np.float64)
    weights = [cw[g] for g in golds]
    return ad.weighted_nll(logits, list(golds), weights)


# Entries per slice of the Adam update: a slice of the parameter, its moments
# and the update's temporaries stay in a core's L2 cache across its passes.
ADAM_SLICE = 16384


class AdamState:
    """Step count and first/second moments, keyed like the parameter dict.

    ``moved[name]`` holds the ids of the rows (entries, for a 0-d or 1-d
    parameter) that have ever had a gradient, in the order they first had
    one, and ``slot[name][i]`` is where row i sits in it (-1 before it
    moves). ``m[name]`` and ``v[name]`` hold one row of moments per entry of
    ``moved[name]``, in the same order, so they take 2 x moved rows x width
    floats. Every other row has zero moments, so Adam's step there is
    exactly 0.0 and ``adam_step`` leaves it alone.
    """

    def __init__(self, named_params: dict):
        self.t = 0
        self.m = {k: np.zeros((0, math.prod(p.shape[1:]))) for k, p in named_params.items()}
        self.v = {k: np.zeros((0, math.prod(p.shape[1:]))) for k, p in named_params.items()}
        self.moved = {k: np.zeros(0, dtype=np.intp) for k in named_params}
        self.slot = {k: np.full(p.shape[0] if p.ndim else 1, -1) for k, p in named_params.items()}


def _as_rows(a: np.ndarray) -> np.ndarray:
    """A 2-d view of a C-contiguous array: one row per leading index (one row for 0-d)."""
    return a.reshape(a.shape[0] if a.ndim else 1, -1)


def adam_step(named_params: dict, grads: dict, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update, in place on each parameter's C-contiguous array.

    ``grads`` must hold a gradient for every parameter: an array or an
    ``ad.RowGrad`` (an empty one for no gradient this step). The epsilon
    sits outside the square root. Only the rows that have ever had a
    gradient are computed, slice by slice, with the textbook float
    ops in the textbook order, so the result is bit-identical to the dense
    update: a row that never had a gradient would move by exactly 0.0, and
    a moved row without a gradient this step only decays its moments.
    """
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    for name, p in named_params.items():
        p2 = _as_rows(p.data)
        width = p2.shape[1]
        g = grads[name]
        sparse = isinstance(g, ad.RowGrad)
        if not np.all(np.isfinite(g.rows if sparse else g)):
            raise ValueError(f"non-finite gradient for {name!r}")
        moved, slot = state.moved[name], state.slot[name]
        if sparse:
            new = g.ids[slot[g.ids] < 0]
        else:
            new = np.flatnonzero(slot < 0)
            g2 = _as_rows(np.ascontiguousarray(g))
        if len(new):
            # Rows moving for the first time join at the end, with zero moments.
            # The moments' buffers grow to twice their rows when full, so most
            # steps add rows without copying the rows that moved before.
            old, total = len(moved), len(moved) + len(new)
            slot[new] = np.arange(old, total)
            moved = state.moved[name] = np.concatenate((moved, new))
            for moments in (state.m, state.v):
                live = moments[name]  # a view of the first rows of its buffer, once grown
                store = live if live.base is None else live.base
                if len(store) < total:
                    store = np.empty((max(total, 2 * len(store)), width))
                    store[:old] = live
                store[old:total] = 0.0
                moments[name] = store[:total]
        if sparse:
            at = slot[g.ids]  # where each gradient row sits in moved
            order = np.argsort(at)
            at = at[order]
        m2, v2 = state.m[name], state.v[name]
        per = max(1, ADAM_SLICE // width)
        for lo in range(0, len(moved), per):
            ids = moved[lo : lo + per]
            k = len(ids)
            # Runs of consecutive rows are updated through views, the rest through copies.
            run = ids[-1] - ids[0] == k - 1 and (np.diff(ids) == 1).all()
            rows = slice(ids[0], ids[0] + k) if run else ids
            ms, vs, ps = m2[lo : lo + k], v2[lo : lo + k], p2[rows]
            ms *= ADAM_BETA1
            vs *= ADAM_BETA2
            # Only rows with a gradient add its term. The textbook adds
            # (1 - b1) * 0.0 to the others, which keeps their bits: a moment
            # is never -0.0.
            if sparse:
                i, j = np.searchsorted(at, (lo, lo + k))
                here, gs = at[i:j] - lo, g.rows[order[i:j]]
            else:
                here, gs = slice(None), g2[rows]
            ms[here] += gs * (1.0 - ADAM_BETA1)
            vs[here] += (gs * gs) * (1.0 - ADAM_BETA2)
            ps -= lr * (ms / bc1) / (np.sqrt(vs / bc2) + ADAM_EPS)
            if rows is ids:
                p2[ids] = ps


def clip_gradients(grads: dict, limit: float) -> float:
    """Scale the whole gradient down when its global norm exceeds limit."""
    values = (g.rows if isinstance(g, ad.RowGrad) else g for g in grads.values())
    total = math.sqrt(sum(float(np.sum(v * v)) for v in values))
    if total > limit:
        factor = limit / total
        for name in grads:
            grads[name] = grads[name] * factor
    return total


def inverse_frequency_weights(ds: Dataset) -> tuple:
    """Considered-class weights proportional to 1/count, mean-normalized to 1.

    Classes absent from the dataset get weight 0 (there is nothing to
    reweight), as do the never-considered labels.
    """
    golds = Counter(u.gold for d in ds.dialogues for u in d.utterances)
    counts = [golds[lab] for lab in CONSIDERED_LABELS]
    present = [c for c in counts if c > 0]
    if not present:
        raise ValueError("no considered-label utterances to derive weights from")
    mean_count = sum(present) / len(present)
    weights = [mean_count / c if c > 0 else 0.0 for c in counts]
    return tuple(weights) + (0.0,) * (len(LABEL_ORDER) - len(counts))


# ---------------------------------------------------------------------------
# checkpoint container


@dataclass
class Checkpoint:
    model_config: m.ModelConfig
    tensors: dict
    vocab_sha256: str
    metadata: dict = field(default_factory=dict)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    arrays = [np.ascontiguousarray(arr, dtype="<f8") for arr in ckpt.tensors.values()]
    directory, offset = [], 0
    for name, arr in zip(ckpt.tensors, arrays):
        directory.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.nbytes
    header = {
        "model_config": dataclasses.asdict(ckpt.model_config),
        "vocab_sha256": ckpt.vocab_sha256,
        "metadata": ckpt.metadata,
        "tensors": directory,
    }
    hbytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    buf = bytearray(CHECKPOINT_MAGIC + struct.pack("<IQ", CHECKPOINT_VERSION, len(hbytes)) + hbytes)
    for arr in arrays:
        buf += arr.data  # the array's own buffer, not a bytes copy of it
    buf += struct.pack("<I", zlib.crc32(buf) & 0xFFFFFFFF)
    write_atomic(path, buf)


# Bytes per read of the checkpoint reader. Each chunk's CRC step is queued on
# the worker thread as soon as the chunk is read, so the worker works through
# the queue while later chunks are read. Loading a 72 MB checkpoint (a 25.8k x
# 300 table and `bilstm` weights), page cache warm, one OpenBLAS thread, on a
# 2-core x86-64 VM, medians of eight runs of 20 loads: 1 MB chunks 37 ms, 4 MB
# 37 ms, 16 MB 39 ms.
LOAD_CHUNK_BYTES = 4 << 20


def load_checkpoint(path) -> Checkpoint:
    """The checkpoint at ``path``, its CRC, header and tensor values checked.

    The file is read once, front to back, into one buffer laid out so that
    the payload starts 8-byte aligned, and each tensor is a view of it. The
    worker thread runs the CRC a chunk behind the reads; the reading thread
    checks each newly read stretch of the payload for non-finite values. A
    tensor holding one is refused once everything else has passed.
    """
    with open(path, "rb", buffering=0) as fh:
        head, size = fh.read(16), os.fstat(fh.fileno()).st_size
        if size < 20:
            raise CheckpointError(f"{path}: too short to be a checkpoint")
        if head[:4] != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file (bad magic bytes)")
        version, hlen = struct.unpack_from("<IQ", head, 4)
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: format version {version}, this build reads version {CHECKPOINT_VERSION}"
            )
        start = min(16 + hlen, size - 4)  # where the payload starts
        data = np.empty(-start % 8 + size, np.uint8)[-start % 8 :]
        data[:16] = np.frombuffer(head, np.uint8)
        grid = data[start : start + (size - 4 - start) // 8 * 8].view("<f8")
        crc, pos, checked, finite, steps = zlib.crc32(head), 16, 0, True, []

        def crc_step(lo, hi):  # zlib runs without the GIL
            nonlocal crc
            crc = zlib.crc32(data[lo:hi], crc)

        try:
            while pos < size:
                got = fh.readinto(data[pos : pos + LOAD_CHUNK_BYTES])
                if not got:
                    break
                # The pool has one worker, so the steps of a load run in the order queued.
                steps.append(ad._submit(crc_step, pos, min(pos + got, size - 4)))
                pos += got
                done = min(max(pos - start, 0) // 8, len(grid))
                finite = finite and bool(np.isfinite(grid[checked:done]).all())
                checked = done
        finally:
            for step in steps:
                step.result()
    if pos < size or crc & 0xFFFFFFFF != struct.unpack_from("<I", data, size - 4)[0]:
        raise CheckpointError(f"{path}: checksum mismatch, file is corrupt or truncated")
    view = memoryview(data)
    try:
        header_end = 16 + hlen
        payload = view[header_end : size - 4]
        header = json.loads(str(view[16:header_end], "utf-8"))
        tensors = {entry["name"]: _read_tensor(payload, entry) for entry in header["tensors"]}
        mc = dict(header["model_config"])
        # Older checkpoints record the output width; this build only scores len(LABEL_ORDER).
        num_labels = mc.pop("num_labels", len(LABEL_ORDER))
        # Older checkpoints also record the training dropout rate, which inference never uses.
        mc.pop("dropout_p", None)
        mc["fc_dims"] = tuple(mc["fc_dims"])
        if not isinstance(header["vocab_sha256"], str):
            raise ValueError(f"vocab_sha256 must be a string, got {header['vocab_sha256']!r}")
        meta = header["metadata"]
        emb = meta.get("embedding", {}) if isinstance(meta, dict) else None
        oov_count = emb.get("oov_count", 0) if isinstance(emb, dict) else None
        if type(oov_count) is not int or oov_count < 0 or not isinstance(emb.get("trainable", True), bool):
            raise ValueError("metadata needs an 'embedding' object, a count oov_count, a bool trainable")
        ckpt = Checkpoint(
            model_config=m.ModelConfig(**mc),
            tensors=tensors,
            vocab_sha256=header["vocab_sha256"],
            metadata=meta,
        )
    except KeyError as exc:
        raise CheckpointError(f"{path}: checkpoint header lacks {exc}") from None
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed checkpoint: {exc}") from None
    if num_labels != len(LABEL_ORDER):
        raise CheckpointError(
            f"{path}: model scores {num_labels} labels, this build scores {len(LABEL_ORDER)}"
        )
    # The reading thread's check covered every tensor at an offset that is a multiple of 8.
    if not finite or any(entry["offset"] % 8 for entry in header["tensors"]):
        for name, arr in tensors.items():
            if not np.isfinite(arr).all():
                raise CheckpointError(f"{path}: tensor {name!r} holds non-finite values")
    kept = []  # views of one buffer: copy any that is misaligned or overlaps one kept before it
    for name, arr in tensors.items():
        if not arr.flags.aligned or any(np.may_share_memory(arr, other) for other in kept):
            tensors[name] = arr = arr.copy()
        kept.append(arr)
    return ckpt


def _read_tensor(payload: memoryview, entry: dict) -> np.ndarray:
    """One float64 tensor viewing the payload, bound-checked against its length."""
    shape, offset = tuple(entry["shape"]), entry["offset"]
    if not all(isinstance(v, int) and v >= 0 for v in (offset, *shape)):
        raise ValueError(f"tensor {entry['name']!r} has shape {shape} at offset {offset}")
    count = math.prod(shape)
    if offset + 8 * count > len(payload):
        raise ValueError(f"tensor {entry['name']!r} runs past the end of the payload")
    return np.frombuffer(payload, dtype="<f8", count=count, offset=offset).reshape(shape)


def params_from_checkpoint(ckpt: Checkpoint):
    """Rebuild (ModelConfig, ModelParams) from a loaded checkpoint."""
    cfg = ckpt.model_config
    emb_meta = ckpt.metadata.get("embedding", {})
    trainable = emb_meta.get("trainable", True)
    shapes = m.param_shapes(cfg)
    missing = [name for name in ("embedding", *shapes) if name not in ckpt.tensors]
    if missing:
        raise CheckpointError(f"checkpoint is missing tensors: {', '.join(missing)}")
    # One embedding row per vocab token: the caller holding the vocab checks the
    # exact count, and every vocab starts with the special tokens.
    got = ckpt.tensors["embedding"].shape
    if len(got) != 2 or got[0] < len(SPECIALS) or got[1] != cfg.embed_dim:
        raise CheckpointError(
            f"checkpoint tensor 'embedding' has shape {got}, the model config implies "
            f"{cfg.embed_dim} columns and a vocab at least {len(SPECIALS)} rows"
        )
    for name, want in shapes.items():
        if ckpt.tensors[name].shape != want:
            raise CheckpointError(
                f"checkpoint tensor {name!r} has shape {ckpt.tensors[name].shape}, "
                f"the model config implies {want}"
            )
    table = EmbeddingTable(
        weights=ad.Tensor(ckpt.tensors["embedding"], requires_grad=trainable),
        dim=cfg.embed_dim,
        oov_count=emb_meta.get("oov_count", 0),
        trainable=trainable,
    )
    named = {name: ad.Tensor(ckpt.tensors[name], requires_grad=True) for name in shapes}
    return cfg, m.ModelParams(table, named)


# ---------------------------------------------------------------------------
# evaluation helpers


def _texts(ds: Dataset) -> list:
    return [u.raw_text for d in ds.dialogues for u in d.utterances]


def vocab_from_dataset(ds: Dataset, min_count: int = 1) -> Vocab:
    texts = _texts(ds)
    tokens = prepare_distinct(texts)
    return build_vocab(map(tokens.__getitem__, texts), min_count=min_count)


def encode_dataset(ds: Dataset, vocab: Vocab, window_size: int):
    """Per-dialogue window encodings: [[(ids_list, gold_list), ...], ...].

    Each distinct text is prepared and encoded once; the utterances that
    share a text share its ids list, which nothing downstream modifies.
    """
    ids = {text: vocab.encode(seq) for text, seq in prepare_distinct(_texts(ds)).items()}
    return [
        [
            ([ids[u.raw_text] for u in w], [LABEL_INDEX[u.gold] for u in w])
            for w in split_windows(d.utterances, window_size)
        ]
        for d in ds.dialogues
    ]


# Real tokens per packed encode_sentence call in infer, which bounds its buffers.
# Full-size ModelConfig, one OpenBLAS thread, 2-core x86-64 VM, 10 windows of 15
# Poisson(11)-token utterances (1730 tokens): caps of 128, 256, 384, 512 and none
# peaked at 4.6, 8.2, 12.1, 16.1 and 52.6 MB of numpy allocations (tracemalloc),
# and infer took 97-124, 66-92, 59-71, 71-73 and 49-64 ms (medians of 7, two runs).
# Past 384 the peak grows with the cap; even no cap saves at most a fifth of the time.
INFER_BATCH_TOKENS = 384


def _token_batches(lengths: list, cap: int):
    """Indices of ``lengths`` sorted longest first, cut into runs of at most cap in total.

    An index whose length alone exceeds cap makes a run of its own.
    """
    batch, total = [], 0
    for i in sorted(range(len(lengths)), key=lengths.__getitem__, reverse=True):
        if batch and total + lengths[i] > cap:
            yield batch
            batch, total = [], 0
        batch.append(i)
        total += lengths[i]
    if batch:
        yield batch


def infer(windows, params, cfg) -> np.ndarray:
    """Logits of every utterance of the token-id windows, in order: (n, len(LABEL_ORDER)).

    The utterances of all windows are encoded together, in packed batches of
    at most INFER_BATCH_TOKENS tokens (an utterance's vector does not depend
    on its batch). One ``model.head`` call then scores them all, attention
    mixing only the rows of a window, as in ``model.forward_window``.
    """
    for ids_list in windows:
        m.check_window(ids_list, cfg)
    utts = [ids for ids_list in windows for ids in ids_list]
    u = np.empty((len(utts), cfg.sentence_dim))
    for batch in _token_batches([len(ids) for ids in utts], INFER_BATCH_TOKENS):
        u[batch] = m.encode_sentence([utts[i] for i in batch], params).data
    bounds = np.cumsum([0] + [len(ids_list) for ids_list in windows])
    return m.head(ad.Tensor(u), bounds, params, cfg).data


def _scoring_windows(by_dialogue):
    """(token-id windows, gold indices) over encode_dataset's windows, in order."""
    windows = [w for dlg in by_dialogue for w in dlg]
    return [ids_list for ids_list, _ in windows], [g for _, gs in windows for g in gs]


def evaluate_dataset(ds: Dataset, vocab: Vocab, params, cfg) -> mx.EvalReport:
    windows, golds = _scoring_windows(encode_dataset(ds, vocab, cfg.window_size))
    return mx.report(mx.predict(infer(windows, params, cfg)), golds)


# ---------------------------------------------------------------------------
# the loop


@dataclass
class TrainResult:
    best: Checkpoint
    last: Checkpoint
    history: list


def _optimize_step(windows, params, cfg, trainable, state, lr, cw, dropout, grad_clip):
    """Forward/backward/update over one step's windows. None if nothing weighted."""
    golds = [g for _, gs in windows for g in gs]
    if float(np.sum(cw[golds])) == 0.0:
        return None
    ids = [i for ids_list, _ in windows for i in ids_list]
    bounds = np.cumsum([0] + [len(gs) for _, gs in windows])
    with ad.Tape() as tape:
        logits = m.head(m.encode_sentence(ids, params), bounds, params, cfg, dropout)
        loss = weighted_cross_entropy(logits, golds, cw)
        grads = ad.backward(tape, loss)
    by_name = {name: grads[t] for name, t in trainable.items()}  # every one feeds the loss
    value = float(loss.data)
    # The tape holds the step's forward buffers and grads every op's gradient:
    # free them before clipping and Adam run.
    del tape, logits, loss, grads
    if grad_clip is not None:
        clip_gradients(by_name, grad_clip)
    adam_step(trainable, by_name, state, lr)
    return value


def train(
    ds: Dataset,
    vocab: Vocab,
    table: EmbeddingTable,
    mcfg: m.ModelConfig,
    tcfg: TrainConfig,
    val_ds: Dataset,
    on_epoch=None,
) -> TrainResult:
    """Train from scratch on ds, scoring every epoch on val_ds; deterministic given tcfg.seed.

    train() makes no split: the caller holds out what it scores on, before
    it builds the vocab. Pass ds itself as val_ds to score on the training
    set, as an overfitting check does; its windows are then encoded once.

    train() trains the table it is given; pass a copy to keep yours. Adam
    updates a trainable table's array in place, and ``last`` holds it.
    """
    params = m.ModelParams.init(mcfg, table, seed=tcfg.seed)
    trainable = params.trainable_tensors()
    arrays = {k: t.data for k, t in params.named_tensors().items()}  # Adam updates them in place
    state = AdamState(trainable)
    cw = np.asarray(tcfg.class_weights, dtype=np.float64)
    vocab_hash = vocab_content_sha256(vocab)

    by_dialogue = encode_dataset(ds, vocab, mcfg.window_size)
    scoring = by_dialogue if val_ds is ds else encode_dataset(val_ds, vocab, mcfg.window_size)
    val_windows, val_golds = _scoring_windows(scoring)
    flat = [pair for dlg in by_dialogue for ids_list, gs in dlg for pair in zip(ids_list, gs)]

    shuffle_rng = ad.seeded_rng(tcfg.seed, stream=1)
    dropout = (tcfg.dropout, ad.seeded_rng(tcfg.seed, stream=2))
    epochs = tcfg.epochs_for(mcfg.variant)

    history = []
    best_uwa, best_epoch, best_tensors = None, None, None
    for epoch in range(epochs):
        if best_epoch == epoch - 1:
            # The epoch just ended is the best so far: copy what this one can move.
            best_tensors = {k: a.copy() if k in trainable else a for k, a in arrays.items()}
        lr = learning_rate(tcfg.lr0, tcfg.decay, epoch)
        if mcfg.variant == "sa-bilstm":
            # One dialogue per step: its windows share one loss and each layer's dropout mask.
            steps = [by_dialogue[di] for di in shuffle_rng.permutation(len(by_dialogue))]
        else:
            # Flat utterance batches; rows are independent for this variant,
            # so a batch is one (ids, golds) window, whatever its size.
            shuffled = [flat[i] for i in shuffle_rng.permutation(len(flat))]
            steps = [[tuple(zip(*batch))] for batch in split_windows(shuffled, tcfg.batch_size)]
        losses = []
        for windows in steps:
            loss = _optimize_step(
                windows, params, mcfg, trainable, state, lr, cw, dropout, tcfg.grad_clip
            )
            if loss is not None:
                losses.append(loss)

        cm = mx.confusion(mx.predict(infer(val_windows, params, mcfg)), val_golds)
        val_wa, val_uwa = (mx.wa(cm), mx.uwa(cm)) if cm.total else (None, None)
        row = {
            "epoch": epoch,
            "lr": lr,
            "train_loss": float(np.mean(losses)) if losses else 0.0,
            "val_wa": val_wa,
            "val_uwa": val_uwa,
        }
        history.append(row)
        if on_epoch is not None:
            on_epoch(row)
        if val_uwa is not None and (best_uwa is None or val_uwa > best_uwa):
            best_uwa, best_epoch = val_uwa, epoch

    def checkpoint(tensors, epoch, rows):
        return Checkpoint(
            model_config=mcfg,
            tensors=tensors,
            vocab_sha256=vocab_hash,
            metadata={
                "epoch": epoch,
                "seed": tcfg.seed,
                "selected_by": "val_uwa",
                "history": rows,
                "train_config": dataclasses.asdict(tcfg),
                "embedding": {"oov_count": table.oov_count, "trainable": table.trainable},
                "tool_version": __version__,
            },
        )

    last = checkpoint(arrays, epochs - 1, history)
    if best_epoch is None or best_epoch == epochs - 1:
        best_ckpt = last
    else:
        best_ckpt = checkpoint(best_tensors, best_epoch, history[: best_epoch + 1])
    return TrainResult(best=best_ckpt, last=last, history=history)
