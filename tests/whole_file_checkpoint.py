"""A whole-file checkpoint reader, frozen as the oracle of ``train.load_checkpoint``.

``load_checkpoint`` reads the whole file, checks its CRC, then parses the
header and copies each tensor out of the payload, raising the messages
``train.load_checkpoint`` must raise. It checks no tensor for non-finite
values, which ``train.load_checkpoint`` refuses once everything else has passed.
"""
import json
import math
import struct
import zlib
from pathlib import Path

import numpy as np

from dialoglow import model as m
from dialoglow.corpus import LABEL_ORDER
from dialoglow.train import CHECKPOINT_MAGIC, CHECKPOINT_VERSION, Checkpoint, CheckpointError


def load_checkpoint(path) -> Checkpoint:
    data = memoryview(Path(path).read_bytes())  # slices share the bytes, no copies
    if len(data) < 20:
        raise CheckpointError(f"{path}: too short to be a checkpoint")
    if data[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic bytes)")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: format version {version}, this build reads version {CHECKPOINT_VERSION}"
        )
    (stored_crc,) = struct.unpack_from("<I", data, len(data) - 4)
    if zlib.crc32(data[:-4]) & 0xFFFFFFFF != stored_crc:
        raise CheckpointError(f"{path}: checksum mismatch, file is corrupt or truncated")
    (hlen,) = struct.unpack_from("<Q", data, 8)
    header_end = 16 + hlen
    payload = data[header_end : len(data) - 4]
    try:
        header = json.loads(str(data[16:header_end], "utf-8"))
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
    return ckpt


def _read_tensor(payload: memoryview, entry: dict) -> np.ndarray:
    """One float64 tensor of the payload, bound-checked against its length."""
    shape, offset = tuple(entry["shape"]), entry["offset"]
    if not all(isinstance(v, int) and v >= 0 for v in (offset, *shape)):
        raise ValueError(f"tensor {entry['name']!r} has shape {shape} at offset {offset}")
    count = math.prod(shape)
    if offset + 8 * count > len(payload):
        raise ValueError(f"tensor {entry['name']!r} runs past the end of the payload")
    arr = np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
    return arr.reshape(shape).astype(np.float64)
