"""Helpers the tests share: a loss functional to differentiate and a corpus writer."""
import numpy as np

from dialoglow import autodiff as ad


def project(y, r):
    """The scalar sum(y * r) for a constant array r of y's shape, as one taped op."""
    r = np.asarray(r, dtype=np.float64)
    if r.shape != y.shape:
        raise ValueError(f"project: shapes differ, {y.shape} vs {r.shape}")
    return ad._out(np.sum(y.data * r), (y,), lambda g: (g * r,))


def serialize_dataset(ds):
    """Inverse of load_dataset for the content fields."""
    return [
        [
            {"speaker": u.speaker_id, "utterance": u.raw_text, "emotion": u.gold.value}
            for u in d.utterances
        ]
        for d in ds.dialogues
    ]
