"""Dialogue corpus model: labels, dialogues, windows and dataset loading.

The on-disk format is a JSON array of dialogues, each dialogue an array of
utterance objects with "speaker", "utterance" and "emotion" string fields.
An emotion names its label in any case, surrounding whitespace ignored.
Unknown fields are ignored; utterance text is kept byte for byte.
"""
from __future__ import annotations

import enum
import json
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .autodiff import seeded_rng
from .files import read_text


class CorpusError(ValueError):
    """Raised for malformed corpus files or records."""


class EmotionLabel(enum.Enum):
    NEUTRAL = "neutral"
    JOY = "joy"
    SADNESS = "sadness"
    ANGER = "anger"
    FEAR = "fear"
    SURPRISE = "surprise"
    DISGUST = "disgust"
    NON_NEUTRAL = "non-neutral"

    def __str__(self) -> str:
        return self.value


_LABEL_BY_NAME = {lab.value: lab for lab in EmotionLabel}

# Fixed label order; class-weight vectors and label histograms follow it.
LABEL_ORDER: tuple[EmotionLabel, ...] = tuple(EmotionLabel)

# Only these four labels are scored and carry loss weight by default. The
# remaining golds stay in the data but are ignored by metrics.
CONSIDERED_LABELS: tuple[EmotionLabel, ...] = (
    EmotionLabel.NEUTRAL,
    EmotionLabel.JOY,
    EmotionLabel.SADNESS,
    EmotionLabel.ANGER,
)

LABEL_INDEX = {lab: i for i, lab in enumerate(LABEL_ORDER)}


class Split(enum.Enum):
    TRAIN = "train"
    VALIDATION = "validation"
    TEST = "test"


@dataclass(frozen=True)
class Utterance:
    speaker_id: str
    raw_text: str
    gold: EmotionLabel


@dataclass
class Dialogue:
    id: str
    utterances: list[Utterance]

    def __post_init__(self):
        if not self.utterances:
            raise CorpusError(f"dialogue {self.id!r} has no utterances")

    def __len__(self) -> int:
        return len(self.utterances)


@dataclass
class Dataset:
    split: Split
    dialogues: list[Dialogue]

    def __post_init__(self):
        ids = [d.id for d in self.dialogues]
        if len(set(ids)) != len(ids):
            raise CorpusError(f"duplicate dialogue ids in {self.split.value} split")

    def utterance_count(self) -> int:
        return sum(len(d) for d in self.dialogues)


@dataclass
class CorpusStats:
    dialogues: int
    utterances: int
    unique_tokens: int
    label_histogram: dict[str, int] = field(default_factory=dict)

    def label_percentages(self) -> dict[str, float]:
        total = sum(self.label_histogram.values())
        if total == 0:
            return {k: 0.0 for k in self.label_histogram}
        return {k: 100.0 * v / total for k, v in self.label_histogram.items()}


def _byte_offset(doc: str, char_pos: int) -> int:
    return len(doc[:char_pos].encode("utf-8"))


def load_dataset(path: "str | Path", split: Split) -> Dataset:
    """Read one split from a JSON dialogue file.

    Raises:
        CorpusError: on bytes that are not UTF-8 or malformed JSON (both
            reported with a byte offset), on a non-array document, on unknown
            emotion strings (with the dialogue index) and on empty dialogues.
    """
    path = Path(path)
    text = read_text(path, CorpusError)
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise CorpusError(
            f"{path}: malformed JSON at byte offset {_byte_offset(text, e.pos)}: {e.msg}"
        ) from None
    if not isinstance(raw, list):
        raise CorpusError(f"{path}: expected a top-level JSON array of dialogues")
    dialogues = []
    for di, item in enumerate(raw):
        if not isinstance(item, list):
            raise CorpusError(f"{path}: dialogue {di} is not an array of utterances")
        if not item:
            raise CorpusError(f"{path}: dialogue {di} is empty")
        utts = []
        for ui, rec in enumerate(item):
            if not isinstance(rec, dict):
                raise CorpusError(
                    f"{path}: dialogue {di}, utterance {ui} is not an object"
                )
            try:
                speaker = rec["speaker"]
                text_field = rec["utterance"]
                emotion = rec["emotion"]
            except KeyError as e:
                raise CorpusError(
                    f"{path}: dialogue {di}, utterance {ui} lacks field {e.args[0]!r}"
                ) from None
            if not (
                isinstance(speaker, str) and isinstance(text_field, str) and isinstance(emotion, str)
            ):
                raise CorpusError(
                    f"{path}: dialogue {di}, utterance {ui} has non-string fields"
                )
            # A canonical label string needs no strip or lowercasing.
            gold = _LABEL_BY_NAME.get(emotion) or _LABEL_BY_NAME.get(emotion.strip().lower())
            if gold is None:
                raise CorpusError(f"{path}: unknown emotion {emotion!r} in dialogue {di}")
            utts.append(Utterance(speaker, text_field, gold))
        dialogues.append(Dialogue(id=f"{split.value}-{di:04d}", utterances=utts))
    return Dataset(split=split, dialogues=dialogues)


def split_windows(items: Sequence, window_size: int) -> list[list]:
    """Chop a sequence into greedy contiguous windows of at most window_size.

    Every item lands in exactly one window and order is preserved, so a
    60-utterance dialogue with window_size 25 gives windows of 25, 25 and 10.
    """
    if window_size < 1:
        raise ValueError(f"split_windows: window_size must be positive, got {window_size}")
    return [list(items[start : start + window_size]) for start in range(0, len(items), window_size)]


def corpus_stats(ds: Dataset, tokenizer: Callable[[str], Iterable[str]]) -> CorpusStats:
    """Count dialogues, utterances, distinct tokens and gold labels.

    ``tokenizer`` maps raw utterance text to tokens; distinct tokens are
    counted over the whole split with that mapping applied, once per
    distinct text.
    """
    utts = [u for d in ds.dialogues for u in d.utterances]
    texts = dict.fromkeys(u.raw_text for u in utts)
    golds = Counter(u.gold for u in utts)
    return CorpusStats(
        dialogues=len(ds.dialogues),
        utterances=len(utts),
        unique_tokens=len(set(chain.from_iterable(map(tokenizer, texts)))),
        label_histogram={lab.value: golds[lab] for lab in LABEL_ORDER},
    )


def split_train_validation(
    ds: Dataset, fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Seeded dialogue-level split; `fraction` of dialogues become validation.

    With fraction 0 (or a single-dialogue dataset and a fraction too small
    to take anything) the validation part is empty.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"validation fraction must be in [0, 1), got {fraction}")
    n_val = int(round(len(ds.dialogues) * fraction))
    order = seeded_rng(seed).permutation(len(ds.dialogues))
    val_idx = set(order[:n_val].tolist())
    train = [d for i, d in enumerate(ds.dialogues) if i not in val_idx]
    val = [d for i, d in enumerate(ds.dialogues) if i in val_idx]
    return (
        Dataset(split=ds.split, dialogues=train),
        Dataset(split=Split.VALIDATION, dialogues=val),
    )
