"""Tiny synthetic dialogue corpus whose labels leak through keywords.

Each utterance plants exactly one label-revealing keyword among filler
words, so any working encoder/classifier pair should overfit it fast.
Keywords are chosen to pass through text cleaning untouched: lowercase,
no letter runs of three, absent from the name/location tables.
"""

from . import autodiff as ad
from .corpus import CONSIDERED_LABELS, Dataset, Dialogue, EmotionLabel, Split, Utterance

KEYWORDS = {
    EmotionLabel.NEUTRAL: "okay",
    EmotionLabel.JOY: "glad",
    EmotionLabel.SADNESS: "gloomy",
    EmotionLabel.ANGER: "livid",
    EmotionLabel.SURPRISE: "whoa",  # outside the considered set, context only
}

FILLERS = ("well", "i", "feel", "so", "um", "really", "right", "now", "today", "honestly")


def build(n_dialogues: int = 20, seed: int = 0) -> Dataset:
    """Build a labeled corpus of 3 to 6 utterances per dialogue; every 8th
    utterance goes to a non-considered emotion so the zero-weight path gets
    exercised."""
    if n_dialogues < 1:
        raise ValueError("need at least one dialogue")
    rng = ad.seeded_rng(seed, stream=5)
    dialogues = []
    counter = 0
    for di in range(n_dialogues):
        n_utt = int(rng.integers(3, 7))
        utts = []
        for ui in range(n_utt):
            counter += 1
            if counter % 8 == 0:
                label = EmotionLabel.SURPRISE
            else:
                label = CONSIDERED_LABELS[counter % len(CONSIDERED_LABELS)]
            words = [str(w) for w in rng.choice(FILLERS, size=int(rng.integers(2, 5)))]
            words.insert(int(rng.integers(0, len(words) + 1)), KEYWORDS[label])
            utts.append(Utterance(speaker_id=f"s{ui % 2}", raw_text=" ".join(words), gold=label))
        dialogues.append(Dialogue(id=f"syn-{di:03d}", utterances=utts))
    return Dataset(split=Split.TRAIN, dialogues=dialogues)
