"""Seeded, paper-shaped corpus generator for the benchmark workloads.

Token streams are Zipfian over a pseudo-word core plus a tail of one-off
words (typos, rare names), so a corpus of realistic size reaches the
intended vocabulary. Lengths are Poisson. The label mix follows the
EmotionLines Friends split, so golds outside the four considered labels
occur and the zero-weight loss path runs. Raw text carries every feature
`clean_text` handles: URLs, emoji, other non-ASCII letters, numerals,
known names and places, and stretched spellings.

Only the standard library is used, so the same seed gives the same files
on any numpy version.
"""
from __future__ import annotations

import json
import math
import random
from itertools import accumulate
from dataclasses import dataclass
from pathlib import Path

# EmotionLines (Friends) label shares, in percent.
LABEL_MIX = {
    "neutral": 45.0, "joy": 11.8, "sadness": 3.4, "anger": 5.2,
    "surprise": 11.3, "fear": 1.7, "disgust": 2.3, "non-neutral": 19.3,
}
NAMES = ("Monica", "Chandler", "Joey", "Phoebe", "Rachel", "Ross", "Gunther", "Janice")
PLACES = ("New York", "Vegas", "London", "Central Park", "Poughkeepsie")
EMOJI = ("😂", "❤", "😭", "🙂", "👍", "😡", "😱", "🎉")
ACCENTED = ("café", "naïve", "señor", "über")
PUNCT = (".", ",", "!", "?", "...")
ONSETS = ("b", "br", "c", "ch", "d", "f", "g", "gr", "h", "j", "k", "l", "m", "n",
          "p", "pl", "r", "s", "sh", "st", "t", "th", "tr", "v", "w", "z")
VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "ou")
CODAS = ("", "", "n", "r", "s", "t", "ck", "ld", "mp", "nd", "st")


@dataclass(frozen=True)
class Shape:
    """Corpus shape for one workload."""

    core_words: int  # Zipf-ranked common words
    zipf_s: float  # Zipf-Mandelbrot exponent over the core ranks
    tail_rate: float  # share of word tokens that are one-off tail words
    utt_len: float  # Poisson mean tokens per utterance
    min_len: int
    max_len: int
    dlg_len: float  # Poisson mean utterances per dialogue
    feature_rate: float  # share of tokens that are raw-text features


def _poisson(rng: random.Random, mean: float) -> int:
    # Knuth's method; the means used here are small.
    limit, k, p = math.exp(-mean), 0, 1.0
    while True:
        p *= rng.random()
        if p <= limit:
            return k
        k += 1


def _poisson_quantile(mean: float, q: float) -> int:
    k, term = 0, math.exp(-mean)
    cdf = term
    while cdf < q:
        k += 1
        term *= mean / k
        cdf += term
    return k


class Generator:
    def __init__(self, shape: Shape, seed: int):
        self.shape = shape
        self.rng = random.Random(seed)
        words = self._pseudo_words()
        self.core = words[: shape.core_words]
        self.tail = words[shape.core_words :]
        self.tail_next = 0
        ranks = range(1, shape.core_words + 1)
        self.cum = list(accumulate(1.0 / (r + 2.7) ** shape.zipf_s for r in ranks))
        self.labels = list(LABEL_MIX)
        self.label_cum = list(accumulate(LABEL_MIX.values()))

    def _pseudo_words(self, count: int = 60000) -> list:
        """Distinct lowercase syllable words in a seeded order."""
        rng, seen, out = self.rng, set(), []
        while len(out) < count:
            n = rng.choice((1, 1, 2, 2, 3))
            w = "".join(rng.choice(ONSETS) + rng.choice(VOWELS) for _ in range(n))
            w += rng.choice(CODAS)
            if w not in seen:
                seen.add(w)
                out.append(w)
        return out

    def _word(self) -> str:
        rng = self.rng
        if rng.random() < self.shape.tail_rate and self.tail_next < len(self.tail):
            self.tail_next += 1
            return self.tail[self.tail_next - 1]
        return rng.choices(self.core, cum_weights=self.cum)[0]

    def _feature(self) -> str:
        rng = self.rng
        kind = rng.randrange(8)
        if kind == 0:
            return f"https://www.{self._word()}.com/{rng.randrange(1000)}"
        if kind == 1:
            return rng.choice(EMOJI)
        if kind == 2:
            return rng.choice(ACCENTED)
        if kind == 3:
            return rng.choice((str(rng.randrange(100)), f"{rng.randrange(1, 13)}:{rng.randrange(10, 60)}",
                               f"{rng.randrange(1, 10)},{rng.randrange(100, 1000)}"))
        if kind == 4:
            return rng.choice(NAMES)
        if kind == 5:
            return rng.choice(PLACES)
        if kind == 6:  # stretched spelling: "sooooo", "nooo"
            w = self._word()
            i = rng.randrange(len(w))
            return w[: i + 1] + w[i] * rng.randrange(2, 6) + w[i + 1 :]
        return rng.choice(("!!!", "??", "?!", "..."))

    def utterance(self, n: int) -> str:
        s, rng = self.shape, self.rng
        n = min(max(n, s.min_len), s.max_len)
        toks = [self._feature() if rng.random() < s.feature_rate else self._word() for _ in range(n)]
        if n > 1 and rng.random() < 0.5:
            toks[-1] = rng.choice(PUNCT)
        if rng.random() < 0.3:
            toks[0] = toks[0].capitalize()
        return " ".join(toks)

    def label(self) -> str:
        return self.rng.choices(self.labels, cum_weights=self.label_cum)[0]

    def dialogue(self, n: "int | None" = None) -> list:
        """One dialogue, Poisson-long unless n is given.

        Utterance lengths are the n stratified quantiles of the length
        distribution in seeded order, so dialogues with the same n carry the
        same number of word slots and timed work does not swing with the seed.
        """
        rng, s = self.rng, self.shape
        if n is None:
            n = max(_poisson(rng, s.dlg_len), 2)
        lengths = [_poisson_quantile(s.utt_len, (i + 0.5) / n) for i in range(n)]
        rng.shuffle(lengths)
        speakers = rng.sample(NAMES, 2)
        return [
            {"speaker": speakers[i % 2], "utterance": self.utterance(lengths[i]),
             "emotion": self.label(), "turn": i}
            for i in range(n)
        ]

    def corpus(self, n_utterances: int) -> list:
        """Whole dialogues until at least n_utterances are produced."""
        out, total = [], 0
        while total < n_utterances:
            d = self.dialogue()
            out.append(d)
            total += len(d)
        return out


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, ensure_ascii=False), encoding="utf-8")


def utterances(doc: list) -> int:
    return sum(len(d) for d in doc)
