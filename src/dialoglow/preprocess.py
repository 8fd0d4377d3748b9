"""Chat text cleanup, tokenization and vocabulary handling.

Cleaning pipeline, in order: URLs to <url>, emoji to their textual
meanings, every other non-ASCII character dropped, lowercasing, standalone
numerals to <number>, then known person names to <name> and known place
names to <location>. Duplicate-collapse runs afterwards: three or more of
one letter or digit (a character where str.isalnum() is true), or two or
more of one other mark, shrink to one copy and add a <duplicate> marker.
Tokenization keeps placeholders and contractions whole and splits
punctuation off. Each stage is idempotent.

The URL, emoji and number passes run only on a text where a cheap test
says their pattern can match (a "://" or "www.", a non-ASCII character, a
digit); names and locations are replaced in one pass over both lexicons;
duplicate-collapse rewrites a text from the chunk that holds its first run
on. The output is the same as running every pass over the whole text.
"""
from __future__ import annotations

import functools
import hashlib
import re
from collections import Counter
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable

from .files import write_atomic

# Token sequences are plain lists of non-empty, whitespace-free strings.
TokenSequence = list

PAD, UNK = "<pad>", "<unk>"
SPECIALS = (PAD, UNK, "<name>", "<location>", "<number>", "<url>", "<duplicate>")
PAD_ID, UNK_ID = 0, 1

_DATA_DIR = Path(__file__).resolve().parent / "data"

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_NUMBER_RE = re.compile(r"\b\d+(?:[.,:]\d+)*\b")
_PLACEHOLDER_CHUNK_RE = re.compile(r"^<[a-z]+>$")
_TOKEN_RE = re.compile(r"<[a-z]+>|[a-z0-9]+(?:'[a-z0-9]+)*|\S")
_NON_ASCII_RE = re.compile(r"[^\x00-\x7f]")
_DIGIT_RE = re.compile(r"\d")
# [^\W_] is exactly the characters where str.isalnum() is true.
_LETTER_RUN_RE = re.compile(r"([^\W_])\1\1+")
_MARK_RUN_RE = re.compile(r"([^\w\s]|_)\1+")
# A whitespace-delimited chunk that holds a run. The lookbehind keeps the
# lookahead to chunk starts, so a chunk is scanned once, not once per character.
_RUN_CHUNK_RE = re.compile(r"(?<!\S)(?=\S*?(?:([^\W_])\1\1|([^\w\s]|_)\2))\S+")
# Where a run starts: two equal adjacent non-space characters, followed by a
# third unless they are not letters or digits. It finds what _RUN_CHUNK_RE's
# lookahead finds, but without its per-chunk lookahead.
_RUN_RE = re.compile(r"(\S)\1(?:\1|(?<![^\W_]))")
# \s is exactly the characters where str.isspace() is true.
_SPACE_RE = re.compile(r"\s")


def _read_table(path: Path) -> dict[str, str]:
    table = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        surface, _, replacement = line.partition("\t")
        if surface and replacement:
            table[surface] = replacement
    return table


@functools.cache
def _emoji_table() -> dict[str, str]:
    return _read_table(_DATA_DIR / "emoji.tsv")


@functools.cache
def _lexicon() -> "tuple[re.Pattern[str], dict[str, str]]":
    """One pattern over every name and location, and each entry's placeholder."""
    table = {**_read_table(_DATA_DIR / "names.tsv"), **_read_table(_DATA_DIR / "locations.tsv")}
    entries = sorted(table, key=len, reverse=True)
    return re.compile(r"\b(?:" + "|".join(re.escape(e) for e in entries) + r")\b"), table


def clean_text(raw: str) -> str:
    """Normalize one raw utterance to lowercase ASCII plus placeholders."""
    # IGNORECASE lets no character but W stand for w, and "://" is literal.
    s = _URL_RE.sub("<url>", raw) if "://" in raw or "www." in raw.lower() else raw
    if not s.isascii():
        emoji = _emoji_table()
        # A table emoji becomes its meaning; any other non-ASCII character is dropped.
        s = _NON_ASCII_RE.sub(lambda m: f" {emoji[m[0]]} " if m[0] in emoji else "", s)
    s = s.lower()
    if _DIGIT_RE.search(s):
        s = _NUMBER_RE.sub("<number>", s)
    # A name is one word, and no location holds a name (or the "name" of
    # <name>) as a word, so one pass gives what a names pass, then a
    # locations pass, would give.
    lexicon, placeholder = _lexicon()
    s = lexicon.sub(lambda m: placeholder[m[0]], s)
    return " ".join(s.split())


def _collapse_chunk(match: "re.Match[str]") -> str:
    chunk = match[0]
    if _PLACEHOLDER_CHUNK_RE.match(chunk):
        return chunk
    # split() alternates word pieces (even indices) with captured marks (odd).
    pieces = []
    for i, part in enumerate(_MARK_RUN_RE.split(chunk)):
        if i % 2:
            pieces.append(part + " <duplicate>")
        elif part:
            word, n = _LETTER_RUN_RE.subn(r"\1", part)
            pieces.append(word + " <duplicate>" if n else word)
    return " ".join(pieces)


def collapse_duplicates(text: str) -> str:
    """Collapse stretched spellings, appending a <duplicate> marker.

    A run is three or more of one letter or digit (a character where
    str.isalnum() is true), or two or more of one other non-space mark.
    A letter run keeps one copy and marks its word; a mark run becomes a
    single detached mark plus the marker. Placeholder chunks such as
    "<name>" stay whole. "cool" stays as is, "oooooh" becomes
    "oh <duplicate>" and "oh!!!!!!" becomes "oh ! <duplicate>".
    """
    s = " ".join(text.split())
    first = _RUN_RE.search(s)
    if first is None:
        return s
    # The chunks before the first run's chunk hold no run; _collapse_chunk
    # joins its pieces with single spaces, so the result stays normalized.
    i = s.rfind(" ", 0, first.start()) + 1
    return s[:i] + _RUN_CHUNK_RE.sub(_collapse_chunk, s[i:])


def tokenize(text: str) -> TokenSequence:
    """Lowercase and split into tokens; empty input maps to [<unk>].

    Placeholders stay atomic, contractions stay attached ("don't" is one
    token) and punctuation becomes separate single-character tokens.
    """
    tokens = _TOKEN_RE.findall(text.lower())
    return tokens if tokens else [UNK]


def prepare(raw: str) -> TokenSequence:
    """Full pipeline: clean, collapse duplicates, tokenize."""
    return tokenize(collapse_duplicates(clean_text(raw)))


def prepare_distinct(texts: Iterable[str]) -> dict[str, TokenSequence]:
    """Each distinct text of ``texts``, in first-seen order, mapped to prepare(text).

    prepare() is a pure function of its text, so a text that repeats is
    prepared once; callers look each utterance's tokens up by its text.
    """
    return {text: prepare(text) for text in dict.fromkeys(texts)}


class Vocab:
    """Bijective token/id mapping with pinned special tokens.

    Ids are dense, <pad> is always 0 and <unk> always 1. The persisted
    form is one token per line with the line number as the id.
    """

    def __init__(self, tokens: Iterable[str]):
        self.tokens: list[str] = list(tokens)
        if self.tokens[: len(SPECIALS)] != list(SPECIALS):
            raise ValueError(f"vocab must start with the special tokens {SPECIALS}")
        self.index: dict[str, int] = dict(zip(self.tokens, range(len(self.tokens))))
        # A duplicate shrinks the index; an empty token, or one holding
        # whitespace, shows in the joined text. Only then does the per-token
        # loop run, to name the first bad token.
        if len(self.index) != len(self.tokens) or "" in self.index or _SPACE_RE.search(
            "".join(self.tokens)
        ):
            seen = set()
            for i, tok in enumerate(self.tokens):
                if tok.split() != [tok]:
                    raise ValueError(f"bad vocab token at id {i}: {tok!r}")
                if tok in seen:
                    raise ValueError(f"duplicate vocab token: {tok!r}")
                seen.add(tok)

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, seq: Iterable[str]) -> list[int]:
        """Map tokens to ids; unknown tokens (and any literal <pad>) to <unk>."""
        # PAD_ID is 0, the one falsy id, so `or` sends a literal <pad> to <unk>.
        return [i or UNK_ID for i in map(self.index.get, seq, repeat(UNK_ID))]

    def save(self, path: "str | Path") -> None:
        write_atomic(path, ("\n".join(self.tokens) + "\n").encode("utf-8"))

    @classmethod
    def load(cls, path: "str | Path") -> "Vocab":
        # The benchmark's worker (perfbench/worker.py) reads vocab.txt through this.
        return cls.from_bytes(Path(path).read_bytes())

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Vocab":
        """The vocab whose saved file holds ``blob``."""
        return cls(blob.decode("utf-8").splitlines())


def build_vocab(corpus: Iterable[Iterable[str]], min_count: int = 1) -> Vocab:
    """Specials first, then tokens by descending count, ties alphabetical.

    Tokens seen fewer than min_count times are left out and will encode
    to <unk>.
    """
    counts = Counter(chain.from_iterable(corpus))
    ranked = sorted(tok for tok, c in counts.items() if c >= min_count and tok not in SPECIALS)
    # A reverse sort is stable too: tokens of one count stay alphabetical.
    ranked.sort(key=counts.__getitem__, reverse=True)
    return Vocab(list(SPECIALS) + ranked)


def vocab_sha256(path: "str | Path") -> str:
    # The benchmark's worker (perfbench/worker.py) checks vocab.txt's hash through this.
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def vocab_content_sha256(vocab: Vocab) -> str:
    """Hash of exactly the bytes save() would write, no file needed."""
    blob = ("\n".join(vocab.tokens) + "\n").encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
