"""Text preparation pinned to the per-character loops the regex passes replaced.

`ref_clean_text`, `ref_collapse_duplicates` and `_runs` below are frozen
copies of `clean_text`, `collapse_duplicates` and `_runs` from
`src/dialoglow/preprocess.py` at commit
f08845059f657ec649a2067e495852bec4eb1d35, where the emoji pass and the
run-length collapse stepped through every character in Python. Only the
table loading is rebuilt here, from the same data files. The package must
give the same strings byte for byte.
"""
import re
import string
import sys
from typing import Iterable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialoglow import preprocess as pp
from test_preprocess import COLLAPSE_GOLDENS

_EMOJI = pp._read_table(pp._DATA_DIR / "emoji.tsv")


def _lexicon(which):
    entries = sorted(pp._read_table(pp._DATA_DIR / f"{which}.tsv"), key=len, reverse=True)
    return re.compile(r"\b(?:" + "|".join(re.escape(e) for e in entries) + r")\b")


_NAMES_RE, _LOCATIONS_RE = _lexicon("names"), _lexicon("locations")
_LEXICON_ENTRIES = [
    e for which in ("names", "locations") for e in pp._read_table(pp._DATA_DIR / f"{which}.tsv")
]


def ref_clean_text(raw: str) -> str:
    s = pp._URL_RE.sub("<url>", raw)
    emoji = _EMOJI
    if not s.isascii():
        out = []
        for ch in s:
            meaning = emoji.get(ch)
            if meaning is not None:
                out.append(f" {meaning} ")
            elif ch.isascii():
                out.append(ch)
        s = "".join(out)
    s = s.lower()
    s = pp._NUMBER_RE.sub("<number>", s)
    s = _NAMES_RE.sub("<name>", s)
    s = _LOCATIONS_RE.sub("<location>", s)
    return " ".join(s.split())


def _runs(chunk: str) -> Iterable[tuple[str, int]]:
    i = 0
    while i < len(chunk):
        j = i
        while j < len(chunk) and chunk[j] == chunk[i]:
            j += 1
        yield chunk[i], j - i
        i = j


def ref_collapse_duplicates(text: str) -> str:
    pieces = []
    for chunk in text.split():
        if pp._PLACEHOLDER_CHUNK_RE.match(chunk):
            pieces.append(chunk)
            continue
        current: list[str] = []
        marked = False

        def flush():
            nonlocal marked
            if current:
                pieces.append("".join(current) + (" <duplicate>" if marked else ""))
                current.clear()
            marked = False

        for ch, n in _runs(chunk):
            if ch.isalnum():
                if n >= 3:
                    current.append(ch)
                    marked = True
                else:
                    current.append(ch * n)
            elif n >= 2:
                flush()
                pieces.append(ch + " <duplicate>")
            else:
                current.append(ch)
        flush()
    return " ".join(pieces)


SPACES = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
ATOMS = [
    *string.ascii_letters, *string.digits, "_", *"!?.-'<>$:/",
    *SPACES,
    "<name>", "<aaa>", "http://x.io/a?b=1", "Ross", "New York",
    "\U0001f602", "\u2764", "\u2764\ufe0f", "\U0001f642\ufe0f",
    "\u00e9", "\u00df", "\u01c5", "\u0663", "\u00b2", "\u4f60", "\u0301",
    # Edges of the stage tests: case-folded URL starts (IGNORECASE lets the
    # long s stand for s), Kelvin sign and dotted I, digits beside letters and
    # marks, every lexicon entry in lower and title case.
    "WWW.", "HTTPS://", "hTTp\u017f://x.io", "\u017f", "\u212a", "\u0130",
    "a5", "5b", "5!", "?5", "5\u0301", "\u00e95",
    *_LEXICON_ENTRIES, *(e.title() for e in _LEXICON_ENTRIES),
]
# Runs of 1-5 repeats of each drawn atom, so letter runs, mark runs and
# their boundaries come up often.
texts = st.lists(
    st.builds(lambda atom, n: atom * n, st.sampled_from(ATOMS), st.integers(1, 5)),
    max_size=12,
).map("".join)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(texts, st.text()))
def test_text_preparation_matches_the_per_character_reference(raw):
    cleaned = ref_clean_text(raw)
    assert pp.clean_text(raw) == cleaned
    assert pp.collapse_duplicates(raw) == ref_collapse_duplicates(raw)
    assert pp.collapse_duplicates(cleaned) == ref_collapse_duplicates(cleaned)
    assert pp.prepare(raw) == pp.tokenize(ref_collapse_duplicates(cleaned))


def test_one_lexicon_pass_is_a_names_pass_then_a_locations_pass():
    # clean_text replaces names and locations in one pass. That gives what
    # the reference's two passes give while a name is one word, a location is
    # words and spaces, and no location holds a name, or the "name" of the
    # <name> placeholder, as a word.
    names = pp._read_table(pp._DATA_DIR / "names.tsv")
    locations = pp._read_table(pp._DATA_DIR / "locations.tsv")
    assert all(re.fullmatch(r"\w+", n) for n in names)
    assert all(re.fullmatch(r"\w+(?: \w+)*", loc) for loc in locations)
    assert not {w for loc in locations for w in loc.split()} & {*names, "name"}


@pytest.mark.parametrize("raw,want", COLLAPSE_GOLDENS, ids=repr)
def test_reference_gives_the_collapse_goldens(raw, want):
    assert ref_collapse_duplicates(raw) == want


def test_letter_run_class_is_exactly_isalnum():
    letter = re.compile(r"[^\W_]")
    assert all(
        bool(letter.match(chr(c))) == chr(c).isalnum() for c in range(sys.maxunicode + 1)
    )
