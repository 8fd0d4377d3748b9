import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialoglow import preprocess as pp


CLEAN_GOLDENS = [
    ("I have 3 cats", "i have <number> cats"),
    ("see http://a.b now", "see <url> now"),
    ("ok \U0001f642", "ok slightly smiling face"),
    ("Ross loves Rachel", "<name> loves <name>"),
    ("flying to New York tomorrow", "flying to <location> tomorrow"),
    ("naïve café", "nave caf"),
    ("WWW.EXAMPLE.COM/a?b=1 rocks", "<url> rocks"),
    ("Call me at 10:30, okay?", "call me at <number>, okay?"),
    ("she spent $1,000 already", "she spent $<number> already"),
    ("I ❤ you", "i heavy black heart you"),
    ("你好 world", "world"),
    ("He's   SO\tdone", "he's so done"),
    ("2nd time in Paris!!", "2nd time in <location>!!"),
    ("", ""),
]

COLLAPSE_GOLDENS = [
    ("oooooh", "oh <duplicate>"),
    ("oh!!!!!!", "oh ! <duplicate>"),
    ("cool", "cool"),
    ("soooo cool", "so <duplicate> cool"),
    ("what?!", "what?!"),
    ("no way...", "no way . <duplicate>"),
    ("yayyy!!", "yay <duplicate> ! <duplicate>"),
    ("<duplicate>", "<duplicate>"),
    ("hmmm", "hm <duplicate>"),
    ("cooool stuff", "col <duplicate> stuff"),
    ("<name>!!!", "<name> ! <duplicate>"),
    ("a--b", "a - <duplicate> b"),
    ("", ""),
    ("<aaa>!!", "<a> <duplicate> ! <duplicate>"),
    ("a__b", "a _ <duplicate> b"),
    ("\u00e9\u00e9\u00e9", "\u00e9 <duplicate>"),
    ("1111", "1 <duplicate>"),
    ("?!!", "? ! <duplicate>"),
]

TOKENIZE_GOLDENS = [
    ("but /you/ bug /me/", ["but", "/", "you", "/", "bug", "/", "me", "/"]),
    ("don't worry", ["don't", "worry"]),
    ("oh ! <duplicate>", ["oh", "!", "<duplicate>"]),
    ("", ["<unk>"]),
    ("well-known fact", ["well", "-", "known", "fact"]),
    ("I CAN'T", ["i", "can't"]),
    ("wait, <number>?", ["wait", ",", "<number>", "?"]),
]

PREPARE_GOLDENS = [
    (
        "Oooooh nooo, Ross!!!",
        ["oh", "<duplicate>", "no", ",", "<duplicate>", "<name>", "!", "<duplicate>"],
    ),
    (
        "I'm sooo happy \U0001f602 http://x.io",
        ["i'm", "so", "<duplicate>", "happy", "face", "with", "tears", "of", "joy", "<url>"],
    ),
    ("You owe me 20 bucks", ["you", "owe", "me", "<number>", "bucks"]),
    ("   ", ["<unk>"]),
]


@pytest.mark.parametrize("raw,want", CLEAN_GOLDENS, ids=repr)
def test_clean_text_goldens_and_idempotency(raw, want):
    got = pp.clean_text(raw)
    assert got == want
    assert pp.clean_text(got) == want


@pytest.mark.parametrize("raw,want", COLLAPSE_GOLDENS, ids=repr)
def test_collapse_duplicates_goldens_and_idempotency(raw, want):
    got = pp.collapse_duplicates(raw)
    assert got == want
    assert pp.collapse_duplicates(got) == want


@pytest.mark.parametrize("raw,want", TOKENIZE_GOLDENS, ids=repr)
def test_tokenize_goldens_and_stability(raw, want):
    got = pp.tokenize(raw)
    assert got == want
    assert pp.tokenize(" ".join(got)) == want


@pytest.mark.parametrize("raw,want", PREPARE_GOLDENS, ids=repr)
def test_prepare_goldens(raw, want):
    assert pp.prepare(raw) == want


def test_cleaned_output_is_ascii():
    for raw, _ in CLEAN_GOLDENS:
        assert pp.clean_text(raw).isascii()


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=60))
def test_clean_text_deterministic_and_idempotent(raw):
    once = pp.clean_text(raw)
    assert pp.clean_text(raw) == once
    assert pp.clean_text(once) == once
    assert once.isascii()


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=60))
def test_collapse_idempotent_after_clean(raw):
    cleaned = pp.clean_text(raw)
    once = pp.collapse_duplicates(cleaned)
    assert pp.collapse_duplicates(once) == once


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=60))
def test_tokenize_yields_trimmed_nonempty_tokens(raw):
    tokens = pp.prepare(raw)
    assert tokens
    for tok in tokens:
        assert tok
        assert not any(c.isspace() for c in tok)
        assert tok == tok.lower()


def test_vocab_specials_pinned_and_bijective():
    v = pp.build_vocab([["hello", "world", "hello"]])
    assert v.tokens[: len(pp.SPECIALS)] == list(pp.SPECIALS)
    assert v.index[pp.PAD] == 0 and v.index[pp.UNK] == 1
    for i, tok in enumerate(v.tokens):
        assert v.index[tok] == i


def test_build_vocab_orders_by_count_then_alphabetical():
    corpus = [["b", "a", "b", "c", "a", "b"], ["c", "d"]]
    v = pp.build_vocab(corpus)
    assert v.tokens[len(pp.SPECIALS) :] == ["b", "a", "c", "d"]
    v2 = pp.build_vocab(corpus, min_count=2)
    assert v2.tokens[len(pp.SPECIALS) :] == ["b", "a", "c"]


def test_build_vocab_ignores_special_occurrences_in_corpus():
    v = pp.build_vocab([["<duplicate>", "so", "<duplicate>", "<unk>"]])
    assert v.tokens.count("<duplicate>") == 1
    assert v.tokens[len(pp.SPECIALS) :] == ["so"]


@settings(max_examples=100, deadline=None)
@given(
    seqs=st.lists(
        st.lists(st.sampled_from(["a", "b", "c", "dd", "ee", "ff"]), max_size=8),
        max_size=8,
    ),
    seed=st.integers(0, 2**31 - 1),
)
def test_build_vocab_invariant_to_corpus_order(seqs, seed):
    import random

    shuffled = list(seqs)
    random.Random(seed).shuffle(shuffled)
    assert pp.build_vocab(seqs).tokens == pp.build_vocab(shuffled).tokens


def test_encode_maps_unknown_to_unk_and_never_pad():
    v = pp.build_vocab([["hi", "there"]])
    ids = v.encode(["hi", "zzz", "<pad>", "there", "<unk>", "<pad>", "<name>"])
    unk = pp.UNK_ID
    assert ids == [v.index["hi"], unk, unk, v.index["there"], unk, unk, v.index["<name>"]]
    assert v.encode([]) == []


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=40))
def test_pipeline_encode_never_yields_pad(raw):
    v = pp.build_vocab([pp.prepare(raw)])
    assert pp.PAD_ID not in v.encode(pp.prepare(raw))


def test_vocab_save_load_round_trip(tmp_path):
    v = pp.build_vocab([["one", "two", "two"]])
    path = tmp_path / "vocab.txt"
    v.save(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == v.tokens  # line number is the id
    v2 = pp.Vocab.load(path)
    assert v2.tokens == v.tokens and v2.index == v.index
    assert pp.vocab_sha256(path) == pp.vocab_sha256(path)


def per_token_vocab_error(tokens):
    """Reference: the first bad token's message from a check of each token in turn, or None."""
    index = {}
    for i, tok in enumerate(tokens):
        if tok.split() != [tok]:
            return f"bad vocab token at id {i}: {tok!r}"
        if tok in index:
            return f"duplicate vocab token: {tok!r}"
        index[tok] = i
    return None


def vocab_error(tokens):
    try:
        pp.Vocab(tokens)
    except ValueError as exc:
        return str(exc)
    return None


def test_vocab_rejects_bad_shapes():
    with pytest.raises(ValueError):
        pp.Vocab(["<pad>", "<unk>"])  # specials incomplete
    with pytest.raises(ValueError):
        pp.Vocab(list(pp.SPECIALS) + ["dup", "dup"])
    with pytest.raises(ValueError):
        pp.Vocab(list(pp.SPECIALS) + ["has space"])


@pytest.mark.parametrize(
    "extra",
    [
        ["", "a b"],  # two words in all, so a word count over the joined tokens passes them
        ["a b", ""],
        ["dup", "dup", "a b"],
        ["a b", "dup", "dup"],
        ["dup", "ok", "dup"],
        ["ok", "<name>"],
        ["ok", " "],
    ],
    ids=repr,
)
def test_vocab_names_the_first_bad_token_as_the_per_token_loop_did(extra):
    tokens = list(pp.SPECIALS) + extra
    assert per_token_vocab_error(tokens) is not None
    assert vocab_error(tokens) == per_token_vocab_error(tokens)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["a", "b", "ab", "", " ", "a b", "\t", "\x1c", "\u200b", "\u3000"])))
def test_vocab_accepts_and_refuses_what_the_per_token_loop_did(extra):
    tokens = list(pp.SPECIALS) + extra
    assert vocab_error(tokens) == per_token_vocab_error(tokens)


def test_vocab_rejects_every_whitespace_character():
    spaces = [chr(c) for c in range(0x110000) if chr(c).isspace()]
    assert len(spaces) > 20
    for c in spaces:
        for tok in (c, f"a{c}b", f"{c}a"):
            tokens = list(pp.SPECIALS) + ["ok", tok, "ok"]
            assert vocab_error(tokens) == f"bad vocab token at id 8: {tok!r}"
            assert vocab_error(tokens) == per_token_vocab_error(tokens)
    with pytest.raises(ValueError, match="bad vocab token"):
        pp.Vocab(list(pp.SPECIALS) + [""])
    # A character str.isspace does not count, like a zero-width space, is token text.
    assert "a\u200bb" in pp.Vocab(list(pp.SPECIALS) + ["a\u200bb"]).index
