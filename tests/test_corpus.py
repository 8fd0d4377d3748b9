import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialoglow import autodiff as ad
from dialoglow import corpus
from dialoglow.corpus import (
    CorpusError,
    Dialogue,
    Dataset,
    EmotionLabel,
    Split,
    Utterance,
)
from helpers import serialize_dataset

DIAL = [
    [
        {"speaker": "Chandler", "utterance": "Could I BE any more bored?", "emotion": "neutral"},
        {"speaker": "Joey", "utterance": "Yes.", "emotion": "Joy"},
    ],
    [
        {"speaker": "Monica", "utterance": "I'm FINE.", "emotion": "ANGER", "extra": 1},
        {"speaker": "Ross", "utterance": "We were on a break!", "emotion": "non-neutral"},
        {"speaker": "Rachel", "utterance": "  spaces  kept  ", "emotion": "Sadness"},
    ],
]


def write_corpus(tmp_path, payload, name="corpus.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")
    return p


def test_load_dataset_reads_fields_and_labels(tmp_path):
    ds = corpus.load_dataset(write_corpus(tmp_path, DIAL), Split.TRAIN)
    assert ds.split is Split.TRAIN
    assert len(ds.dialogues) == 2 and ds.utterance_count() == 5
    first = ds.dialogues[0].utterances[0]
    assert first.speaker_id == "Chandler"
    assert first.raw_text == "Could I BE any more bored?"
    assert first.gold is EmotionLabel.NEUTRAL
    assert ds.dialogues[0].utterances[1].gold is EmotionLabel.JOY
    assert ds.dialogues[1].utterances[0].gold is EmotionLabel.ANGER
    assert ds.dialogues[1].utterances[1].gold is EmotionLabel.NON_NEUTRAL
    # Whitespace in utterance text survives untouched.
    assert ds.dialogues[1].utterances[2].raw_text == "  spaces  kept  "
    assert [d.id for d in ds.dialogues] == ["train-0000", "train-0001"]


def test_malformed_json_reports_byte_offset(tmp_path):
    doc = '[[{"speaker": "é", "utterance": "hi", "emotion": "joy"}]] trailing'
    p = tmp_path / "bad.json"
    p.write_text(doc, encoding="utf-8")
    try:
        json.loads(doc)
    except json.JSONDecodeError as e:
        char_pos = e.pos
    byte_pos = len(doc[:char_pos].encode("utf-8"))
    assert byte_pos == char_pos + 1  # the two-byte é shifts it
    with pytest.raises(CorpusError) as err:
        corpus.load_dataset(p, Split.TEST)
    assert f"byte offset {byte_pos}" in str(err.value)


def test_unknown_emotion_names_string_and_dialogue(tmp_path):
    bad = [DIAL[0], [{"speaker": "x", "utterance": "y", "emotion": "confuzzled"}]]
    p = write_corpus(tmp_path, bad)
    with pytest.raises(CorpusError) as err:
        corpus.load_dataset(p, Split.TRAIN)
    assert str(err.value) == f"{p}: unknown emotion 'confuzzled' in dialogue 1"


SPELLINGS = {
    " Joy ": EmotionLabel.JOY, "JOY\n": EmotionLabel.JOY, "joy": EmotionLabel.JOY,
    "NON-NEUTRAL": EmotionLabel.NON_NEUTRAL, " Surprise ": EmotionLabel.SURPRISE,
}


@pytest.mark.parametrize("label", list(SPELLINGS), ids=repr)
def test_label_spellings_load_as_the_canonical_label(tmp_path, label):
    # "joy" takes the canonical-string lookup; the others fall back to the
    # stripped, lower-cased one.
    doc = [[{"speaker": "a", "utterance": "hi", "emotion": label}]]
    ds = corpus.load_dataset(write_corpus(tmp_path, doc), Split.TRAIN)
    assert ds.dialogues[0].utterances[0].gold is SPELLINGS[label]
    assert str(EmotionLabel.DISGUST) == "disgust"


def test_empty_dialogue_rejected(tmp_path):
    with pytest.raises(CorpusError):
        corpus.load_dataset(write_corpus(tmp_path, [DIAL[0], []]), Split.TRAIN)


def test_missing_field_and_non_array_rejected(tmp_path):
    with pytest.raises(CorpusError) as err:
        corpus.load_dataset(
            write_corpus(tmp_path, [[{"speaker": "a", "emotion": "joy"}]]), Split.TRAIN
        )
    assert "utterance" in str(err.value)
    with pytest.raises(CorpusError):
        corpus.load_dataset(write_corpus(tmp_path, {"not": "a list"}), Split.TRAIN)


def test_serialize_round_trips_content(tmp_path):
    ds = corpus.load_dataset(write_corpus(tmp_path, DIAL), Split.TRAIN)
    out = serialize_dataset(ds)
    for orig_d, out_d in zip(DIAL, out):
        for orig_u, out_u in zip(orig_d, out_d):
            assert out_u["speaker"] == orig_u["speaker"]
            assert out_u["utterance"] == orig_u["utterance"]
            assert out_u["emotion"] == orig_u["emotion"].lower()


def make_dialogue(n, id="d0"):
    utts = [
        Utterance(speaker_id="s", raw_text=f"utt {i}", gold=EmotionLabel.NEUTRAL)
        for i in range(n)
    ]
    return Dialogue(id=id, utterances=utts)


def test_sixty_utterances_window_into_25_25_10():
    d = make_dialogue(60)
    windows = corpus.split_windows(d.utterances, window_size=25)
    assert [len(w) for w in windows] == [25, 25, 10]
    assert all(type(w) is list for w in windows)
    flat = [u for w in windows for u in w]
    assert [u.raw_text for u in flat] == [f"utt {i}" for i in range(60)]
    assert corpus.split_windows(tuple(range(5)), 2) == [[0, 1], [2, 3], [4]]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 120), window_size=st.integers(1, 30))
def test_windows_partition_dialogue_in_order(n, window_size):
    d = make_dialogue(n)
    windows = corpus.split_windows(d.utterances, window_size)
    assert all(1 <= len(w) <= window_size for w in windows)
    assert sum(len(w) for w in windows) == n
    pos = 0
    for w in windows:
        assert w == d.utterances[pos : pos + len(w)]
        pos += len(w)


def test_corpus_stats_counts_and_histogram(tmp_path):
    ds = corpus.load_dataset(write_corpus(tmp_path, DIAL), Split.TRAIN)
    stats = corpus.corpus_stats(ds, tokenizer=str.split)
    assert stats.dialogues == 2
    assert stats.utterances == 5
    tokens = set()
    for d in DIAL:
        for u in d:
            tokens.update(u["utterance"].split())
    assert stats.unique_tokens == len(tokens)
    assert set(stats.label_histogram) == {lab.value for lab in EmotionLabel}
    assert stats.label_histogram["neutral"] == 1
    assert stats.label_histogram["fear"] == 0


@settings(max_examples=100, deadline=None)
@given(counts=st.lists(st.integers(0, 40), min_size=8, max_size=8))
def test_label_percentages_sum_to_100(counts):
    hist = {lab.value: c for lab, c in zip(corpus.LABEL_ORDER, counts)}
    stats = corpus.CorpusStats(1, max(sum(counts), 1), 1, hist)
    total = sum(stats.label_percentages().values())
    if sum(counts) > 0:
        assert abs(total - 100.0) < 1e-9
    else:
        assert total == 0.0


def test_duplicate_dialogue_ids_rejected():
    with pytest.raises(CorpusError):
        Dataset(
            split=Split.TRAIN,
            dialogues=[make_dialogue(1, "same"), make_dialogue(2, "same")],
        )


def test_empty_dialogue_object_rejected():
    with pytest.raises(CorpusError):
        Dialogue(id="d", utterances=[])


def test_train_validation_split_partitions_and_is_seeded():
    ds = Dataset(
        split=Split.TRAIN,
        dialogues=[make_dialogue(2, f"d{i}") for i in range(10)],
    )
    tr1, va1 = corpus.split_train_validation(ds, 0.3, seed=9)
    tr2, va2 = corpus.split_train_validation(ds, 0.3, seed=9)
    assert [d.id for d in tr1.dialogues] == [d.id for d in tr2.dialogues]
    assert [d.id for d in va1.dialogues] == [d.id for d in va2.dialogues]
    assert len(va1.dialogues) == 3 and len(tr1.dialogues) == 7
    assert {d.id for d in tr1.dialogues} | {d.id for d in va1.dialogues} == {
        f"d{i}" for i in range(10)
    }
    assert not ({d.id for d in tr1.dialogues} & {d.id for d in va1.dialogues})
    tr3, va3 = corpus.split_train_validation(ds, 0.0, seed=9)
    assert len(va3.dialogues) == 0 and len(tr3.dialogues) == 10
    with pytest.raises(ValueError):
        corpus.split_train_validation(ds, 1.0, seed=0)


@pytest.mark.parametrize("n, fraction, seed", [(10, 0.3, 9), (7, 0.5, 0), (25, 0.1, 2**64 - 1)])
def test_split_holds_out_the_first_dialogues_of_the_seeded_permutation(n, fraction, seed):
    ds = Dataset(split=Split.TRAIN, dialogues=[make_dialogue(2, f"d{i}") for i in range(n)])
    train, val = corpus.split_train_validation(ds, fraction, seed)
    held = set(ad.seeded_rng(seed).permutation(n)[: round(n * fraction)].tolist())
    assert [d.id for d in val.dialogues] == [f"d{i}" for i in range(n) if i in held]
    assert [d.id for d in train.dialogues] == [f"d{i}" for i in range(n) if i not in held]


def test_considered_labels_are_first_four_in_order():
    assert corpus.CONSIDERED_LABELS == (
        EmotionLabel.NEUTRAL,
        EmotionLabel.JOY,
        EmotionLabel.SADNESS,
        EmotionLabel.ANGER,
    )
    assert [corpus.LABEL_INDEX[lab] for lab in corpus.CONSIDERED_LABELS] == [0, 1, 2, 3]
