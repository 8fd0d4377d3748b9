import numpy as np
import pytest

from dialoglow import autodiff as ad
from dialoglow import embeddings as emb
from dialoglow import preprocess as pp
from helpers import project


def small_vocab():
    return pp.build_vocab([["hi", "there", "friend"]])


def write_vectors(tmp_path, rows, dim):
    lines = []
    for tok, vec in rows:
        lines.append(tok + " " + " ".join(repr(v) for v in vec[:dim]))
    p = tmp_path / "vectors.txt"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return p


def test_found_rows_copied_exactly(tmp_path):
    v = small_vocab()
    vec = [0.25, -1.5, 3.0]
    path = write_vectors(tmp_path, [("hi", vec), ("zskipme", [9.0, 9.0, 9.0])], dim=3)
    table = emb.load_pretrained(path, v, dim=3, seed=1)
    assert np.array_equal(table.weights.data[v.index["hi"]], vec)
    # "there" and "friend" missed the file.
    assert table.oov_count == (len(pp.SPECIALS) - 1) + 2


def test_full_coverage_counts_only_specials_as_oov(tmp_path):
    v = pp.build_vocab([["hi"]])
    path = write_vectors(tmp_path, [("hi", [1.0, 2.0])], dim=2)
    table = emb.load_pretrained(path, v, dim=2, seed=0)
    assert table.oov_count == len(pp.SPECIALS) - 1


def test_pad_row_zero_and_random_rows_bounded(tmp_path):
    v = small_vocab()
    path = write_vectors(tmp_path, [("hi", [1.0, 1.0])], dim=2)
    table = emb.load_pretrained(path, v, dim=2, seed=3)
    assert np.array_equal(table.weights.data[pp.PAD_ID], np.zeros(2))
    random_rows = [i for i, tok in enumerate(v.tokens) if tok != "hi" and i != pp.PAD_ID]
    block = table.weights.data[random_rows]
    assert np.all(np.abs(block) <= 0.05)
    assert np.all(block != 0.0)


def test_dimension_mismatch_cites_line_number(tmp_path):
    v = small_vocab()
    p = tmp_path / "vectors.txt"
    p.write_text("hi 1.0 2.0 3.0\nthere 1.0 2.0\n", encoding="utf-8")
    with pytest.raises(emb.EmbeddingError) as err:
        emb.load_pretrained(p, v, dim=3, seed=0)
    assert "line 2" in str(err.value)
    p.write_text("hi 1.0 2.0 oops\n", encoding="utf-8")
    with pytest.raises(emb.EmbeddingError) as err:
        emb.load_pretrained(p, v, dim=3, seed=0)
    assert "line 1" in str(err.value)


def test_loading_is_deterministic(tmp_path):
    v = small_vocab()
    path = write_vectors(tmp_path, [("there", [0.5, 0.5])], dim=2)
    a = emb.load_pretrained(path, v, dim=2, seed=11)
    b = emb.load_pretrained(path, v, dim=2, seed=11)
    c = emb.load_pretrained(path, v, dim=2, seed=12)
    assert np.array_equal(a.weights.data, b.weights.data)
    assert not np.array_equal(a.weights.data, c.weights.data)


def test_freeze_flag_controls_requires_grad(tmp_path):
    v = small_vocab()
    path = write_vectors(tmp_path, [("hi", [1.0, 1.0])], dim=2)
    assert emb.load_pretrained(path, v, dim=2, seed=0).weights.requires_grad
    frozen = emb.load_pretrained(path, v, dim=2, seed=0, trainable=False)
    assert not frozen.weights.requires_grad


def per_row_table(vocab, dim, seed, found):
    """The table drawn one row at a time in vocab order, each row not in found
    (token -> vector) from the seeded generator: the reference for one draw."""
    rng = ad.seeded_rng(seed)
    weights = np.zeros((len(vocab), dim))
    for i, tok in enumerate(vocab.tokens):
        if i != pp.PAD_ID:
            weights[i] = found[tok] if tok in found else rng.uniform(-0.05, 0.05, size=dim)
    return weights


def test_tables_equal_drawing_one_row_at_a_time(tmp_path):
    v = pp.build_vocab([[f"w{i}" for i in range(40)]])
    rng = np.random.default_rng(2)
    words = [tok for tok in v.tokens if tok not in pp.SPECIALS]
    found = {tok: rng.normal(size=5).tolist() for tok in words[::3]}  # found, missing interleave
    # A special token's vector in the file is ignored: specials are always drawn.
    path = write_vectors(tmp_path, [(pp.UNK, [1.0] * 5), *found.items()], dim=5)
    loaded = emb.load_pretrained(path, v, dim=5, seed=4)
    assert np.array_equal(loaded.weights.data, per_row_table(v, 5, 4, found))
    assert loaded.oov_count == len(v) - 1 - len(found)
    drawn = emb.random_table(v, dim=5, seed=4)
    assert np.array_equal(drawn.weights.data, per_row_table(v, 5, 4, {}))


def test_random_table_is_seeded_and_pad_free():
    v = small_vocab()
    t1 = emb.random_table(v, dim=4, seed=7)
    t2 = emb.random_table(v, dim=4, seed=7)
    assert np.array_equal(t1.weights.data, t2.weights.data)
    assert np.array_equal(t1.weights.data[pp.PAD_ID], np.zeros(4))
    assert t1.oov_count == len(v) - 1


def test_lookup_gathers_rows_and_blocks_pad_gradient():
    v = small_vocab()
    table = emb.random_table(v, dim=3, seed=5)
    ids = [v.index["hi"], pp.UNK_ID, v.index["hi"]]
    with ad.Tape() as tape:
        rows = table.lookup(ids)
        loss = project(rows, np.ones((3, 3)))
    assert rows.shape == (3, 3)
    assert np.array_equal(rows.data[0], table.weights.data[v.index["hi"]])
    grads = ad.backward(tape, loss)
    g = np.asarray(grads[table.weights])
    assert np.array_equal(g[v.index["hi"]], 2.0 * np.ones(3))  # fan-in accumulates
    assert np.array_equal(g[pp.PAD_ID], np.zeros(3))
    # A pad id (Vocab.encode never gives one) is refused, not looked up.
    for bad in ([pp.PAD_ID, pp.UNK_ID], np.array([pp.UNK_ID, pp.PAD_ID])):
        with pytest.raises(ValueError, match="pad id"):
            table.lookup(bad)


def test_table_validation_rejects_nonzero_pad_row():
    v = small_vocab()
    bad = np.ones((len(v), 2))
    with pytest.raises(emb.EmbeddingError):
        emb.EmbeddingTable(weights=ad.Tensor(bad), dim=2, oov_count=0, trainable=True)
