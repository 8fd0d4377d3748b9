"""Acceptance gate: one test per release criterion, one line printed each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines alongside pytest's own verdicts.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from dialoglow import autodiff as ad
from dialoglow import cli
from dialoglow import embeddings as emb
from dialoglow import metrics as mx
from dialoglow import model as m
from dialoglow import preprocess as pp
from dialoglow import synthetic
from dialoglow import train as tr
from dialoglow.corpus import load_dataset, Split, corpus_stats

from helpers import serialize_dataset
from test_model import forward_padded
from test_preprocess import CLEAN_GOLDENS, COLLAPSE_GOLDENS, PREPARE_GOLDENS, TOKENIZE_GOLDENS


def passed(n, text):
    print(f"[PASS] criterion {n}: {text}")


def test_criterion_1_gradient_fidelity():
    started = time.monotonic()
    assert cli.main(["gradcheck", "--tolerance", "1e-4"]) == 0
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"gradcheck took {elapsed:.1f}s"
    passed(1, f"toy-model gradients within 1e-4 of finite differences in {elapsed:.1f}s")


def test_criterion_2_attention_unit_suite():
    started = time.monotonic()
    rng = np.random.default_rng(0)

    one = ad.Tensor(rng.normal(size=(1, 6)))
    assert np.array_equal(m.self_attend(one, [0, 1]).data, one.data)

    same = ad.Tensor(np.tile(rng.normal(size=4), (5, 1)))
    assert np.allclose(m.self_attend(same, [0, 5]).data, same.data, atol=1e-12)

    u = rng.normal(size=(6, 8))
    scores = ad.attention_scores(u)
    assert np.array_equal(scores, scores.T)

    weights = ad.attention_weights(scores)
    assert np.all(np.abs(weights.sum(axis=1) - 1.0) < 1e-12)

    cfg = m.ModelConfig(embed_dim=8, hidden_size=4, window_size=25, fc_dims=(8,),
                        variant="sa-bilstm")
    vocab = pp.build_vocab([["aa", "bb", "cc"]])
    params = m.ModelParams.init(cfg, emb.random_table(vocab, 8, seed=1), seed=2)
    ids = [vocab.encode(t.split()) for t in ("aa bb", "cc", "bb cc aa")]
    plain = m.forward_window(ids, params, cfg).data
    assert np.array_equal(plain, forward_padded(ids, params, cfg, 3).data)
    assert np.array_equal(plain, forward_padded(ids, params, cfg, 25).data)

    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"attention suite took {elapsed:.2f}s"
    passed(2, f"identity/fixed-point/symmetry/stochasticity/padding checks in {elapsed:.2f}s")


def test_criterion_3_loss_weighting():
    cw = tr.TrainConfig().class_weights

    # every gold outside the considered set: constant-zero loss, no
    # differentiable path, hence exactly zero gradient for every parameter
    cfg = m.ModelConfig(embed_dim=8, hidden_size=4, window_size=4, fc_dims=(8,),
                        variant="sa-bilstm")
    vocab = pp.build_vocab([["aa", "bb"]])
    params = m.ModelParams.init(cfg, emb.random_table(vocab, 8, seed=3), seed=4)
    with ad.Tape() as tape:
        logits = m.forward_window([vocab.encode(["aa"]), vocab.encode(["bb"])], params, cfg)
        loss = tr.weighted_cross_entropy(logits, [4, 7], cw)
        recorded = any(rec[0] is loss for rec in tape._records)
    assert float(loss.data) == 0.0
    assert not recorded

    # mixed batch: manual weighted-mean oracle within 1e-12
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(5, 8))
    golds = [0, 6, 1, 3, 5]  # two zero-weight rows in the middle
    shifted = raw - raw.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    w = np.array([cw[g] for g in golds])
    expected = float(-(w * logp[np.arange(5), golds]).sum() / w.sum())
    got = float(tr.weighted_cross_entropy(ad.Tensor(raw), golds, cw).data)
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)
    passed(3, "non-considered batches cost exactly 0; mixed batches match the weighted mean")


def test_criterion_4_optimizer():
    p = ad.Tensor(0.0, requires_grad=True)
    state = tr.AdamState({"p": p})
    tr.adam_step({"p": p}, {"p": np.asarray(1.0)}, state, lr=0.0002)
    assert abs(float(p.data) - (-0.0002 / (1.0 + 1e-8))) < 1e-12

    for e in (0, 1, 5):
        assert tr.learning_rate(0.0002, 0.99, e) == 0.0002 * 0.99**e
    passed(4, "first Adam step is -lr/(1+eps); lr(e) = 0.0002*0.99^e exactly")


def test_criterion_5_synthetic_overfit():
    started = time.monotonic()
    ds = synthetic.build(n_dialogues=20, seed=0)
    vocab = tr.vocab_from_dataset(ds)
    cfg = m.ModelConfig(embed_dim=16, hidden_size=8, window_size=8, fc_dims=(16,),
                        variant="sa-bilstm")
    table = emb.random_table(vocab, cfg.embed_dim, seed=1)
    tcfg = tr.TrainConfig(epochs=60, lr0=0.02, decay=0.995, dropout=0.0, seed=0)
    result = tr.train(ds, vocab, table, cfg, tcfg, val_ds=ds)
    elapsed = time.monotonic() - started

    losses = [row["train_loss"] for row in result.history]
    assert losses[3] < losses[1], "training loss must drop between epochs 1 and 3"
    _, params = tr.params_from_checkpoint(result.last)
    report = tr.evaluate_dataset(ds, vocab, params, cfg)
    assert report.wa >= 0.95, f"training WA {report.wa:.3f}"
    assert report.uwa >= 0.95, f"training UWA {report.uwa:.3f}"
    assert tcfg.epochs <= 200
    assert elapsed < 120.0, f"overfit run took {elapsed:.1f}s"
    passed(5, f"WA {report.wa:.3f} / UWA {report.uwa:.3f} after {tcfg.epochs} epochs in {elapsed:.1f}s")


def test_criterion_6_metrics_oracle():
    cm = mx.confusion(preds=[0, 0, 1, 1], golds=[0, 0, 0, 1])
    assert mx.wa(cm) == 0.75
    assert mx.uwa(cm) == pytest.approx(5.0 / 6.0, abs=1e-15)

    perfect = mx.confusion([0, 1, 2, 3], [0, 1, 2, 3])
    assert mx.wa(perfect) == 1.0 == mx.uwa(perfect)

    lopsided = mx.ConfusionMatrix([[8, 2, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    assert mx.wa(lopsided) == 0.75 and mx.uwa(lopsided) == pytest.approx(0.65, abs=1e-15)

    all_neutral = mx.confusion([0] * 10, [0] * 8 + [1, 2])
    assert mx.wa(all_neutral) == 0.8
    assert mx.uwa(all_neutral) == pytest.approx(1.0 / 3.0, abs=1e-15)

    balanced = mx.ConfusionMatrix([[3, 1, 0, 0], [0, 6, 2, 0], [0, 3, 9, 0], [1, 1, 1, 9]])
    assert abs(mx.wa(balanced) - mx.uwa(balanced)) < 1e-12

    rng = np.random.default_rng(6)
    for _ in range(1000):
        counts = rng.integers(0, 25, size=(4, 4))
        if counts.sum() == 0:
            counts[2, 1] = 1
        assert mx.wa(mx.ConfusionMatrix(counts)) == np.trace(counts) / counts.sum()
    passed(6, "5 hand-enumerated matrices exact; wa = trace/total over 1000 random matrices")


def test_criterion_7_preprocessing_goldens():
    assert pp.collapse_duplicates("oooooh") == "oh <duplicate>"
    assert pp.collapse_duplicates("oh!!!!!!") == "oh ! <duplicate>"

    n = 0
    for raw, want in CLEAN_GOLDENS:
        got = pp.clean_text(raw)
        assert got == want, (raw, got, want)
        assert pp.clean_text(got) == got  # idempotent
        n += 1
    for raw, want in COLLAPSE_GOLDENS:
        got = pp.collapse_duplicates(raw)
        assert got == want, (raw, got, want)
        assert pp.collapse_duplicates(got) == got
        n += 1
    for raw, want in TOKENIZE_GOLDENS:
        assert pp.tokenize(raw) == want, raw
        n += 1
    for raw, want in PREPARE_GOLDENS:
        toks = pp.prepare(raw)
        assert toks == want, (raw, toks, want)
        assert pp.prepare(" ".join(toks)) == toks
        n += 1
    assert n >= 20
    passed(7, f"both duplicate-marker examples plus {n} pinned goldens, all idempotent")


def test_criterion_8_determinism(tmp_path):
    ds = synthetic.build(n_dialogues=6, seed=0)
    data = tmp_path / "train.json"
    data.write_text(json.dumps(serialize_dataset(ds)), encoding="utf-8")
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli.main([
            "train", str(data), "--out", str(out), "--quiet",
            "--embed-dim", "8", "--hidden-size", "4", "--window-size", "4",
            "--fc-dims", "8", "--epochs", "3", "--lr", "0.01",
            "--dropout", "0.3", "--seed", "11", "--val-fraction", "0.25",
        ])
        assert rc == 0
        outputs.append({f: (out / f).read_bytes() for f in ("checkpoint.bin", "history.json", "vocab.txt")})
    assert outputs[0] == outputs[1]
    passed(8, "same-seed runs produce bit-identical checkpoint, history, and vocab files")


def _find_corpus_files():
    """Train-split JSONs of the benchmark chat corpora, wherever they live."""
    roots = []
    env = os.environ.get("DIALOGLOW_DATA_DIR")
    if env:
        roots.append(Path(env))
    roots += [Path("data"), Path("/root/data")]
    hits = []
    for root in roots:
        if not root.is_dir():
            continue
        for pattern in ("*riends*train*.json", "*motionpush*train*.json", "*push*train*.json"):
            hits += sorted(root.rglob(pattern))
        if hits:
            break
    # de-dup while keeping order
    seen, unique = set(), []
    for h in hits:
        if h not in seen:
            seen.add(h)
            unique.append(h)
    return unique


def test_criterion_9_corpus_stats_and_sanity_band():
    files = _find_corpus_files()
    if not files:
        pytest.skip(
            "benchmark chat corpus not available locally (set DIALOGLOW_DATA_DIR); "
            "conditional criterion skipped"
        )
    datasets = [load_dataset(p, Split.TRAIN) for p in files]
    stats = [corpus_stats(ds, pp.prepare) for ds in datasets]
    n_dialogues = sum(s.dialogues for s in stats)
    n_utterances = sum(s.utterances for s in stats)
    assert n_dialogues == 1440, f"expected 1440 train dialogues, found {n_dialogues}"
    assert n_utterances == 21294, f"expected 21294 train utterances, found {n_utterances}"

    # Sanity band: hold out 80 dialogues, train the attentive variant at
    # full scale, and expect held-out UWA in a generous band around the
    # published ballpark. Random embeddings stand in when no vector file
    # is around, which costs a few points but stays inside the band.
    ds = datasets[0]
    rng = ad.seeded_rng(0, stream=9)
    order = rng.permutation(len(ds.dialogues))
    held = [ds.dialogues[i] for i in order[:80]]
    rest = [ds.dialogues[i] for i in order[80:]]
    train_ds = type(ds)(split=ds.split, dialogues=rest)
    val_ds = type(ds)(split=Split.VALIDATION, dialogues=held)
    vocab = tr.vocab_from_dataset(train_ds, min_count=2)
    cfg = m.ModelConfig()  # full-size defaults
    table = emb.random_table(vocab, cfg.embed_dim, seed=0)
    tcfg = tr.TrainConfig(epochs=20, seed=0)
    result = tr.train(train_ds, vocab, table, cfg, tcfg, val_ds=val_ds)
    best_uwa = max(row["val_uwa"] for row in result.history if row["val_uwa"] is not None)
    assert 0.548 <= best_uwa <= 0.708, f"held-out UWA {best_uwa:.3f} outside the sanity band"
    passed(9, f"stats {n_dialogues}/{n_utterances} reproduced; held-out UWA {best_uwa:.3f}")
