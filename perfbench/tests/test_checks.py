"""The output checks count a corrupted output or reference as a failed operation.

    python3 -m pytest perfbench/tests
"""
import copy
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402

HELDOUT = [
    [
        {"speaker": "a", "utterance": "got the part!!", "emotion": "joy", "turn": 0},
        {"speaker": "b", "utterance": "no way", "emotion": "fear", "turn": 1},
    ],
    [{"speaker": "a", "utterance": "ok", "emotion": "neutral", "turn": 0}],
]
INPUTS = {"chat_utterances": 40, "heldout": HELDOUT}
LABELS = [["joy", "anger"], ["neutral"]]


def _ops():
    def predict(k):
        out = [{**u, "predicted_emotion": lab} for u, lab in zip(HELDOUT[k], LABELS[k])]
        return {"kind": "predict", "s": 0.1, "utts": len(out), "rc": 0, "dialogue": k, "output": [out]}

    train = {"kind": "train", "s": 2.0, "utts": 30, "history": [
        {"epoch": 0, "lr": 2e-4, "train_loss": 2.0787658476900885, "val_wa": 0.5, "val_uwa": 0.5}]}
    prep = {"kind": "preprocess", "s": 0.3, "utts": 40, "rc": 0, "vocab_sha256": "v" * 64,
            "encoded_sha256": "e" * 64, "utterances": 40}
    confusion = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    report = {"wa": 1.0, "uwa": 1.0, "confusion": confusion, "ignored": 1, "per_class": {}}
    ev = {"kind": "eval", "s": 1.0, "utts": 3, "rc": 0, "report": report}
    return [copy.deepcopy(op) for op in (train, prep, ev, train, prep, ev)] + [
        predict(k % 2) for k in range(4)]


def _failed(ops, ref):
    return [op["kind"] for op, v in zip(ops, checks.verify(ops, INPUTS, ref)) if v is not None]


def test_clean_run_passes_with_and_without_reference():
    ops = _ops()
    ref = checks.reference_from(ops)
    assert _failed(ops, ref) == []
    assert _failed(ops, None) == []


@pytest.mark.parametrize("corrupt, failed", [
    (lambda r: r["train_loss"].__setitem__(0, r["train_loss"][0] + 1e-8), ["train"] * 2),
    (lambda r: r["preprocess"].__setitem__("encoded_sha256", "0" * 64), ["preprocess"] * 2),
    (lambda r: r["eval"].__setitem__("wa", 0.5), ["eval"] * 2),
    (lambda r: r["predict"][1].__setitem__(0, "sadness"), ["predict"] * 2),
])
def test_corrupted_reference_counts_as_failed(corrupt, failed):
    ops = _ops()
    ref = checks.reference_from(ops)
    corrupt(ref)
    assert _failed(ops, ref) == failed


def test_loss_within_reordering_tolerance_passes():
    ops = _ops()
    ref = checks.reference_from(ops)
    ref["train_loss"][0] *= 1 + 1e-12
    assert _failed(ops, ref) == []


def test_corrupted_outputs_count_as_failed():
    ops = _ops()
    ops[3]["history"][0]["train_loss"] = math.nan  # non-finite loss
    ops[4]["vocab_sha256"] = "x" * 64  # second preprocess disagrees with the first
    del ops[6]["output"][0][1]["turn"]  # predict dropped an input field
    ops[9]["rc"] = 1  # a command exited non-zero
    assert _failed(ops, None) == ["train", "preprocess", "predict", "predict"]


def test_predictions_must_tally_to_eval_confusion():
    ops = _ops()
    for op in ops:
        if op["kind"] == "eval":
            op["report"]["confusion"][0][0] = 0
            op["report"]["confusion"][0][1] = 1
    assert _failed(ops, None) == ["predict"] * 4
