"""Output checks behind the failed count.

`verify` gives one verdict per operation: None when its outputs passed,
else the reason. Every run checks that its outputs are well formed and
that repeated operations agree bit for bit, and that predict labels tally
to the eval confusion matrix. At the reference seed the outputs must also
equal reference.json (training loss within LOSS_RTOL, since reordering
float operations is allowed to move it at that scale).
"""
from __future__ import annotations

import math

LOSS_RTOL = 1e-10
CONSIDERED = ("neutral", "joy", "sadness", "anger")


def reference_from(ops) -> dict:
    """The reference record that `verify` compares against, from one run's ops."""
    first = {}
    predict = {}
    for op in ops:
        first.setdefault(op["kind"], op)
        if op["kind"] == "predict":
            predict.setdefault(op["dialogue"], [r["predicted_emotion"] for r in op["output"][0]])
    return {
        "train_loss": [row["train_loss"] for row in first["train"]["history"]],
        "preprocess": {k: first["preprocess"][k] for k in ("vocab_sha256", "encoded_sha256")},
        "eval": {k: first["eval"]["report"][k] for k in ("wa", "uwa", "confusion", "ignored")},
        "predict": [predict[k] for k in sorted(predict)],
    }


def _train(op, base, ref):
    losses = [row["train_loss"] for row in op["history"]]
    if not all(math.isfinite(x) for x in losses):
        return f"non-finite training loss {losses}"
    if base is not None and op["history"] != base["history"]:
        return "history differs from the run's first training call"
    if ref is not None:
        want = ref["train_loss"]
        if len(losses) != len(want) or any(
            abs(a - b) > LOSS_RTOL * max(1.0, abs(b)) for a, b in zip(losses, want)
        ):
            return f"training loss {losses} does not match reference {want}"
    return None


def _preprocess(op, base, ref, inputs):
    if op["utterances"] != inputs["chat_utterances"]:
        return f"stats.json counts {op['utterances']} utterances, input has {inputs['chat_utterances']}"
    got = {k: op[k] for k in ("vocab_sha256", "encoded_sha256")}
    if base is not None and got != {k: base[k] for k in got}:
        return "vocab.txt or encoded.json differs from the run's first preprocess"
    if ref is not None and got != ref["preprocess"]:
        return "vocab.txt or encoded.json hash does not match reference"
    return None


def _eval(op, base, ref):
    got = {k: op["report"][k] for k in ("wa", "uwa", "confusion", "ignored")}
    if base is not None and op["report"] != base["report"]:
        return "report differs from the run's first eval"
    if ref is not None and got != ref["eval"]:
        return f"eval {got} does not match reference {ref['eval']}"
    return None


def _predict(op, base, ref, inputs):
    dialogue = inputs["heldout"][op["dialogue"]]
    out = op["output"]
    if not (isinstance(out, list) and len(out) == 1 and len(out[0]) == len(dialogue)):
        return "output does not hold one annotated record per input utterance"
    for given, rec in zip(dialogue, out[0]):
        if set(rec) != set(given) | {"predicted_emotion"} or any(rec[k] != v for k, v in given.items()):
            return "an input field was dropped or changed"
        if rec["predicted_emotion"] not in CONSIDERED:
            return f"predicted label {rec['predicted_emotion']!r} outside the considered set"
    labels = [r["predicted_emotion"] for r in out[0]]
    if base is not None and labels != [r["predicted_emotion"] for r in base["output"][0]]:
        return "labels differ from the run's first prediction of this dialogue"
    if ref is not None and labels != ref["predict"][op["dialogue"]]:
        return "labels do not match reference"
    return None


def _tally(predict_ops, heldout):
    """Confusion counts and ignored count of first predictions against golds."""
    counts = [[0] * len(CONSIDERED) for _ in CONSIDERED]
    ignored, seen = 0, set()
    for op in predict_ops:
        k = op["dialogue"]
        if k in seen:
            continue
        seen.add(k)
        for given, rec in zip(heldout[k], op["output"][0]):
            if given["emotion"] in CONSIDERED:
                counts[CONSIDERED.index(given["emotion"])][CONSIDERED.index(rec["predicted_emotion"])] += 1
            else:
                ignored += 1
    return counts, ignored, len(seen)


def verify(ops, inputs, ref=None) -> list:
    """One verdict per op (None = passed). ref is None off the reference seed."""
    verdicts, bases = [], {}
    for op in ops:
        kind = op["kind"]
        if op.get("error"):
            verdicts.append(op["error"])
            continue
        if op.get("rc", 0) != 0:
            verdicts.append(f"exit code {op['rc']}")
            continue
        key = (kind, op.get("dialogue"))
        base = bases.get(key)
        if kind == "train":
            reason = _train(op, base, ref)
        elif kind == "preprocess":
            reason = _preprocess(op, base, ref, inputs)
        elif kind == "eval":
            reason = _eval(op, base, ref)
        else:
            reason = _predict(op, base, ref, inputs)
        if reason is None:
            bases.setdefault(key, op)
        verdicts.append(reason)

    # Once every held-out dialogue has a passing prediction, those labels must
    # tally to eval's confusion matrix.
    good = [op for op, v in zip(ops, verdicts) if v is None]
    evals = [op for op in good if op["kind"] == "eval"]
    preds = [op for op in good if op["kind"] == "predict"]
    if evals and preds:
        counts, ignored, covered = _tally(preds, inputs["heldout"])
        report = evals[0]["report"]
        if covered == len(inputs["heldout"]) and (counts, ignored) != (report["confusion"], report["ignored"]):
            reason = "predict labels do not tally to the eval confusion matrix"
            verdicts = [reason if v is None and op["kind"] == "predict" else v
                        for op, v in zip(ops, verdicts)]
    return verdicts
