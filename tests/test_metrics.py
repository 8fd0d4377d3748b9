import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialoglow import metrics as mx

N, J, S, A = 0, 1, 2, 3  # neutral, joy, sadness, anger
FEAR, SURPRISE, DISGUST = 4, 5, 6  # outside the considered set


def test_hand_case_two_joy_slips():
    cm = mx.confusion(preds=[N, N, J, J], golds=[N, N, N, J])
    assert cm.counts.tolist() == [
        [2, 1, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ]
    assert mx.wa(cm) == 0.75
    assert mx.uwa(cm) == pytest.approx(5.0 / 6.0, abs=1e-15)


def test_hand_case_perfect_predictions():
    golds = [N] * 3 + [J] + [S] * 2 + [A] * 4
    cm = mx.confusion(golds, golds)
    assert mx.wa(cm) == 1.0
    assert mx.uwa(cm) == 1.0
    assert mx.per_class_accuracy(cm) == (1.0, 1.0, 1.0, 1.0)


def test_hand_case_single_utterance():
    cm = mx.confusion([J], [J])
    assert cm.counts[J, J] == 1
    assert cm.total == 1
    assert mx.wa(cm) == 1.0 == mx.uwa(cm)


def test_hand_case_all_neutral_predictor():
    golds = [N] * 8 + [J, S]
    cm = mx.confusion([N] * 10, golds)
    assert mx.wa(cm) == 0.8
    assert mx.uwa(cm) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_hand_case_wa_and_uwa_diverge():
    cm = mx.ConfusionMatrix([[8, 2, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    assert mx.wa(cm) == 0.75
    assert mx.uwa(cm) == pytest.approx(0.65, abs=1e-15)
    assert mx.per_class_accuracy(cm) == (0.8, 0.5, None, None)


def test_non_considered_gold_only_bumps_ignored():
    cm = mx.confusion([N, J], [FEAR, J])
    assert cm.ignored == 1
    assert cm.total == 1
    assert mx.wa(cm) == 1.0


def test_empty_scored_set_is_an_error_not_nan():
    cm = mx.confusion([N], [SURPRISE])
    with pytest.raises(mx.MetricsError):
        mx.wa(cm)
    with pytest.raises(mx.MetricsError):
        mx.uwa(cm)
    with pytest.raises(mx.MetricsError):
        mx.report([A], [DISGUST])


def test_confusion_input_validation():
    with pytest.raises(mx.MetricsError):
        mx.confusion([N, N], [N])
    with pytest.raises(mx.MetricsError):
        mx.confusion([5], [N])  # prediction outside the considered range
    with pytest.raises(mx.MetricsError):
        mx.ConfusionMatrix(np.zeros((3, 3)))
    with pytest.raises(mx.MetricsError):
        mx.ConfusionMatrix(np.zeros((4, 4)), ignored=-1)


def test_wa_is_trace_over_total_on_random_matrices():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        counts = rng.integers(0, 20, size=(4, 4))
        if counts.sum() == 0:
            counts[0, 0] = 1
        cm = mx.ConfusionMatrix(counts)
        assert mx.wa(cm) == np.trace(counts) / counts.sum()


def test_equal_per_class_accuracies_make_wa_equal_uwa():
    cm = mx.ConfusionMatrix([[3, 1, 0, 0], [0, 6, 2, 0], [0, 3, 9, 0], [1, 1, 1, 9]])
    accs = mx.per_class_accuracy(cm)
    assert all(a == 0.75 for a in accs)
    assert abs(mx.wa(cm) - mx.uwa(cm)) < 1e-12


def test_uwa_invariant_under_class_duplication_wa_not():
    base = np.array([[8, 2, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    scaled = base.copy()
    scaled[J] *= 5  # duplicate every joy utterance five times
    cm0, cm1 = mx.ConfusionMatrix(base), mx.ConfusionMatrix(scaled)
    assert abs(mx.uwa(cm0) - mx.uwa(cm1)) < 1e-15
    assert mx.wa(cm0) != mx.wa(cm1)


@settings(max_examples=200, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 7)), min_size=1, max_size=60
    )
)
def test_report_invariants_hold_on_random_inputs(pairs):
    preds = [p for p, _ in pairs]
    golds = [g for _, g in pairs]
    cm = mx.confusion(preds, golds)
    assert cm.total + cm.ignored == len(pairs)
    if cm.total == 0:
        return
    rep = mx.EvalReport(cm)
    assert 0.0 <= rep.wa <= 1.0
    present = [a for a in rep.per_class_acc if a is not None]
    assert min(present) - 1e-12 <= rep.uwa <= max(present) + 1e-12


def test_predict_restricted_to_considered_columns():
    logits = np.array(
        [
            [0.1, 2.0, 0.0, 0.0, 9.0, 9.0, 9.0, 9.0],
            [3.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.2, 0.9, 0.0, 0.0, 0.0, 0.0],
        ]
    )
    assert mx.predict(logits) == [J, N, A]
    with pytest.raises(mx.MetricsError):
        mx.predict(np.zeros(8))
    with pytest.raises(mx.MetricsError):
        mx.predict(np.zeros((2, 3)))


def test_report_json_shape_and_table_rendering():
    rep = mx.report(preds=[N, N, J, J], golds=[N, N, N, J])
    blob = json.loads(json.dumps(rep.to_json_dict()))
    assert set(blob) == {"wa", "uwa", "per_class", "confusion", "ignored"}
    assert blob["wa"] == 0.75
    assert blob["per_class"] == {
        "neutral": 2.0 / 3.0,
        "joy": 1.0,
        "sadness": None,
        "anger": None,
    }
    assert blob["confusion"][0] == [2, 1, 0, 0]
    assert blob["ignored"] == 0

    head, body = rep.table().splitlines()
    assert head.split() == ["WA", "UWA", "Neutral", "Joy", "Sadness", "Anger"]
    assert body.split() == ["75.0", "83.3", "66.7", "100.0", "-", "-"]
