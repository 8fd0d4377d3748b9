import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pair.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pair", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(pair, side, failed, eval_rate, predict_ms):
    metrics = {"eval_utt_per_s": {"value": eval_rate, "unit": "utt/s"},
               "predict_ms_p50": {"value": predict_ms, "unit": "ms"}}
    return {"pair": pair, "side": side, "result": {"failed": failed, "metrics": metrics}}


BETTER = {"eval_utt_per_s": "higher", "predict_ms_p50": "lower"}


def test_summarize_reports_failures_medians_parent_spread_and_wins():
    bp = load_script()
    runs, rates = [], [(100, 110), (300, 290), (200, 240), (400, 440)]
    for pair, (parent_rate, change_rate) in enumerate(rates, 1):
        runs.append(run(pair, "parent", 0, parent_rate, 50.0))
        runs.append(run(pair, "change", pair % 2, change_rate, 40.0 + pair))
    summary = bp.summarize(runs, BETTER)
    assert summary["failed"] == {"parent": 0, "change": 2}
    rate = summary["metrics"]["eval_utt_per_s"]
    assert rate["unit"] == "utt/s"
    assert (rate["parent"], rate["change"]) == (250, 265)
    # Exclusive quartiles of 100, 200, 300, 400, spread over the median 250.
    assert rate["parent_quartiles"] == [125.0, 375.0]
    assert rate["parent_spread"] == pytest.approx(1.0)
    assert rate["ratio"] == pytest.approx((1.1 + 1.1) / 2)
    assert rate["change_better_pairs"] == 3
    latency = summary["metrics"]["predict_ms_p50"]
    assert latency["parent_quartiles"] == [50.0, 50.0] and latency["parent_spread"] == 0.0
    assert latency["change_better_pairs"] == 4


def test_summarize_takes_one_pair_as_its_own_quartiles():
    bp = load_script()
    runs = [run(1, "parent", 1, 200.0, 0.0), run(1, "change", 0, 150.0, 0.0)]
    summary = bp.summarize(runs, BETTER)
    assert summary["failed"] == {"parent": 1, "change": 0}
    rate = summary["metrics"]["eval_utt_per_s"]
    assert rate["parent_quartiles"] == [200.0, 200.0] and rate["parent_spread"] == 0.0
    assert rate["change_better_pairs"] == 0
    # A zero parent value gives no ratio and no relative spread.
    assert "ratio" not in summary["metrics"]["predict_ms_p50"]
    assert "parent_spread" not in summary["metrics"]["predict_ms_p50"]
