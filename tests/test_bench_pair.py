import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pair.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pair", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(pair, side, failed, eval_rate, predict_ms, cpu_s=10.0, attempted=100, steal=None):
    metrics = {"eval_utt_per_s": {"value": eval_rate, "unit": "utt/s"},
               "predict_ms_p50": {"value": predict_ms, "unit": "ms"}}
    result = {"failed": failed, "attempted": attempted, "metrics": metrics}
    return {"pair": pair, "side": side, "cpu_s": cpu_s, "steal_share": steal, "result": result}


BETTER = {"eval_utt_per_s": "higher", "predict_ms_p50": "lower"}
BOUNDS = {"eval_utt_per_s": 0.25, "predict_ms_p50": 0.2}


def test_summarize_reports_failures_medians_parent_spread_and_wins():
    bp = load_script()
    runs, rates = [], [(100, 110), (300, 290), (200, 240), (400, 440)]
    for pair, (parent_rate, change_rate) in enumerate(rates, 1):
        runs.append(run(pair, "parent", 0, parent_rate, 50.0))
        runs.append(run(pair, "change", pair % 2, change_rate, 40.0 + pair))
    summary = bp.summarize(runs, BETTER, BOUNDS)
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
    summary = bp.summarize(runs, BETTER, BOUNDS)
    assert summary["failed"] == {"parent": 1, "change": 0}
    rate = summary["metrics"]["eval_utt_per_s"]
    assert rate["parent_quartiles"] == [200.0, 200.0] and rate["parent_spread"] == 0.0
    assert rate["change_better_pairs"] == 0
    # A zero parent value gives no ratio and no relative spread.
    assert "ratio" not in summary["metrics"]["predict_ms_p50"]
    assert "parent_spread" not in summary["metrics"]["predict_ms_p50"]


def test_summarize_reports_cpu_seconds_per_attempted_operation():
    bp = load_script()
    # (parent cpu_s, attempted), (change cpu_s, attempted) per pair.
    sides = [((10.0, 100), (12.0, 100)), ((30.0, 100), (15.0, 50)), ((20.0, 200), (9.0, 100))]
    runs = []
    for pair, ((p_cpu, p_ops), (c_cpu, c_ops)) in enumerate(sides, 1):
        runs.append(run(pair, "parent", 0, 100.0, 50.0, cpu_s=p_cpu, attempted=p_ops))
        runs.append(run(pair, "change", 0, 100.0, 50.0, cpu_s=c_cpu, attempted=c_ops))
    cpu = bp.summarize(runs, BETTER, BOUNDS)["cpu_s_per_op"]
    # Per operation: parent 0.1, 0.3, 0.1; change 0.12, 0.3, 0.09.
    assert cpu["parent"] == pytest.approx(0.1) and cpu["change"] == pytest.approx(0.12)
    assert cpu["ratio"] == pytest.approx(1.0)  # median of 1.2, 1.0, 0.9


def test_steal_share_of_two_tick_readings():
    bp = load_script()
    assert bp.steal_share((10, 1000), (30, 1400)) == pytest.approx(0.05)
    assert bp.steal_share(None, (30, 1400)) is None
    assert bp.steal_share((10, 1000), None) is None
    assert bp.steal_share((10, 1000), (10, 1000)) is None
    assert bp.steal_share("OSError: no /proc", (30, 1400)) is None
    ticks = bp.cpu_ticks()
    assert isinstance(ticks, str) or 0 <= ticks[0] <= ticks[1]


def test_cpu_ticks_keeps_the_reason_it_could_not_read(monkeypatch):
    bp = load_script()

    def unreadable(*args, **kwargs):
        raise PermissionError(13, "Permission denied", "/proc/stat")

    monkeypatch.setattr(bp, "open", unreadable, raising=False)
    assert bp.cpu_ticks() == "PermissionError: [Errno 13] Permission denied: '/proc/stat'"


def test_run_perfbench_records_the_runs_cpu_seconds(tmp_path):
    bp = load_script()
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json, time\n"
        "start = time.process_time()\n"
        "while time.process_time() - start < 0.2:\n"
        "    pass\n"
        "print('workload dialogue seed 3 seconds 40')\n"
        "print(json.dumps({'correct': True, 'attempted': 4, 'failed': 0, 'metrics': {}}))\n"
    )
    got = bp.run_perfbench(tmp_path, "dialogue", 3)
    assert got["seconds"] == 40.0 and got["result"]["attempted"] == 4
    # The stub spins for 0.2 s of its own CPU time; rusage may account it a little apart.
    assert 0.15 <= got["cpu_s"] < 5.0
    assert got["steal_share"] is None or 0.0 <= got["steal_share"] <= 1.0
    # The two /proc/stat readings behind the share, each a tick pair or an error's text.
    before, after = got["cpu_ticks"]
    if got["steal_share"] is not None:
        assert got["steal_share"] == bp.steal_share(before, after)
    assert all(isinstance(t, str) or len(t) == 2 for t in (before, after))


PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]  # spread 0.025


@pytest.mark.parametrize(
    "change, expected",
    [
        # 9 of 10 pairs won, medians 15 apart against a parent spread of 2.5.
        ([115.0] * 9 + [90.0], "gain"),
        # Every pair won, but by less than the parent's own spread.
        ([p + 1.0 for p in PARENT], "within bound"),
        # 8 of 10 pairs won by far: not enough wins for a gain.
        ([130.0] * 8 + [90.0, 90.0], "within bound"),
        # The median 25% worse with a bound of 20%.
        ([75.0] * 10, "worse"),
        # The median 15% worse: inside the bound.
        ([85.0] * 10, "within bound"),
    ],
)
def test_verdict_reads_wins_medians_and_the_bound(change, expected):
    bp = load_script()
    assert bp.verdict(PARENT, change, "higher", 0.2) == expected


def test_verdict_is_unresolved_when_the_parent_spreads_past_the_bound():
    bp = load_script()
    parent = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]  # spread 0.45
    # Nine pairs won by far, but the parent's own runs spread past the 0.25 bound.
    change = [p + 60.0 for p in parent[:9]] + [50.0]
    assert bp.verdict(parent, change, "higher", 0.25) == "unresolved"
    assert bp.verdict(parent, [p * 0.9 for p in parent], "higher", 0.25) == "unresolved"
    # Unless every change run beats every parent run.
    assert bp.verdict(parent, [141.0 + p / 10 for p in parent], "higher", 0.25) == "gain"
    assert bp.verdict(parent, [50.0] * 10, "lower", 0.25) == "gain"
    # A median worse by more than the bound is worse, whatever the spread.
    assert bp.verdict(parent, [50.0] * 10, "higher", 0.25) == "worse"


def test_verdict_for_lower_is_better_metrics():
    bp = load_script()
    parent = [50.0, 51.0, 49.0, 50.5, 49.5, 50.0, 52.0, 48.0, 50.0, 50.5]
    assert bp.verdict(parent, [40.0] * 9 + [55.0], "lower", 0.2) == "gain"
    assert bp.verdict(parent, [61.0] * 10, "lower", 0.2) == "worse"
    assert bp.verdict(parent, [55.0] * 10, "lower", 0.2) == "within bound"


def test_summarize_gives_each_metric_its_verdict_and_flags_pairs_whose_steal_differs():
    bp = load_script()
    steal = [(0.02, 0.03), (0.01, 0.09), (None, 0.2), (0.30, 0.24), (0.05, 0.0)]
    runs = []
    for pair, (p_steal, c_steal) in enumerate(steal, 1):
        runs.append(run(pair, "parent", 0, 100.0 + pair / 10, 50.0, steal=p_steal))
        runs.append(run(pair, "change", 0, 150.0, 50.0 + pair / 10, steal=c_steal))
    summary = bp.summarize(runs, BETTER, BOUNDS)
    # 8 and 6 points apart; pair 3 has no reading; pair 5 is exactly 5 points apart.
    assert summary["steal_flagged_pairs"] == [2, 4]
    assert summary["metrics"]["eval_utt_per_s"]["verdict"] == "gain"
    assert summary["metrics"]["predict_ms_p50"]["verdict"] == "within bound"


def test_median_interval_takes_the_order_statistics_that_cover_95_percent():
    bp = load_script()
    values = [9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0, 10.0]
    # Ten values: the 2nd and 9th cover 1 - 2 * 11/1024 = 97.9%; the 3rd and 8th 89%.
    assert bp.median_interval(values) == (2.0, 9.0)
    assert bp.median_interval(values[:6]) == (1.0, 9.0)  # 1 - 2/64 = 96.9%
    assert bp.median_interval(values[:5]) is None  # 1 - 2/32 = 93.8%


DRIFTING = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]  # spread 0.45


def test_paired_verdict_resolves_a_drift_that_moves_both_sides_alike():
    bp = load_script()
    # The machine's speed moves each pair's two runs together, 1% apart either way.
    change = [p * (0.99 + 0.02 * (i % 2)) for i, p in enumerate(DRIFTING)]
    assert bp.verdict(DRIFTING, change, "higher", 0.25) == "unresolved"
    assert bp.paired_verdict(DRIFTING, change, "higher", 0.25) == "within bound"
    assert bp.paired_verdict(DRIFTING, change, "lower", 0.25) == "within bound"
    # Every pair won by 15%: a gain by the ratios, still unresolved by the parent's spread.
    gained = [p * (1.15 + 0.01 * (i % 3)) for i, p in enumerate(DRIFTING)]
    assert bp.verdict(DRIFTING, gained, "higher", 0.25) == "unresolved"
    assert bp.paired_verdict(DRIFTING, gained, "higher", 0.25) == "gain"
    # The same runs of a lower-is-better metric: 15-17% worse, inside the bound.
    assert bp.paired_verdict(DRIFTING, gained, "lower", 0.25) == "within bound"


@pytest.mark.parametrize("parent", [PARENT, DRIFTING], ids=["steady", "drifting"])
def test_a_real_30_percent_loss_reads_worse_under_both_rules(parent):
    bp = load_script()
    slower = [p * 0.7 for p in parent]
    assert bp.verdict(parent, slower, "higher", 0.25) == "worse"
    assert bp.paired_verdict(parent, slower, "higher", 0.25) == "worse"
    longer = [p * 1.3 for p in parent]
    assert bp.verdict(parent, longer, "lower", 0.2) == "worse"
    assert bp.paired_verdict(parent, longer, "lower", 0.2) == "worse"


def test_paired_verdict_is_unresolved_when_the_ratios_scatter_or_are_too_few():
    bp = load_script()
    # The median ratio is 1.0, but the pairs' ratios spread 0.6 past the 0.25 bound.
    scattered = [p * (0.7 if i % 2 else 1.3) for i, p in enumerate(PARENT)]
    assert bp.paired_verdict(PARENT, scattered, "higher", 0.25) == "unresolved"
    # Two pairs of ten 35% worse: quartiles inside the bound, the interval's worse end past it.
    tailed = [p * r for p, r in zip(PARENT, [0.65, 0.65] + [1.0] * 8)]
    assert bp.paired_verdict(PARENT, tailed, "higher", 0.25) == "unresolved"
    # Five pairs give no 95% interval of the median.
    assert bp.paired_verdict(PARENT[:5], PARENT[:5], "higher", 0.25) == "unresolved"
    assert bp.paired_verdict(PARENT[:6], PARENT[:6], "higher", 0.25) == "within bound"


def test_summarize_gives_the_paired_verdict_and_the_ratios_spread():
    bp = load_script()
    runs = []
    for pair, p in enumerate(DRIFTING, 1):
        r = 0.99 if pair % 2 else 1.01
        runs.append(run(pair, "parent", 0, p, p / 2))
        runs.append(run(pair, "change", 0, p * r, p / 2 * r))
    rows = bp.summarize(runs, BETTER, BOUNDS)["metrics"]
    rate, latency = rows["eval_utt_per_s"], rows["predict_ms_p50"]
    assert rate["verdict"] == latency["verdict"] == "unresolved"
    assert rate["paired_verdict"] == latency["paired_verdict"] == "within bound"
    assert rate["ratio_quartiles"] == pytest.approx([0.99, 1.01])
    assert rate["ratio_interval"] == pytest.approx([0.99, 1.01])
