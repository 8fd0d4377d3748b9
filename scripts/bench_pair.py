"""Run perfbench on two checkouts in alternating pairs and write a BENCH json.

    python3 scripts/bench_pair.py PARENT_DIR CHANGE_DIR --out BENCH_<n>.json --pairs 10

For every workload that CHANGE_DIR/BENCHMARK.json declares, each pair runs
`perfbench/run.py --trace 0` once in each checkout, at perfbench's own run
length, on the pair's own seed (1, 2, ...), so the two sides of a pair do
the same work. The side that goes first alternates from pair to pair, so a
drift in the machine's speed lands on both sides. The output holds every
run's final JSON line with the run length perfbench reported, the CPU
seconds its processes used, the machine's CPU steal share over it and the
two /proc/stat readings (or read errors) that share comes from and,
per workload, each side's count of failed operations, each side's median
CPU seconds per attempted operation and their median pair ratio (these
show whether the machine or the code moved) and, per metric, both sides'
medians, the parent's quartiles and their spread relative to its
median (comparable to the metric's bound), the median of the per-pair ratios
(change / parent), how many pairs the change won, judged by the metrics'
`better` fields in that file, and the verdict that the metric's `bound` there
gives (see `verdict`). Next to it stand the per-pair ratios' quartiles, a
confidence interval of their median (see `median_interval`) and the paired
verdict the same bound gives on the ratios (see `paired_verdict`): a drift of
the machine that moves both runs of a pair alike cancels in their ratio, but
widens the parent's own spread. Pairs whose two runs' steal shares differ by
more than STEAL_GAP are listed per workload: the machine, not the code, may
have moved them.
"""

import argparse
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
STEAL_GAP = 0.05  # a pair's runs whose steal shares differ by more than this are flagged
MEDIAN_CI = 0.95  # the least coverage of median_interval


def cpu_ticks():
    """(steal, total) ticks of all CPUs since boot, from /proc/stat; if unreadable,
    the text of the error instead."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(v) for v in fh.readline().split()[1:9]]
        return ticks[7], sum(ticks)  # user nice system idle iowait irq softirq steal
    except (OSError, ValueError, IndexError) as exc:
        return f"{type(exc).__name__}: {exc}"


def steal_share(before, after):
    """The share of CPU ticks stolen between two cpu_ticks() readings, or None."""
    if not isinstance(before, tuple) or not isinstance(after, tuple) or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def children_cpu_s() -> float:
    """User + sys seconds of every finished child process waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_perfbench(checkout: Path, workload: str, seed: int) -> dict:
    """The run's final JSON line ("result"), the run length its header reports
    ("seconds"), the CPU seconds of perfbench and the workers it waits for
    ("cpu_s"), the machine's steal share over the run ("steal_share") and the
    two cpu_ticks() readings it comes from ("cpu_ticks")."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    cpu_before, ticks_before = children_cpu_s(), cpu_ticks()
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    cpu_s, ticks_after = children_cpu_s() - cpu_before, cpu_ticks()
    lines = done.stdout.strip().splitlines()
    header = re.search(r"^workload \S+ seed \S+ seconds (\S+)", done.stdout, re.MULTILINE)
    if done.returncode != 0 or not lines or not header:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {done.returncode}:\n{done.stderr}")
    return {"seconds": float(header[1]), "cpu_s": cpu_s,
            "steal_share": steal_share(ticks_before, ticks_after),
            "cpu_ticks": [ticks_before, ticks_after],
            "result": json.loads(lines[-1])}


def quartiles(values: list) -> tuple[float, float]:
    """First and third quartile (statistics.quantiles' default method); one value is both."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent: list, change: list, better: str, bound: float) -> str:
    """One metric's verdict from its runs, parent[i] and change[i] making pair i,
    with bound a share of the parent's median, checked in this order:
    "worse" when the change's median is worse than the parent's by more than
    bound; "unresolved" when the parent's quartile spread exceeds bound, unless
    every change run beats every parent run; "gain" when the change wins at
    least 9/10 of the pairs and the medians differ by more than the parent's
    quartile spread; else "within bound"."""
    sign = 1 if better == "higher" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    limit = bound * abs(p_med)
    if sign * (p_med - c_med) > limit:
        return "worse"
    if q3 - q1 > limit and not min(sign * c for c in change) > max(sign * p for p in parent):
        return "unresolved"
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    if 10 * wins >= 9 * len(parent) and sign * (c_med - p_med) > q3 - q1:
        return "gain"
    return "within bound"


def median_interval(values: list):
    """A distribution-free confidence interval of the median of values, with
    coverage at least MEDIAN_CI: (the k-th smallest, the k-th largest) value
    for the largest k whose interval covers the median with probability
    1 - 2 P(Binomial(n, 1/2) < k). None when no k >= 1 reaches MEDIAN_CI,
    which takes at least 6 values; 10 values give the 2nd and the 9th."""
    n, ordered = len(values), sorted(values)
    tail, k = 0.0, 0
    while k < n // 2 and 1.0 - 2.0 * (tail + math.comb(n, k) / 2**n) >= MEDIAN_CI:
        tail += math.comb(n, k) / 2**n
        k += 1
    return (ordered[k - 1], ordered[n - k]) if k else None


def paired_verdict(parent: list, change: list, better: str, bound: float) -> str:
    """One metric's verdict from its per-pair ratios change[i] / parent[i]
    (no parent value may be 0), with bound a share of 1, checked in this
    order: "worse" when the median ratio is worse than 1 by more than bound;
    "unresolved" when the ratios' quartile spread exceeds bound, or when
    median_interval gives no interval or one whose worse end lies past the
    bound; "gain" when the change wins at least 9/10 of the pairs and the
    whole interval lies on the better side of 1; else "within bound"."""
    sign = 1 if better == "higher" else -1
    ratios = [c / p for p, c in zip(parent, change)]
    if sign * (1.0 - statistics.median(ratios)) > bound:
        return "worse"
    q1, q3 = quartiles(ratios)
    interval = median_interval(ratios)
    worst = None if interval is None else interval[0] if sign > 0 else interval[1]
    if q3 - q1 > bound or worst is None or sign * (1.0 - worst) > bound:
        return "unresolved"
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    if 10 * wins >= 9 * len(parent) and sign * (worst - 1.0) > 0:
        return "gain"
    return "within bound"


def summarize(runs: list, better: dict, bounds: dict) -> dict:
    """Each side's failed operations, each side's median CPU seconds per
    attempted operation and their median pair ratio, the pairs whose steal
    shares differ by more than STEAL_GAP, and per metric: each side's median,
    the parent's quartiles and their spread relative to its median (as the
    metrics' bounds are), the median pair ratio, the ratios' quartiles and
    median_interval, the change's wins, the verdict and the paired verdict."""
    pairs, cpu, steal = {}, {}, {}
    for run in runs:
        pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]["metrics"]
        cpu.setdefault(run["pair"], {})[run["side"]] = run["cpu_s"] / run["result"]["attempted"]
        steal.setdefault(run["pair"], {})[run["side"]] = run["steal_share"]
    metrics = {}
    for name, first in pairs[1]["parent"].items():
        parent = [p["parent"][name]["value"] for p in pairs.values()]
        change = [p["change"][name]["value"] for p in pairs.values()]
        q1, q3 = quartiles(parent)
        row = {"unit": first["unit"], "parent": statistics.median(parent),
               "change": statistics.median(change), "parent_quartiles": [q1, q3]}
        if row["parent"]:
            row["parent_spread"] = (q3 - q1) / abs(row["parent"])
        if all(parent):
            ratios = [c / p for p, c in zip(parent, change)]
            row["ratio"] = statistics.median(ratios)
            row["ratio_quartiles"] = list(quartiles(ratios))
            interval = median_interval(ratios)
            row["ratio_interval"] = None if interval is None else list(interval)
        if name in better:
            sign = 1 if better[name] == "higher" else -1
            row["change_better_pairs"] = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
            if name in bounds:
                row["verdict"] = verdict(parent, change, better[name], bounds[name])
                if all(parent):
                    row["paired_verdict"] = paired_verdict(parent, change, better[name],
                                                           bounds[name])
        metrics[name] = row
    failed = {side: sum(r["result"]["failed"] for r in runs if r["side"] == side) for side in SIDES}
    cpu_per_op = {side: statistics.median(p[side] for p in cpu.values()) for side in SIDES}
    cpu_per_op["ratio"] = statistics.median(p["change"] / p["parent"] for p in cpu.values())
    flagged = [pair for pair, s in steal.items() if None not in s.values()
               and abs(s["change"] - s["parent"]) > STEAL_GAP]
    return {"failed": failed, "cpu_s_per_op": cpu_per_op, "steal_flagged_pairs": flagged,
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {
        "pairs": args.pairs,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for pair in range(1, args.pairs + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            for side in order:
                start = time.time()
                run = run_perfbench(getattr(args, side), workload, pair)
                runs.append({"pair": pair, "seed": pair, "side": side, **run})
                print(f"{workload} pair {pair} {side}: correct={run['result']['correct']} "
                      f"failed={run['result']['failed']} cpu={run['cpu_s']:.1f} s "
                      f"({time.time() - start:.0f} s)", flush=True)
        report["workloads"][workload] = {"runs": runs, "summary": summarize(runs, better, bounds)}
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, body in report["workloads"].items():
        summary = body["summary"]
        cpu = summary["cpu_s_per_op"]
        print(f"{workload:9s} failed operations: parent {summary['failed']['parent']}, "
              f"change {summary['failed']['change']}; CPU s per operation "
              f"{cpu['parent']:.4g} -> {cpu['change']:.4g} ratio {cpu['ratio']:.3f}; "
              f"pairs whose steal differs by more than {STEAL_GAP:.0%}: "
              f"{summary['steal_flagged_pairs'] or 'none'}")
        for name, row in summary["metrics"].items():
            judged = row.get("verdict", "-")
            if judged == "unresolved":
                judged += f" (CPU s per operation ratio {cpu['ratio']:.3f})"
            print(f"{workload:9s} {name:22s} {row['parent']:>10.4g} -> {row['change']:>10.4g} "
                  f"{row['unit']:6s} ratio {row.get('ratio', float('nan')):.3f} "
                  f"wins {row.get('change_better_pairs', '-')}/{args.pairs} "
                  f"parent spread {row.get('parent_spread', float('nan')):.3f} {judged}; "
                  f"paired {row.get('paired_verdict', '-')}")


if __name__ == "__main__":
    main()
