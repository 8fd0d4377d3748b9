"""Run perfbench on two checkouts in alternating pairs and write a BENCH json.

    python3 scripts/bench_pair.py PARENT_DIR CHANGE_DIR --out BENCH_<n>.json --pairs 10

For every workload that CHANGE_DIR/BENCHMARK.json declares, each pair runs
`perfbench/run.py --trace 0` once in each checkout, at perfbench's own run
length, on the pair's own seed (1, 2, ...), so the two sides of a pair do
the same work. The side that goes first alternates from pair to pair, so a
drift in the machine's speed lands on both sides. The output holds every
run's final JSON line with the run length perfbench reported and, per
workload and metric, both sides' medians, the median of the per-pair ratios
(change / parent) and how many pairs the change won, judged by the metrics'
`better` fields in that file.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def run_perfbench(checkout: Path, workload: str, seed: int) -> tuple[dict, float]:
    """The run's final JSON line and the run length its header reports."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    header = re.search(r"^workload \S+ seed \S+ seconds (\S+)", done.stdout, re.MULTILINE)
    if done.returncode != 0 or not lines or not header:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-1]), float(header[1])


def summarize(runs: list, better: dict) -> dict:
    """Per metric: each side's median, the median pair ratio and the change's wins."""
    pairs = {}
    for run in runs:
        pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]["metrics"]
    summary = {}
    for name, first in pairs[1]["parent"].items():
        parent = [p["parent"][name]["value"] for p in pairs.values()]
        change = [p["change"][name]["value"] for p in pairs.values()]
        row = {"unit": first["unit"], "parent": statistics.median(parent),
               "change": statistics.median(change)}
        if all(parent):
            row["ratio"] = statistics.median(c / p for p, c in zip(parent, change))
        if name in better:
            sign = 1 if better[name] == "higher" else -1
            row["change_better_pairs"] = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        summary[name] = row
    return summary


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
                result, seconds = run_perfbench(getattr(args, side), workload, pair)
                runs.append({"pair": pair, "seed": pair, "side": side, "seconds": seconds,
                             "result": result})
                print(f"{workload} pair {pair} {side}: correct={result['correct']} "
                      f"failed={result['failed']} ({time.time() - start:.0f} s)", flush=True)
        report["workloads"][workload] = {"runs": runs, "summary": summarize(runs, better)}
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, body in report["workloads"].items():
        for name, row in body["summary"].items():
            print(f"{workload:9s} {name:22s} {row['parent']:>10.4g} -> {row['change']:>10.4g} "
                  f"{row['unit']:6s} ratio {row.get('ratio', float('nan')):.3f} "
                  f"wins {row.get('change_better_pairs', '-')}/{args.pairs}")


if __name__ == "__main__":
    main()
