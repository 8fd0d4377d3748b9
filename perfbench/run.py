"""dialoglow benchmark: training, serving and preprocessing in one run.

    python3 perfbench/run.py --workload {dialogue,flat} --seed N --seconds S --trace {0,1}

Run from the root of a checkout. It generates the workload's inputs from
the seed, then starts worker.py in fresh processes: one writes the serving
checkpoint, two time set-up alone, and one sets up and then repeats a
cycle of one train.train call and in-process `preprocess`, `eval` and
`predict` commands. The outputs are checked, and the last line of stdout
is one JSON object with the metrics. With --trace 1 the measured process
records spans around the package's public functions and the metrics are
the per-layer ones. See README.md for the metric definitions.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

# One OpenBLAS thread: the model's GEMMs are small (one token's gates at a
# time), so a second thread gains little and makes throughput swing with
# whatever else the machine runs.
BLAS_THREADS = 1
SETUP_SAMPLES = 3  # fresh processes; setup_s is their median
REFERENCE_SEED = 0
# Operations run round-robin in this cycle, so every metric samples the whole
# run rather than one stretch of it. Five cycles give 100 predict samples,
# so predict_ms_p90 has 10 beyond it.
CYCLE = (("train", 1), ("preprocess", 1), ("eval", 1), ("predict", 20))
MIN_CYCLES = 5
TRAIN_DIALOGUES = 2  # per train.train call, plus one validation dialogue
EPOCHS = 1
HELDOUT_DIALOGUES = 10  # the `eval` input; each is also one `predict` input
WORKER_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    variant: str
    shape: gen.Shape
    corpus_utterances: int  # vocab-building corpus; training calls use its first dialogues
    chat_utterances: int  # the `preprocess` input


WORKLOADS = {
    "dialogue": Workload(
        variant="sa-bilstm",
        shape=gen.Shape(core_words=5000, zipf_s=1.05, tail_rate=0.04, utt_len=11, min_len=1,
                        max_len=40, dlg_len=15, feature_rate=0.05),
        corpus_utterances=6000, chat_utterances=3000,
    ),
    "flat": Workload(
        variant="bilstm",
        shape=gen.Shape(core_words=8000, zipf_s=1.0, tail_rate=0.45, utt_len=3, min_len=2,
                        max_len=4, dlg_len=15, feature_rate=0.05),
        corpus_utterances=20000, chat_utterances=8000,
    ),
}

END_TO_END = (
    ("setup_s", "s"), ("train_utt_per_s", "utt/s"), ("eval_utt_per_s", "utt/s"),
    ("preprocess_utt_per_s", "utt/s"), ("predict_ms_p50", "ms"), ("peak_rss_mb", "MB"),
)
# Printed in the table but left out of the JSON line, which BENCHMARK.json
# bounds: on a shared 2-core VM the tail moved 12-18% between sets of runs,
# too close to the widest bound allowed.
PRINTED_ONLY = (("predict_ms_p90", "ms"),)


def generate(wl: Workload, seed: int, run_dir: Path) -> dict:
    """Write the workload's inputs into run_dir; return what the checks need."""
    g = gen.Generator(wl.shape, seed)
    # Timed train.train calls take the corpus's first dialogues; they and the
    # held-out dialogues have the mean length, so each seed does the same work.
    n = round(wl.shape.dlg_len)
    corpus = [g.dialogue(n) for _ in range(TRAIN_DIALOGUES + 1)]
    corpus += g.corpus(wl.corpus_utterances - gen.utterances(corpus))
    chat = g.corpus(wl.chat_utterances)
    heldout = [g.dialogue(n) for _ in range(HELDOUT_DIALOGUES)]
    gen.write_json(run_dir / "corpus.json", corpus)
    gen.write_json(run_dir / "chat.json", chat)
    gen.write_json(run_dir / "heldout.json", heldout)
    for k, d in enumerate(heldout):
        gen.write_json(run_dir / f"predict-{k}.json", [d])
    return {"chat_utterances": gen.utterances(chat), "heldout": heldout,
            "corpus_dialogues": len(corpus), "corpus_utterances": gen.utterances(corpus)}


def _worker(run_dir: Path, mode: str, env: dict) -> None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(run_dir), mode],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"worker {mode} exited with code {proc.returncode}")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(result: dict, setup_samples: list) -> dict:
    def rates(kind):
        return [op["utts"] / op["s"] for op in result["ops"] if op["kind"] == kind and op["s"]]

    predict_ms = [1e3 * op["s"] for op in result["ops"] if op["kind"] == "predict" and op["s"]]
    values = {
        "setup_s": statistics.median(setup_samples),
        "train_utt_per_s": statistics.median(rates("train")),
        "eval_utt_per_s": statistics.median(rates("eval")),
        "preprocess_utt_per_s": statistics.median(rates("preprocess")),
        "predict_ms_p50": percentile(predict_ms, 0.5),
        "predict_ms_p90": percentile(predict_ms, 0.9),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {name: (values[name], unit) for name, unit in END_TO_END + PRINTED_ONLY}


def per_layer(result: dict, run_dir: Path, inputs: dict) -> dict:
    ops = result["ops"]
    traced_preprocess = sum(1 for op in ops if op["kind"] == "preprocess" and op["traced"])
    out = spans.layer_metrics(spans.read_spans(run_dir / "spans.jsonl"),
                              traced_preprocess * inputs["chat_utterances"])
    # The first train call warms up the allocator, so the comparison leaves it out.
    train = [op for op in ops if op["kind"] == "train" and op["s"]][1:]
    rate = {
        traced: statistics.median(op["utts"] / op["s"] for op in train if op["traced"] == traced)
        for traced in (False, True)
    }
    out["train_utt_per_s.untraced"] = (rate[False], "utt/s")
    out["train_utt_per_s.traced"] = (rate[True], "utt/s")
    out["trace.overhead_pct"] = (100.0 * (rate[False] - rate[True]) / rate[False], "%")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="store this run's outputs as the workload's reference (reference seed only)")
    args = ap.parse_args(argv)
    if args.write_reference and args.seed != REFERENCE_SEED:
        ap.error(f"--write-reference needs --seed {REFERENCE_SEED}")

    root = Path.cwd()
    if not (root / "src" / "dialoglow" / "__init__.py").is_file():
        print(f"error: {root} has no src/dialoglow; run from the root of a dialoglow checkout",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    run_dir = root / ".perfbench" / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        inputs = generate(wl, args.seed, run_dir)
        nproc = len(os.sched_getaffinity(0))
        threads = str(min(BLAS_THREADS, nproc))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONHASHSEED="0")
        spec = {
            "root": str(root), "seed": args.seed, "trace": args.trace, "variant": wl.variant,
            "train_dialogues": TRAIN_DIALOGUES, "epochs": EPOCHS,
            "chat_utterances": inputs["chat_utterances"],
            "heldout_dialogues": HELDOUT_DIALOGUES,
            "heldout_utterances": sum(len(d) for d in inputs["heldout"]),
            "predict_utterances": [len(d) for d in inputs["heldout"]],
            "seconds": args.seconds,
            "cycle": CYCLE,
            "min_cycles": MIN_CYCLES,
        }
        (run_dir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        _worker(run_dir, "checkpoint", env)
        for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
            _worker(run_dir, "setup", env)
        _worker(run_dir, "measure", env)
        result = json.loads((run_dir / "result.json").read_text(encoding="utf-8"))
        setup_samples = [json.loads(p.read_text())["setup_s"] for p in run_dir.glob("setup-*.json")]
        setup_samples.append(result["setup_s"])

        ref_path = HERE / "reference.json"
        refs = json.loads(ref_path.read_text(encoding="utf-8"))
        ref = refs.get(args.workload) if args.seed == REFERENCE_SEED else None
        ops = result["ops"]
        verdicts = checks.verify(ops, inputs, None if args.write_reference else ref)
        failed = sum(v is not None for v in verdicts)
        if args.write_reference and failed == 0:
            refs[args.workload] = checks.reference_from(ops)
            ref_path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")

        if args.trace:
            metrics = per_layer(result, run_dir, inputs)
            shutil.copy(run_dir / "spans.jsonl", root / ".perfbench" / f"spans-{args.workload}.jsonl")
        else:
            metrics = end_to_end(result, setup_samples)
        report(args, inputs, result, setup_samples, ops, verdicts, metrics, ref)
        hidden = {name for name, _ in PRINTED_ONLY}
        print(json.dumps({
            "correct": failed == 0,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {name: {"value": v, "unit": unit}
                        for name, (v, unit) in metrics.items() if name not in hidden},
        }))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def report(args, inputs, result, setup_samples, ops, verdicts, metrics, ref) -> None:
    """Human-readable lines ahead of the JSON line."""
    env = result["env"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"environment: nproc {env['nproc']}, BLAS threads {env['blas_threads']}, numpy {env['numpy']}, "
          f"{env['blas']}, python {env['python']}")
    print(f"inputs: corpus {inputs['corpus_dialogues']} dialogues / {inputs['corpus_utterances']} utterances, "
          f"vocab {result['vocab_size']}, preprocess file {inputs['chat_utterances']} utterances, held-out {len(inputs['heldout'])} dialogues; "
          f"checked against {'reference.json' if ref else 'run consistency only'}")
    counts = {}
    for op in ops:
        counts[op["kind"]] = counts.get(op["kind"], 0) + 1
    failed = sum(v is not None for v in verdicts)
    print("operations: " + ", ".join(f"{k} {n}" for k, n in counts.items())
          + f"; setup samples {len(setup_samples)}")
    for op, v in zip(ops, verdicts):
        if v is not None:
            print(f"FAILED {op['kind']}: {v}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.4f} {unit}")
    print(f"  {'failed_frac':<40} {failed / len(ops):>14.4f} ratio")


if __name__ == "__main__":
    sys.exit(main())
