"""Span tracing around the package's public functions, from outside it.

`Tracer.install` swaps each traced function for a wrapper in its defining
module or class and in every module that imported it by name, so calls
between the package's own modules are traced too. A span records name,
start, end, parent span and the operation id set by the worker; spans
stay in memory until `write`. `layer_metrics` turns a span file into the
per-layer numbers.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# (metric prefix, module, attribute, class or None). Order is the report order.
TRACED = (
    ("corpus.load_dataset", "corpus", "load_dataset", None),
    ("preprocess.prepare", "preprocess", "prepare", None),
    ("preprocess.build_vocab", "preprocess", "build_vocab", None),
    ("embeddings.random_table", "embeddings", "random_table", None),
    ("embeddings.lookup", "embeddings", "lookup", "EmbeddingTable"),
    ("model.forward_window", "model", "forward_window", None),
    ("model.encode_sentence", "model", "encode_sentence", None),
    ("model.self_attend", "model", "self_attend", None),
    ("model.classify", "model", "classify", None),
    ("autodiff.backward", "autodiff", "backward", None),
    ("train.train", "train", "train", None),
    ("train.adam_step", "train", "adam_step", None),
    ("train.weighted_cross_entropy", "train", "weighted_cross_entropy", None),
    ("train.evaluate_dataset", "train", "evaluate_dataset", None),
    ("train.load_checkpoint", "train", "load_checkpoint", None),
    ("train.params_from_checkpoint", "train", "params_from_checkpoint", None),
    ("train.save_checkpoint", "train", "save_checkpoint", None),
    ("metrics.report", "metrics", "report", None),
    ("cli.main", "cli", "main", None),
)
# Functions with traced callees, whose self time is reported.
SELF_TIMED = (
    "preprocess.build_vocab", "model.forward_window", "model.encode_sentence",
    "train.train", "train.evaluate_dataset", "cli.main",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent id, op id, tape length]
        self.stack = []
        self.op = "setup"
        self._swapped = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        counts_tape = name == "autodiff.backward"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op,
                    len(args[0]) if counts_tape else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self, package) -> None:
        """Wrap every TRACED function of the imported package."""
        modules = [getattr(package, m) for m in sorted({t[1] for t in TRACED})]
        for name, module_name, attr, class_name in TRACED:
            module = getattr(package, module_name)
            owner = getattr(module, class_name) if class_name else module
            original = vars(owner)[attr]
            wrapped = self._wrap(name, original)
            holders = [owner] if class_name else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)
                        self._swapped.append((holder, key, original))

    def uninstall(self) -> None:
        while self._swapped:
            holder, key, original = self._swapped.pop()
            setattr(holder, key, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, tape) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": start, "end": end, "parent": parent, "op": op}
                if tape is not None:
                    rec["tape_ops"] = tape
                fh.write(json.dumps(rec) + "\n")


def read_spans(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def self_times(spans) -> list:
    """Each span's duration minus the union of its child spans' intervals."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = []
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out.append(s["end"] - s["start"] - covered)
    return out


def layer_metrics(spans, preprocess_utterances: int) -> dict:
    """Per-layer metrics as {name: (value, unit)}.

    preprocess_utterances is the number of input utterances the traced
    preprocess commands read; prepare calls made under those commands are
    divided by it.
    """
    calls, ms, self_ms = defaultdict(int), defaultdict(float), defaultdict(float)
    tape_ops, backward_calls, prep_calls = 0, 0, 0
    for s, own in zip(spans, self_times(spans)):
        name = s["name"]
        calls[name] += 1
        ms[name] += 1e3 * (s["end"] - s["start"])
        self_ms[name] += 1e3 * own
        if "tape_ops" in s:
            tape_ops += s["tape_ops"]
            backward_calls += 1
        if name == "preprocess.prepare" and s["op"].startswith("preprocess"):
            prep_calls += 1
    out = {}
    for name, *_ in TRACED:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.ms"] = (ms[name], "ms")
        if name in SELF_TIMED:
            out[f"{name}.self_ms"] = (self_ms[name], "ms")
    out["autodiff.tape_ops"] = (tape_ops / backward_calls if backward_calls else 0.0, "ops/step")
    out["preprocess.prepare_per_utt"] = (
        prep_calls / preprocess_utterances if preprocess_utterances else 0.0, "calls/utt"
    )
    return out
