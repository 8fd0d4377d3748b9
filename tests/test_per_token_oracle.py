"""Logits and gradients pinned to the per-token LSTM the window encoder replaced.

`tests/data/per_token_oracle.json` holds the outputs of the unrolled
encoder (one LSTM cell op per token and direction) for seeded toy models
of both variants on ragged windows. The parameters are rebuilt here from
the recorded seeds, so the fixture stores only inputs and outputs. It was
written by running this module as a script against the commit named in
its "parent" field:

    PYTHONPATH=<checkout of that commit>/src python3 tests/test_per_token_oracle.py
"""
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dialoglow import autodiff as ad
from dialoglow import embeddings as emb
from dialoglow import model as m
from dialoglow import preprocess as pp

FIXTURE = Path(__file__).parent / "data" / "per_token_oracle.json"
WORDS = ["red", "green", "blue", "amber", "plum", "teal", "gold"]
# Ragged windows: lengths include 1, and the longest utterance sits in the middle.
WINDOWS = [
    ["red green blue amber plum", "teal", "gold red red green blue amber plum teal", "plum gold"],
    ["amber", "blue teal gold green red plum", "red green"],
]
GOLDS = [[0, 3, 1, 5], [2, 0, 1]]
WEIGHTS = [[1.0, 2.0, 0.5, 0.0], [1.0, 1.0, 3.0]]


def case_specs():
    return [
        {"variant": variant, "table_seed": 10 + k, "param_seed": 20 + k, "window": w}
        for k, variant in enumerate(("sa-bilstm", "bilstm"))
        for w in range(len(WINDOWS))
    ]


def outputs(spec):
    """(logits, {tensor name: gradient}) of weighted_nll(forward_window(...))."""
    cfg = m.ModelConfig(embed_dim=8, hidden_size=4, window_size=6, fc_dims=(8,),
                        variant=spec["variant"])
    vocab = pp.build_vocab([WORDS])
    table = emb.random_table(vocab, cfg.embed_dim, seed=spec["table_seed"])
    params = m.ModelParams.init(cfg, table, seed=spec["param_seed"])
    w = spec["window"]
    ids = [vocab.encode(text.split()) for text in WINDOWS[w]]
    with ad.Tape() as tape:
        logits = m.forward_window(ids, params, cfg)
        loss = ad.weighted_nll(logits, GOLDS[w], WEIGHTS[w])
    grads = ad.backward(tape, loss)
    named = params.named_tensors()
    return logits.data, {name: grads[t] for name, t in named.items()}


def record(path):
    parent = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                            check=True, cwd=Path(m.__file__).parent).stdout.strip()
    cases = []
    for spec in case_specs():
        logits, grads = outputs(spec)
        cases.append({**spec, "logits": logits.tolist(),
                      "grads": {k: g.tolist() for k, g in grads.items()}})
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"parent": parent, "cases": cases}) + "\n", encoding="utf-8")


def rel_diff(got, want):
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    scale = np.max(np.abs(want))
    return float(np.max(np.abs(got - want)) / scale) if scale else float(np.max(np.abs(got)))


@pytest.mark.parametrize("index", range(len(case_specs())))
def test_logits_and_gradients_match_the_per_token_encoder(index):
    recorded = json.loads(FIXTURE.read_text(encoding="utf-8"))["cases"][index]
    spec = case_specs()[index]
    assert {k: recorded[k] for k in spec} == spec
    logits, grads = outputs(spec)
    assert rel_diff(logits, recorded["logits"]) <= 1e-10
    assert set(grads) == set(recorded["grads"])
    for name, g in grads.items():
        assert rel_diff(g, recorded["grads"][name]) <= 1e-10, name


if __name__ == "__main__":
    record(Path(sys.argv[1]) if len(sys.argv) > 1 else FIXTURE)
