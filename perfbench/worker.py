"""One benchmark process: set up, then run one workload's measured phases.

    python3 perfbench/worker.py RUN_DIR {checkpoint|setup|measure}

run.py starts this in a fresh process for each step, with the BLAS thread
count fixed in the environment, so imports are cold, set-up time can be
sampled several times, and peak RSS belongs to one workload. RUN_DIR
holds the generated inputs and spec.json; results go back as JSON files
in RUN_DIR.

- checkpoint: write the serving checkpoint and vocab.txt from seeded init.
- setup: time set-up only and write setup-<pid>.json.
- measure: set up, then repeat spec["cycle"] (train, preprocess, eval and
  predict operations) for spec["seconds"] and at least spec["min_cycles"]
  times; write result.json (and spans.jsonl when tracing).
"""
from __future__ import annotations

import time

STARTED = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Session:
    """Imports the package from the checkout and holds the set-up state."""

    def __init__(self, run_dir: Path, tracer=None):
        self.run_dir = run_dir
        self.spec = json.loads((run_dir / "spec.json").read_text(encoding="utf-8"))
        src = Path(self.spec["root"]) / "src"
        sys.path.insert(0, str(src))
        import dialoglow
        from dialoglow import cli, corpus, embeddings, model, preprocess, train

        if Path(dialoglow.__file__).resolve().parent != (src / "dialoglow").resolve():
            raise SystemExit(f"imported dialoglow from {dialoglow.__file__}, not from {src}")
        self.pkg, self.cli, self.corpus, self.emb = dialoglow, cli, corpus, embeddings
        self.model, self.pp, self.tr = model, preprocess, train
        if tracer is not None:
            tracer.install(dialoglow)
        self.mcfg = model.ModelConfig(variant=self.spec["variant"])

    def setup(self) -> None:
        """Corpus load, vocab build, embedding table, checkpoint load and vocab-hash check."""
        run, spec = self.run_dir, self.spec
        self.ds = self.corpus.load_dataset(run / "corpus.json", self.corpus.Split.TRAIN)
        self.vocab = self.tr.vocab_from_dataset(self.ds)
        self.table = self.emb.random_table(self.vocab, self.mcfg.embed_dim, seed=spec["seed"])
        if (run / "checkpoint.bin").exists():
            ckpt = self.tr.load_checkpoint(run / "checkpoint.bin")
            if self.pp.vocab_sha256(run / "vocab.txt") != ckpt.vocab_sha256:
                raise SystemExit("serving vocab.txt does not match the checkpoint")
            self.pp.Vocab.load(run / "vocab.txt")
            self.tr.params_from_checkpoint(ckpt)

    def write_checkpoint(self) -> None:
        tr, spec = self.tr, self.spec
        params = self.model.ModelParams.init(self.mcfg, self.table, seed=spec["seed"])
        # Seeded init gives every utterance the same label. Centring the output
        # bias on the mean logit of some corpus dialogues makes labels depend on
        # the input, so the label checks can catch a changed forward pass.
        sample = self.corpus.Dataset(self.corpus.Split.TRAIN, self.ds.dialogues[:10])
        logits = [
            self.model.forward_window(ids, params, self.mcfg).data
            for dlg in tr.encode_dataset(sample, self.vocab, self.mcfg.window_size)
            for ids, _ in dlg
        ]
        params.out_b.data = -np.concatenate(logits).mean(axis=0)
        tensors = {k: t.data for k, t in params.named_tensors().items()}
        meta = {"embedding": {"oov_count": self.table.oov_count, "trainable": True}}
        ckpt = tr.Checkpoint(self.mcfg, tensors, self.pp.vocab_content_sha256(self.vocab), meta)
        tr.save_checkpoint(ckpt, self.run_dir / "checkpoint.bin")
        self.vocab.save(self.run_dir / "vocab.txt")

    # -- operations: each returns (seconds, utterances processed, output record)

    def op_train(self, i):
        spec, Dataset = self.spec, self.corpus.Dataset
        dialogues = self.ds.dialogues
        n_train = spec["train_dialogues"]
        train_ds = Dataset(self.corpus.Split.TRAIN, dialogues[:n_train])
        val_ds = Dataset(self.corpus.Split.VALIDATION, dialogues[n_train : n_train + 1])
        tcfg = self.tr.TrainConfig(epochs=spec["epochs"], seed=spec["seed"])
        # train() updates the table it is given, so every call gets a fresh copy.
        base = self.table
        table = self.emb.EmbeddingTable(
            weights=self.pkg.autodiff.Tensor(base.weights.data.copy(), requires_grad=True),
            dim=base.dim, oov_count=base.oov_count, trainable=True,
        )
        start = time.perf_counter()
        result = self.tr.train(train_ds, self.vocab, table, self.mcfg, tcfg, val_ds=val_ds)
        elapsed = time.perf_counter() - start
        return elapsed, train_ds.utterance_count() * spec["epochs"], {"history": result.history}

    def op_preprocess(self, i):
        out = self.run_dir / "prep"
        argv = ["preprocess", str(self.run_dir / "chat.json"), "--out", str(out)]
        start = time.perf_counter()
        rc = self.cli.main(argv)
        elapsed = time.perf_counter() - start
        rec = {"rc": rc}
        if rc == 0:
            stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
            rec.update(vocab_sha256=_sha256(out / "vocab.txt"),
                       encoded_sha256=_sha256(out / "encoded.json"),
                       utterances=stats["utterances"])
        return elapsed, self.spec["chat_utterances"], rec

    def op_eval(self, i):
        out = self.run_dir / "eval.json"
        argv = ["eval", str(self.run_dir / "checkpoint.bin"), str(self.run_dir / "heldout.json"),
                "--out", str(out)]
        start = time.perf_counter()
        rc = self.cli.main(argv)
        elapsed = time.perf_counter() - start
        rec = {"rc": rc}
        if rc == 0:
            rec["report"] = json.loads(out.read_text(encoding="utf-8"))["report"]
        return elapsed, self.spec["heldout_utterances"], rec

    def op_predict(self, i):
        k = i % self.spec["heldout_dialogues"]
        out = self.run_dir / "predicted.json"
        argv = ["predict", str(self.run_dir / "checkpoint.bin"),
                str(self.run_dir / f"predict-{k}.json"), "--out", str(out)]
        start = time.perf_counter()
        rc = self.cli.main(argv)
        elapsed = time.perf_counter() - start
        rec = {"rc": rc, "dialogue": k}
        if rc == 0:
            rec["output"] = json.loads(out.read_text(encoding="utf-8"))
        return elapsed, self.spec["predict_utterances"][k], rec


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": sys.version.split()[0],
    }


def _run_op(session, tracer, kind, i) -> dict:
    # Traced runs alternate traced and untraced train calls, which gives the tracing overhead.
    traced = tracer is not None and (kind != "train" or i % 2 == 0)
    if tracer is not None:
        tracer.op = f"{kind}-{i}"
        if not traced:
            tracer.uninstall()
    try:
        elapsed, utts, rec = getattr(session, f"op_{kind}")(i)
        return {"kind": kind, "s": elapsed, "utts": utts, "traced": traced, **rec}
    except Exception as exc:  # an operation that raises is counted as failed
        return {"kind": kind, "s": None, "utts": 0, "traced": traced,
                "error": f"{type(exc).__name__}: {exc}"}
    finally:
        if tracer is not None and not traced:
            tracer.install(session.pkg)


def measure(run_dir: Path) -> None:
    spec = json.loads((run_dir / "spec.json").read_text(encoding="utf-8"))
    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
    session = Session(run_dir, tracer)
    session.setup()
    setup_s = time.perf_counter() - STARTED

    ops, index = [], {}
    start, cycles = time.perf_counter(), 0
    while cycles < spec["min_cycles"] or time.perf_counter() - start < spec["seconds"]:
        for kind, count in spec["cycle"]:
            for _ in range(count):
                i = index[kind] = index.get(kind, -1) + 1
                ops.append(_run_op(session, tracer, kind, i))
        cycles += 1

    if tracer is not None:
        tracer.write(run_dir / "spans.jsonl")
    result = {
        "setup_s": setup_s,
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "vocab_size": len(session.vocab),
        "env": _environment(),
    }
    (run_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")


def main(argv) -> None:
    run_dir, mode = Path(argv[0]), argv[1]
    if mode == "measure":
        measure(run_dir)
        return
    session = Session(run_dir)
    session.setup()
    elapsed = time.perf_counter() - STARTED
    if mode == "checkpoint":
        session.write_checkpoint()
    else:
        out = run_dir / f"setup-{os.getpid()}.json"
        out.write_text(json.dumps({"setup_s": elapsed}), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
