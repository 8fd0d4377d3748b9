"""Command-line surface: preprocess, train, eval, predict, gradcheck.

Defaults come from the dataclass configs, a sectioned key-value config
file can override them, and command-line flags win over both. Exit codes:
0 success, 1 runtime failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import json
import os
import sys
import time
import typing
from pathlib import Path

import numpy as np

from . import __version__
from . import autodiff as ad
from . import embeddings as emb
from . import metrics as mx
from . import model as m
from . import preprocess as pp
from . import train as tr
from .corpus import (
    CONSIDERED_LABELS, CorpusError, Dataset, LABEL_INDEX, LABEL_ORDER, Split, corpus_stats,
    load_dataset, split_train_validation, split_windows,
)
from .files import read_text, write_atomic

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_INPUT = 2


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# config plumbing


def _parse_dims(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse layer sizes from {text!r} (want e.g. 128,128)")


def _parse_class_weights(text: str):
    """A weighting mode, resolved after the data loads, or the explicit weights."""
    text = text.strip()
    if text in ("uniform", "inverse-frequency"):
        return text
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad class_weights {text!r}: {exc}")


def _min_count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


_min_count.__name__ = "int"  # argparse names the type in its errors


def _optional(parse):
    def parse_optional(text: str):  # blank text is None: the field's default
        return parse(text) if text.strip() else None
    parse_optional.__name__ = parse.__name__  # argparse names the type in its errors
    return parse_optional


# One parser per field annotation of the config dataclasses (a bare tuple is
# class_weights), for config-file values and flags alike. A parser raises
# ValueError for text of the wrong type and ArgumentTypeError with its own message.
_PARSERS = {
    int: int,
    float: float,
    str: str,
    tuple[int, ...]: _parse_dims,
    int | None: _optional(int),
    float | None: _optional(float),
    tuple: _parse_class_weights,
}
# Config file section -> key -> parser; [model] and [train] keys are the config fields.
_KEYS = {
    section: {key: _PARSERS[hint] for key, hint in typing.get_type_hints(cls).items()}
    for section, cls in (("model", m.ModelConfig), ("train", tr.TrainConfig))
}
_KEYS["paths"] = {"data_dir": str}


def _read_config_file(path: Path) -> dict:
    """Sectioned key=value file -> {'model': {...}, 'train': {...}, 'paths': {...}}."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(read_text(path, CliError), source=str(path))
    except FileNotFoundError:
        raise CliError(f"no such config file: {path}")
    except configparser.Error as exc:
        raise CliError(f"bad config file {path}: {exc}")
    out = {section: {} for section in _KEYS}
    for section in parser.sections():
        if section not in out:
            raise CliError(f"{path}: unknown config section [{section}]")
        keys = _KEYS[section]
        for key, raw in parser.items(section):
            if key not in keys:
                raise CliError(f"{path}: unknown key {key!r} in [{section}]")
            try:
                out[section][key] = keys[key](raw)
            except ValueError:
                raise CliError(f"{path}: bad value {raw!r} for {key}")
            except argparse.ArgumentTypeError as exc:
                raise CliError(str(exc))
    return out


def _build_configs(args):
    """defaults < config file < flags. Returns (ModelConfig, TrainConfig, weight_mode, paths)."""
    file_cfg = {section: {} for section in _KEYS}
    if getattr(args, "config", None):
        file_cfg = _read_config_file(Path(args.config))
    model_kw, train_kw = file_cfg["model"], file_cfg["train"]
    # A flag given on the command line sets its field's attribute, already parsed.
    for section, kw in (("model", model_kw), ("train", train_kw)):
        kw.update((key, value) for key, value in vars(args).items() if key in _KEYS[section])
    weight_mode = train_kw.pop("class_weights", "uniform")
    if not isinstance(weight_mode, str):
        train_kw["class_weights"], weight_mode = weight_mode, "explicit"
    try:
        mcfg, tcfg = m.ModelConfig(**model_kw), tr.TrainConfig(**train_kw)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad configuration: {exc}")
    return mcfg, tcfg, weight_mode, file_cfg["paths"]


def _data_dir(paths_cfg: dict) -> "Path | None":
    raw = os.environ.get("DIALOGLOW_DATA_DIR") or paths_cfg.get("data_dir")
    return Path(raw) if raw else None


def _resolve_input(raw: str, data_dir: "Path | None") -> Path:
    p = Path(raw)
    if p.exists():
        return p
    if data_dir is not None and not p.is_absolute():
        candidate = data_dir / p
        if candidate.exists():
            return candidate
    raise CliError(f"no such file: {raw}")


def _provenance(ckpt: tr.Checkpoint) -> dict:
    """The configs and tool version behind a checkpoint, for JSON outputs."""
    return {
        "config": {
            "model": dataclasses.asdict(ckpt.model_config),
            "train": ckpt.metadata.get("train_config"),
        },
        "version": __version__,
    }


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8"))


# ---------------------------------------------------------------------------
# commands


def _encoded_json(ds: Dataset, tokens: dict, vocab: pp.Vocab, run_cfg: dict) -> str:
    """The text json.dumps(indent=2, sort_keys=True) gives for ``encoded.json``'s
    document, rendered from fixed templates without building the document.

    ``tokens`` maps each utterance text to its tokens. Every key is fixed, so
    each level is one template with its keys in sorted order, and strings go
    through json's own escaping. A text's ``token_ids`` block is rendered
    once, at its final depth (12 spaces). A dialogue always has utterances,
    and an utterance tokens (tokenize gives [<unk>] for no text), so only the
    dialogue list can be empty.
    """
    enc = json.encoder.encode_basestring_ascii
    ids = {
        text: "[\n            " + ",\n            ".join(map(str, vocab.encode(seq))) + "\n          ]"
        for text, seq in tokens.items()
    }
    gold = {lab: enc(str(lab)) for lab in LABEL_ORDER}
    dialogues = ",\n".join(
        f'    {{\n      "id": {enc(d.id)},\n      "utterances": [\n'
        + ",\n".join(
            f'        {{\n          "gold": {gold[u.gold]},\n          "speaker": {enc(u.speaker_id)},'
            f'\n          "token_ids": {ids[u.raw_text]}\n        }}'
            for u in d.utterances
        )
        + "\n      ]\n    }"
        for d in ds.dialogues
    )
    dialogues = f"[\n{dialogues}\n  ]" if ds.dialogues else "[]"
    config = json.dumps(run_cfg, indent=2, sort_keys=True).replace("\n", "\n  ")
    vocab_hash = enc(pp.vocab_content_sha256(vocab))
    return f'{{\n  "config": {config},\n  "dialogues": {dialogues},\n  "vocab_sha256": {vocab_hash}\n}}\n'


def cmd_preprocess(args) -> int:
    data_dir = _data_dir({})
    path = _resolve_input(args.data, data_dir)
    ds = load_dataset(path, Split(args.split))
    texts = [u.raw_text for d in ds.dialogues for u in d.utterances]
    tokens = pp.prepare_distinct(texts)
    vocab = pp.build_vocab(map(tokens.__getitem__, texts), min_count=args.min_count)
    stats = corpus_stats(ds, tokens.__getitem__)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    vocab.save(out / "vocab.txt")

    run_cfg = {"min_count": args.min_count, "split": args.split, "version": __version__}
    write_atomic(out / "encoded.json", _encoded_json(ds, tokens, vocab, run_cfg).encode("ascii"))
    _write_json(
        out / "stats.json",
        {
            "config": run_cfg,
            "dialogues": stats.dialogues,
            "utterances": stats.utterances,
            "unique_tokens": stats.unique_tokens,
            "label_histogram": {str(k): v for k, v in stats.label_histogram.items()},
            "label_percentages": {str(k): v for k, v in stats.label_percentages().items()},
        },
    )
    print(
        f"{stats.dialogues} dialogues, {stats.utterances} utterances, "
        f"{stats.unique_tokens} unique tokens -> {out}"
    )
    return EXIT_OK


def _epoch_printer(row):
    print(
        f"epoch {row['epoch']:>3}  lr {row['lr']:.6f}  "
        f"loss {row['train_loss']:.4f}  WA {mx.pct(row['val_wa']):>5}  UWA {mx.pct(row['val_uwa']):>5}"
    )


def cmd_train(args) -> int:
    mcfg, tcfg, weight_mode, paths_cfg = _build_configs(args)
    data_dir = _data_dir(paths_cfg)
    ds = load_dataset(_resolve_input(args.data, data_dir), Split.TRAIN)
    val_ds = None if args.val is None else load_dataset(_resolve_input(args.val, data_dir), Split.VALIDATION)
    if not ds.dialogues:
        raise CliError("training set holds no dialogues")
    if val_ds is None:
        # Carve validation out first so the vocab never sees held-out text.
        ds, val_ds = split_train_validation(ds, tcfg.val_fraction, tcfg.seed)
        if not ds.dialogues:
            raise CliError("validation split consumed every training dialogue")
        if not val_ds.dialogues:  # nothing held out: score the training part
            val_ds = ds
    elif not val_ds.dialogues:
        raise CliError("validation set holds no dialogues")
    else:  # record that nothing was held out of the training file
        tcfg = dataclasses.replace(tcfg, val_fraction=0.0)

    if weight_mode == "inverse-frequency":
        try:
            weights = tr.inverse_frequency_weights(ds)
        except ValueError as exc:  # no considered label to count
            raise CliError(str(exc))
        tcfg = dataclasses.replace(tcfg, class_weights=weights)
    if not any(tcfg.class_weights[LABEL_INDEX[u.gold]] for d in ds.dialogues for u in d.utterances):
        raise CliError("the class weights give every training utterance weight 0: no step would train")
    if not any(u.gold in CONSIDERED_LABELS for d in val_ds.dialogues for u in d.utterances):
        scored = "held-out validation split" if args.val is None else f"validation set {args.val}"
        raise CliError(f"the {scored} holds no utterance with a considered label: no epoch would be selected")

    vocab = tr.vocab_from_dataset(ds, min_count=args.min_count)
    if args.embeddings is not None:
        table = emb.load_pretrained(
            _resolve_input(args.embeddings, data_dir),
            vocab,
            dim=mcfg.embed_dim,
            seed=tcfg.seed,
            trainable=not args.freeze_embeddings,
        )
        print(f"embeddings: {table.vocab_size - table.oov_count - 1} rows loaded, {table.oov_count} randomized")
    else:
        table = emb.random_table(vocab, mcfg.embed_dim, seed=tcfg.seed, trainable=not args.freeze_embeddings)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # a bad --out fails here, not after the run
    on_epoch = None if args.quiet else _epoch_printer
    try:
        result = tr.train(ds, vocab, table, mcfg, tcfg, val_ds, on_epoch=on_epoch)
    except (ValueError, FloatingPointError) as exc:
        # a non-finite op output, loss or gradient is a runtime failure
        raise CliError(f"training aborted: {exc}", code=EXIT_RUNTIME)

    vocab.save(out / "vocab.txt")
    tr.save_checkpoint(result.best, out / "checkpoint.bin")
    _write_json(out / "history.json", {**_provenance(result.best), "history": result.history})
    best = result.best.metadata["epoch"]
    uwa = mx.pct(result.history[best]["val_uwa"])
    print(f"best epoch {best} (UWA {uwa}) -> {out / 'checkpoint.bin'}")
    return EXIT_OK


def _load_model(args):
    data_dir = _data_dir({})
    ckpt_path = _resolve_input(args.checkpoint, data_dir)
    ckpt = tr.load_checkpoint(ckpt_path)
    vocab_path = Path(args.vocab) if args.vocab else ckpt_path.parent / "vocab.txt"
    if not vocab_path.exists():
        raise CliError(f"vocab file not found: {vocab_path} (pass --vocab)")
    blob = vocab_path.read_bytes()  # one read: the bytes hashed are the bytes loaded
    file_hash = hashlib.sha256(blob).hexdigest()
    if file_hash != ckpt.vocab_sha256:
        raise CliError(
            f"vocab hash mismatch: {ckpt_path} was trained with {ckpt.vocab_sha256[:12]}..., "
            f"{vocab_path} hashes to {file_hash[:12]}..."
        )
    vocab = pp.Vocab.from_bytes(blob)
    cfg, params = tr.params_from_checkpoint(ckpt)
    if params.embedding.vocab_size != len(vocab):
        raise tr.CheckpointError(
            f"{ckpt_path}: tensor 'embedding' has {params.embedding.vocab_size} rows, "
            f"{vocab_path} holds {len(vocab)} tokens"
        )
    return ckpt, vocab, cfg, params


def cmd_eval(args) -> int:
    ckpt, vocab, cfg, params = _load_model(args)
    path = _resolve_input(args.data, _data_dir({}))
    ds = load_dataset(path, Split.TEST)
    try:
        report = tr.evaluate_dataset(ds, vocab, params, cfg)
    except mx.MetricsError as exc:  # the one way to get here: nothing scored
        why = "no utterance with a considered label" if ds.dialogues else "no dialogues"
        raise CliError(f"{path}: zero scored utterances, as it holds {why}") from exc
    print(report.table())
    blob = {**_provenance(ckpt), "report": report.to_json_dict()}
    if args.out:
        _write_json(Path(args.out), blob)
    else:
        print(json.dumps(blob, indent=2, sort_keys=True))
    return EXIT_OK


def _read_prediction_input(path: Path):
    try:
        doc = json.loads(read_text(path, CliError))
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: malformed JSON: {exc}")
    if not isinstance(doc, list):
        raise CliError(f"{path}: expected a top-level array of dialogues")
    for di, dlg in enumerate(doc):
        if not isinstance(dlg, list):
            raise CliError(f"{path}: dialogue {di} is not an array")
        for ui, u in enumerate(dlg):
            if not isinstance(u, dict) or not isinstance(u.get("utterance"), str):
                raise CliError(
                    f"{path}: dialogue {di} utterance {ui} needs an 'utterance' string field"
                )
    return doc


def cmd_predict(args) -> int:
    ckpt, vocab, cfg, params = _load_model(args)
    path = _resolve_input(args.input, _data_dir({}))
    doc = _read_prediction_input(path)

    # Window every dialogue of the file, score them all at once, then hand
    # the labels back in order.
    tokens = pp.prepare_distinct(u["utterance"] for dlg in doc for u in dlg)
    windows = []
    for dlg in doc:
        ids = [vocab.encode(tokens[u["utterance"]]) for u in dlg]
        windows += split_windows(ids, cfg.window_size)
    labels = iter(mx.predict(tr.infer(windows, params, cfg)))
    annotated = [
        [{**u, "predicted_emotion": str(LABEL_ORDER[next(labels)])} for u in dlg] for dlg in doc
    ]

    rendered = json.dumps(annotated, indent=2) + "\n"
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(out, rendered.encode("utf-8"))
        # Keep the prediction schema pure; provenance rides in a sidecar.
        _write_json(
            out.with_name(out.name + ".meta.json"),
            {**_provenance(ckpt), "vocab_sha256": ckpt.vocab_sha256},
        )
        n = sum(len(dlg) for dlg in annotated)
        print(f"{n} utterances annotated -> {out}")
    else:
        sys.stdout.write(rendered)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if not 0 <= args.seed < 2**64:  # the range of the Philox key
        raise CliError(f"--seed must be in [0, 2**64), got {args.seed}")
    if not 0.0 < args.tolerance < float("inf"):  # a range check, as NaN fails every comparison
        raise CliError(f"--tolerance must be positive and finite, got {args.tolerance}")
    started = time.monotonic()
    cfg = m.ModelConfig(
        embed_dim=8, hidden_size=4, window_size=3, fc_dims=(8,), variant="sa-bilstm"
    )
    vocab = pp.build_vocab([["red", "green", "blue", "amber", "plum"]])
    table = emb.random_table(vocab, cfg.embed_dim, seed=args.seed)
    params = m.ModelParams.init(cfg, table, seed=args.seed)
    ids = [
        vocab.encode(["red", "green", "blue", "amber", "plum"]),
        vocab.encode(["green", "plum", "red"]),
        vocab.encode(["blue"]),
    ]
    golds = [0, 1, 3]
    weights = [1.0, 1.0, 1.0]

    def f():
        return ad.weighted_nll(m.forward_window(ids, params, cfg), golds, weights)

    err = ad.grad_check(f, list(params.named_tensors().values()))
    elapsed = time.monotonic() - started
    ok = err < args.tolerance
    print(
        f"max relative error {err:.3e} over every parameter coordinate "
        f"({elapsed:.1f}s) -> {'ok' if ok else 'FAIL'} at tolerance {args.tolerance:g}"
    )
    return EXIT_OK if ok else EXIT_RUNTIME


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dialoglow",
        description="Utterance-level emotion classification for dialogues.",
    )
    parser.add_argument("--version", action="version", version=f"dialoglow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="clean, tokenize, and encode a dialogue corpus")
    p.add_argument("data", help="dialogue JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--split", default="train", choices=[s.value for s in Split],
        help="split name for dialogue ids",
    )
    p.add_argument("--min-count", type=_min_count, default=1, help="drop rarer tokens from the vocab")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train a model and write checkpoint + history")
    p.add_argument("data", help="training dialogue JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="sectioned key=value config file")
    # One flag per config field, named after it (--lr sets lr0), parsed as in the file.
    for key, parse in {**_KEYS["model"], **_KEYS["train"]}.items():
        flag = "--lr" if key == "lr0" else "--" + key.replace("_", "-")
        p.add_argument(flag, dest=key, type=parse, default=argparse.SUPPRESS)
    p.add_argument("--val", help="explicit validation JSON (skips the internal split)")
    p.add_argument("--embeddings", help="pretrained word vector text file")
    p.add_argument("--freeze-embeddings", action="store_true")
    p.add_argument("--min-count", type=_min_count, default=1)
    p.add_argument("--quiet", action="store_true", help="suppress per-epoch rows")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint against a labeled dataset")
    p.add_argument("checkpoint")
    p.add_argument("data")
    p.add_argument("--vocab", help="vocab file (default: next to the checkpoint)")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="annotate dialogues with predicted emotions")
    p.add_argument("checkpoint")
    p.add_argument("input", help="dialogue JSON, gold labels optional")
    p.add_argument("--vocab", help="vocab file (default: next to the checkpoint)")
    p.add_argument("--out", help="output JSON path (default: stdout)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference check on a toy configuration")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def _os_error_text(exc: OSError) -> str:
    """``<path>: <reason>``; a two-path call (a rename) names its target."""
    path = exc.filename2 or exc.filename
    return f"{path}: {exc.strerror}" if path is not None and exc.strerror else str(exc)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Every op refuses a non-finite output and names itself, so numpy's
        # floating-point warnings would only repeat that error line.
        with np.errstate(all="ignore"):
            return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (CorpusError, tr.CheckpointError, emb.EmbeddingError, mx.MetricsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename or exc}", file=sys.stderr)
        return EXIT_INPUT
    except (IsADirectoryError, NotADirectoryError, PermissionError, FileExistsError) as exc:
        # A path on the command line that names the wrong kind of file, or one we may not use.
        print(f"error: {_os_error_text(exc)}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {_os_error_text(exc)}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
