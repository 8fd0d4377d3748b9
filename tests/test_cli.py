import errno
import json
import os
import pathlib
import struct
import zlib

import pytest

from dialoglow import cli, synthetic
from helpers import serialize_dataset

CONFIG = """\
[model]
embed_dim = 8
hidden_size = 4
window_size = 4
fc_dims = 8

[train]
epochs = 2
lr0 = 0.01
dropout = 0.0
seed = 3
val_fraction = 0.25
"""


def write_corpus(tmp_path, n=6, seed=0, name="train.json"):
    ds = synthetic.build(n_dialogues=n, seed=seed)
    p = tmp_path / name
    p.write_text(json.dumps(serialize_dataset(ds)), encoding="utf-8")
    return p


def write_config(tmp_path, text=CONFIG):
    p = tmp_path / "run.cfg"
    p.write_text(text, encoding="utf-8")
    return p


def run_train(tmp_path, out="run", extra=()):
    data = write_corpus(tmp_path)
    cfg = write_config(tmp_path)
    argv = ["train", str(data), "--out", str(tmp_path / out), "--config", str(cfg), "--quiet"]
    rc = cli.main(argv + list(extra))
    return rc, tmp_path / out


# --- preprocess ---------------------------------------------------------------


def test_preprocess_writes_vocab_encoded_and_stats(tmp_path, capsys):
    data = write_corpus(tmp_path)
    out = tmp_path / "prep"
    assert cli.main(["preprocess", str(data), "--out", str(out)]) == 0
    assert (out / "vocab.txt").exists()
    stats = json.loads((out / "stats.json").read_text())
    encoded = json.loads((out / "encoded.json").read_text())
    assert stats["dialogues"] == 6
    assert stats["utterances"] == sum(
        len(d["utterances"]) for d in encoded["dialogues"]
    )
    assert set(stats["label_histogram"]) == {
        "neutral", "joy", "sadness", "anger", "fear", "surprise", "disgust", "non-neutral",
    }
    assert encoded["config"]["version"]
    first = encoded["dialogues"][0]["utterances"][0]
    assert set(first) == {"speaker", "gold", "token_ids"}
    assert all(isinstance(i, int) for i in first["token_ids"])
    assert "unique tokens" in capsys.readouterr().out


def test_preprocess_reruns_byte_identical(tmp_path):
    data = write_corpus(tmp_path)
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["preprocess", str(data), "--out", str(out)]) == 0
        blobs.append(
            tuple((out / f).read_bytes() for f in ("vocab.txt", "encoded.json", "stats.json"))
        )
    assert blobs[0] == blobs[1]


def test_preprocess_missing_file_exits_2_naming_it(tmp_path, capsys):
    rc = cli.main(["preprocess", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "absent.json" in capsys.readouterr().err


def test_preprocess_split_names_the_dialogue_ids(tmp_path, capsys):
    data, out = write_corpus(tmp_path), tmp_path / "prep"
    assert cli.main(["preprocess", str(data), "--out", str(out), "--split", "validation"]) == 0
    encoded = json.loads((out / "encoded.json").read_text())
    assert encoded["dialogues"][0]["id"] == "validation-0000"
    with pytest.raises(SystemExit) as exit_:
        cli.main(["preprocess", str(data), "--out", str(out), "--split", "dev"])
    assert exit_.value.code == 2
    assert "invalid choice: 'dev'" in capsys.readouterr().err


def test_data_dir_env_var_resolves_relative_inputs(tmp_path, monkeypatch, capsys):
    write_corpus(tmp_path, name="corpus.json")
    monkeypatch.setenv("DIALOGLOW_DATA_DIR", str(tmp_path))
    monkeypatch.chdir(tmp_path / ".." if (tmp_path / "..").exists() else tmp_path)
    out = tmp_path / "viaenv"
    assert cli.main(["preprocess", "corpus.json", "--out", str(out)]) == 0
    assert (out / "stats.json").exists()


# --- train ----------------------------------------------------------------


def test_train_writes_checkpoint_history_and_vocab(tmp_path):
    rc, out = run_train(tmp_path)
    assert rc == 0
    assert (out / "checkpoint.bin").exists()
    assert (out / "vocab.txt").exists()
    history = json.loads((out / "history.json").read_text())
    assert history["version"]
    assert history["config"]["model"]["hidden_size"] == 4
    assert history["config"]["train"]["lr0"] == 0.01
    assert len(history["history"]) == 2
    assert history["history"][1]["lr"] == 0.01 * 0.99


def test_train_prints_epoch_rows_unless_quiet(tmp_path, capsys):
    data = write_corpus(tmp_path)
    cfg = write_config(tmp_path)
    rc = cli.main(["train", str(data), "--out", str(tmp_path / "loud"), "--config", str(cfg)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(1 for l in lines if l.startswith("epoch ")) == 2
    assert any("UWA" in l for l in lines)


def test_train_flags_override_config_file(tmp_path):
    rc, out = run_train(tmp_path, extra=["--epochs", "1", "--seed", "9"])
    assert rc == 0
    history = json.loads((out / "history.json").read_text())
    assert len(history["history"]) == 1
    assert history["config"]["train"]["seed"] == 9


def test_train_same_seed_twice_is_bit_identical(tmp_path):
    _, out_a = run_train(tmp_path, out="a")
    _, out_b = run_train(tmp_path, out="b")
    for name in ("checkpoint.bin", "history.json", "vocab.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_train_rejects_unknown_config_keys(tmp_path, capsys):
    data = write_corpus(tmp_path)
    cfg = write_config(tmp_path, CONFIG + "banana = 4\n")
    rc = cli.main(["train", str(data), "--out", str(tmp_path / "x"), "--config", str(cfg)])
    assert rc == 2
    assert "banana" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "lr0 = 0.1\n",
            "bad config file {cfg}: File contains no section headers.\n"
            "file: '{cfg}', line: 1\n'lr0 = 0.1\\n'",
        ),
        ("[optim]\nlr0 = 0.1\n", "{cfg}: unknown config section [optim]"),
        ("[model]\ndepth = 2\n", "{cfg}: unknown key 'depth' in [model]"),
        ("[train]\nlr = 0.1\n", "{cfg}: unknown key 'lr' in [train]"),
        ("[paths]\ndata-dir = /x\n", "{cfg}: unknown key 'data-dir' in [paths]"),
        ("[model]\nhidden_size = 4.5\n", "{cfg}: bad value '4.5' for hidden_size"),
        ("[train]\ndropout = lots\n", "{cfg}: bad value 'lots' for dropout"),
        ("[train]\ngrad_clip = none\n", "{cfg}: bad value 'none' for grad_clip"),
        ("[model]\nfc_dims = 8;8\n", "cannot parse layer sizes from '8;8' (want e.g. 128,128)"),
        (
            "[train]\nclass_weights = 1,1,x\n",
            "bad class_weights '1,1,x': could not convert string to float: 'x'",
        ),
        (
            "[model]\nvariant = lstm\n",
            "bad configuration: variant must be one of ('bilstm', 'sa-bilstm'), got 'lstm'",
        ),
    ],
    ids=[
        "no-header", "section", "model-key", "train-key", "paths-key", "int", "float",
        "optional-float", "layer-sizes", "class-weights", "variant",
    ],
)
def test_config_file_errors_exit_2_with_their_message(tmp_path, capsys, text, message):
    cfg = write_config(tmp_path, text)
    # The config is read before the data, so a missing data file is never reached.
    argv = ["train", str(tmp_path / "absent.json"), "--out", str(tmp_path / "x")]
    assert cli.main(argv + ["--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message.format(cfg=cfg)}\n"


def test_missing_config_file_exits_2_naming_it(tmp_path, capsys):
    cfg = tmp_path / "absent.cfg"
    assert cli.main(["train", "x.json", "--out", str(tmp_path / "x"), "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: no such config file: {cfg}\n"


def test_config_file_empty_optional_values_mean_the_default(tmp_path):
    cfg = write_config(tmp_path, "[train]\nepochs =\ngrad_clip =\n\n[paths]\ndata_dir = /d\n")
    args = cli.build_parser().parse_args(["train", "x.json", "--out", "o", "--config", str(cfg)])
    mcfg, tcfg, weight_mode, paths = cli._build_configs(args)
    assert (tcfg.epochs, tcfg.grad_clip) == (None, None)
    assert (mcfg, weight_mode, paths) == (cli.m.ModelConfig(), "uniform", {"data_dir": "/d"})


def test_train_split_leaving_no_training_dialogue_exits_2(tmp_path, capsys):
    data = write_corpus(tmp_path, n=1)
    out = tmp_path / "x"
    rc = cli.main(["train", str(data), "--out", str(out), "--val-fraction", "0.6", "--quiet"])
    assert rc == 2
    assert "validation split consumed every training dialogue" in capsys.readouterr().err
    assert not out.exists()


def test_train_empty_training_file_with_explicit_val_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("[]", encoding="utf-8")
    val = write_corpus(tmp_path, n=2, name="val.json")
    out = tmp_path / "x"
    rc = cli.main(["train", str(empty), "--val", str(val), "--out", str(out), "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "training set holds no dialogues" in err and "consumed" not in err
    assert not out.exists()


def test_train_inverse_frequency_weights_flag(tmp_path):
    rc, out = run_train(tmp_path, extra=["--class-weights", "inverse-frequency"])
    assert rc == 0
    weights = json.loads((out / "history.json").read_text())["config"]["train"]["class_weights"]
    assert weights[4:] == [0.0, 0.0, 0.0, 0.0]
    assert all(w > 0 for w in weights[:4])


# --- eval -------------------------------------------------------------------


def test_eval_prints_table_and_writes_report(tmp_path, capsys):
    rc, out = run_train(tmp_path)
    capsys.readouterr()  # drop the training chatter
    data = tmp_path / "train.json"
    report_path = tmp_path / "report.json"
    rc = cli.main(
        ["eval", str(out / "checkpoint.bin"), str(data), "--out", str(report_path)]
    )
    assert rc == 0
    head = capsys.readouterr().out.splitlines()[0].split()
    assert head == ["WA", "UWA", "Neutral", "Joy", "Sadness", "Anger"]
    blob = json.loads(report_path.read_text())
    assert set(blob) == {"config", "report", "version"}
    assert set(blob["report"]) == {"wa", "uwa", "per_class", "confusion", "ignored"}
    assert blob["config"]["model"]["variant"] == "sa-bilstm"


def test_eval_refuses_mismatched_vocab(tmp_path, capsys):
    rc, out = run_train(tmp_path)
    vocab_file = out / "vocab.txt"
    vocab_file.write_text(vocab_file.read_text() + "sneaky\n")
    rc = cli.main(["eval", str(out / "checkpoint.bin"), str(tmp_path / "train.json")])
    assert rc == 2
    assert "hash mismatch" in capsys.readouterr().err


def test_eval_empty_scored_set_is_an_error(tmp_path, capsys):
    rc, out = run_train(tmp_path)
    unscored = [[{"speaker": "a", "utterance": "whoa okay", "emotion": "surprise"}]]
    bad = tmp_path / "unscored.json"
    bad.write_text(json.dumps(unscored))
    rc = cli.main(["eval", str(out / "checkpoint.bin"), str(bad)])
    assert rc == 2
    assert "zero scored" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["train", "a.json", "--out", "o"], ["eval", "c.bin", "d.json"]],
    ids=["train", "eval"],
)
def test_train_and_eval_take_no_split_flag(capsys, argv):
    # Neither writes dialogue ids, the only thing a split name sets.
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv + ["--split", "test"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --split test" in capsys.readouterr().err


# --- predict ----------------------------------------------------------------


def test_predict_annotates_preserving_schema_and_order(tmp_path):
    rc, out = run_train(tmp_path)
    dialogues = [
        [
            {"speaker": "ann", "utterance": "so glad today", "emotion": "joy", "extra": 7},
            {"speaker": "bob", "utterance": "okay right"},
        ],
        [],
        [{"speaker": "cay", "utterance": "completely unseen words"}],
    ]
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(dialogues))
    dest = tmp_path / "pred.json"
    rc = cli.main(["predict", str(out / "checkpoint.bin"), str(inp), "--out", str(dest)])
    assert rc == 0
    got = json.loads(dest.read_text())
    assert len(got) == 3 and got[1] == []
    first = got[0][0]
    assert first["speaker"] == "ann" and first["extra"] == 7 and first["emotion"] == "joy"
    assert first["predicted_emotion"] in ("neutral", "joy", "sadness", "anger")
    assert set(got[0][1]) == {"speaker", "utterance", "predicted_emotion"}
    meta = json.loads((tmp_path / "pred.json.meta.json").read_text())
    assert meta["version"] and meta["config"]["model"]["embed_dim"] == 8


def test_predict_is_idempotent(tmp_path):
    rc, out = run_train(tmp_path)
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps([[{"speaker": "a", "utterance": "glad glad glad"}]]))
    blobs = []
    for name in ("p1.json", "p2.json"):
        dest = tmp_path / name
        assert cli.main(["predict", str(out / "checkpoint.bin"), str(inp), "--out", str(dest)]) == 0
        blobs.append(dest.read_bytes())
    assert blobs[0] == blobs[1]


def test_predict_rejects_structural_garbage(tmp_path, capsys):
    rc, out = run_train(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"not": "a list"}))
    rc = cli.main(["predict", str(out / "checkpoint.bin"), str(bad)])
    assert rc == 2
    assert "top-level array" in capsys.readouterr().err


def test_predict_stdout_mode_prints_pure_json(tmp_path, capsys):
    rc, out = run_train(tmp_path)
    capsys.readouterr()  # drop the training chatter
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps([[{"speaker": "a", "utterance": "livid now"}]]))
    rc = cli.main(["predict", str(out / "checkpoint.bin"), str(inp)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc[0][0]["predicted_emotion"]


def write_into_tensor(path, name, index, value):
    """Set entry ``index`` of tensor ``name`` in a saved checkpoint, then reseal its CRC."""
    blob = bytearray(path.read_bytes())
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    entry = next(e for e in json.loads(blob[16 : 16 + hlen])["tensors"] if e["name"] == name)
    struct.pack_into("<d", blob, 16 + hlen + entry["offset"] + 8 * index, value)
    struct.pack_into("<I", blob, len(blob) - 4, zlib.crc32(blob[:-4]))
    path.write_bytes(bytes(blob))


# A CRC-valid file can still hold a NaN or an inf: the CRC guards the bytes, not their values.
@pytest.mark.parametrize("command", ["eval", "predict"])
@pytest.mark.parametrize(
    "name, index, value",
    [("out.b", 3, float("nan")), ("embedding", 2 * 8 + 5, float("inf"))],  # row 2: not <pad>
    ids=["nan-in-out.b", "inf-in-embedding"],
)
def test_non_finite_checkpoint_value_exits_2_naming_the_tensor(tmp_path, capsys, command, name,
                                                               index, value):
    rc, out = run_train(tmp_path)
    ckpt = out / "checkpoint.bin"
    write_into_tensor(ckpt, name, index, value)
    capsys.readouterr()
    assert cli.main([command, str(ckpt), str(tmp_path / "train.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "non-finite" in err and repr(name) in err


def test_serving_reads_the_vocab_file_once(tmp_path, monkeypatch):
    # The bytes whose hash matches the checkpoint are the bytes the vocab is built from.
    rc, out = run_train(tmp_path)
    reads = []
    read_bytes, read_text = pathlib.Path.read_bytes, pathlib.Path.read_text

    def counted(read):
        def wrapper(self, *args, **kwargs):
            if self.name == "vocab.txt":
                reads.append(read.__name__)
            return read(self, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(pathlib.Path, "read_bytes", counted(read_bytes))
    monkeypatch.setattr(pathlib.Path, "read_text", counted(read_text))
    assert cli.main(["eval", str(out / "checkpoint.bin"), str(tmp_path / "train.json")]) == 0
    assert reads == ["read_bytes"]


# --- input encoding -----------------------------------------------------------

LATIN1 = '[[{"speaker": "a", "utterance": "café", "emotion": "joy"}]]\n'.encode("latin-1")


@pytest.mark.parametrize(
    "command", ["preprocess", "train", "train-config", "train-embeddings", "predict"]
)
def test_non_utf8_input_exits_2_naming_the_file(tmp_path, capsys, command):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(LATIN1)
    out = str(tmp_path / "out")
    if command == "predict":
        assert run_train(tmp_path)[0] == 0
        capsys.readouterr()  # drop the training chatter
    argv = {
        "preprocess": ["preprocess", str(bad), "--out", out],
        "train": ["train", str(bad), "--out", out],
        "train-config": ["train", str(write_corpus(tmp_path)), "--out", out, "--config", str(bad)],
        "train-embeddings": [
            "train", str(write_corpus(tmp_path)), "--out", out, "--embed-dim", "1",
            "--embeddings", str(bad),
        ],
        "predict": ["predict", str(tmp_path / "run" / "checkpoint.bin"), str(bad)],
    }[command]
    assert cli.main(argv) == 2
    # A line-by-line read decodes in chunks: the embedding reader names no offset.
    where = "" if command == "train-embeddings" else f" at byte offset {LATIN1.index(0xE9)}"
    assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text{where}\n"


@pytest.mark.parametrize("case", [
    "eval-checkpoint", "eval-data", "eval-vocab", "predict-input", "predict-out",
    "preprocess-data", "preprocess-out", "preprocess-out-below-a-file", "train-config",
    "train-embeddings",
])
def test_path_of_the_wrong_kind_exits_2_naming_it(tmp_path, capsys, case):
    assert run_train(tmp_path)[0] == 0
    capsys.readouterr()  # drop the training chatter
    folder, a_file = tmp_path / "folder", tmp_path / "file.txt"
    folder.mkdir()
    a_file.write_text("x", encoding="utf-8")
    data, ckpt = str(tmp_path / "train.json"), str(tmp_path / "run" / "checkpoint.bin")
    argv, path, code = {
        "eval-checkpoint": (["eval", str(folder), data], folder, errno.EISDIR),
        "eval-data": (["eval", ckpt, str(folder)], folder, errno.EISDIR),
        "eval-vocab": (["eval", ckpt, data, "--vocab", str(folder)], folder, errno.EISDIR),
        "predict-input": (["predict", ckpt, str(folder)], folder, errno.EISDIR),
        "predict-out": (["predict", ckpt, data, "--out", str(folder)], folder, errno.EISDIR),
        "preprocess-data": (["preprocess", str(folder), "--out", "x"], folder, errno.EISDIR),
        "preprocess-out": (["preprocess", data, "--out", str(a_file)], a_file, errno.EEXIST),
        "preprocess-out-below-a-file": (
            ["preprocess", data, "--out", str(a_file / "x")], a_file / "x", errno.ENOTDIR),
        "train-config": (
            ["train", data, "--out", str(tmp_path / "o"), "--config", str(folder)],
            folder, errno.EISDIR),
        "train-embeddings": (
            ["train", data, "--out", str(tmp_path / "o"), "--embeddings", str(folder)],
            folder, errno.EISDIR),
    }[case]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {path}: {os.strerror(code)}\n"
    assert not [p for p in tmp_path.iterdir() if p.name.startswith(".")]  # no temp file left


def test_other_os_errors_exit_1_without_a_traceback(tmp_path, monkeypatch, capsys):
    def failing_read(path, split):
        raise OSError(errno.EIO, os.strerror(errno.EIO), str(path))

    monkeypatch.setattr(cli, "load_dataset", failing_read)
    data = write_corpus(tmp_path)
    assert cli.main(["preprocess", str(data), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {data}: {os.strerror(errno.EIO)}\n"


def test_train_with_an_out_path_it_cannot_make_exits_2_before_training(
    tmp_path, monkeypatch, capsys
):
    def no_training(*args, **kwargs):
        raise AssertionError("train() ran although --out cannot be made")

    monkeypatch.setattr(cli.tr, "train", no_training)
    (tmp_path / "taken").write_text("", encoding="utf-8")
    assert run_train(tmp_path, out="taken")[0] == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'taken'}: {os.strerror(errno.EEXIST)}\n"


# --- gradcheck / misc ---------------------------------------------------------


def test_gradcheck_passes_default_tolerance(capsys):
    assert cli.main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out and "ok" in out


def test_gradcheck_fails_on_unreachable_tolerance(capsys):
    assert cli.main(["gradcheck", "--tolerance", "1e-18"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "dialoglow" in capsys.readouterr().out
