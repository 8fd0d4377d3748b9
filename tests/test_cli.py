import argparse
import dataclasses
import errno
import json
import os
import pathlib
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dialoglow import __version__, cli, synthetic
from dialoglow import preprocess as pp
from dialoglow import train as tr
from dialoglow.corpus import (
    LABEL_ORDER, Dataset, Dialogue, EmotionLabel, Split, Utterance, split_train_validation,
)
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


def stdlib_encoded_json(ds, min_count):
    """encoded.json as the document the command once built, rendered by json.dumps."""
    tokens = {u.raw_text: pp.prepare(u.raw_text) for d in ds.dialogues for u in d.utterances}
    vocab = pp.build_vocab(
        [tokens[u.raw_text] for d in ds.dialogues for u in d.utterances], min_count=min_count
    )
    doc = {
        "config": {"min_count": min_count, "split": ds.split.value, "version": __version__},
        "vocab_sha256": pp.vocab_content_sha256(vocab),
        "dialogues": [
            {
                "id": d.id,
                "utterances": [
                    {
                        "speaker": u.speaker_id,
                        "gold": str(u.gold),
                        "token_ids": vocab.encode(tokens[u.raw_text]),
                    }
                    for u in d.utterances
                ],
            }
            for d in ds.dialogues
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n", tokens, vocab, doc["config"]


# Quotes, backslashes, control characters, non-ASCII and lone surrogates.
ODD_CHARS = ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u00e9", "\u2028", "\ud800", "\udfff", "\U0001f602"]
# Repeats are likely; "" and the accented text prepare to [<unk>].
TEXTS = ["", "\u00e9\u00e9", "Ross is sooo happy!!", "oh no", "oh no", "call 555 now", "\U0001f602 \"hi\""]
speakers = st.text(st.one_of(st.characters(), st.sampled_from(ODD_CHARS)), max_size=6)
utterances = st.builds(
    Utterance,
    speaker_id=speakers,
    raw_text=st.one_of(st.sampled_from(TEXTS), st.text(max_size=12)),
    gold=st.sampled_from(LABEL_ORDER),
)


@settings(max_examples=200, deadline=None)
@given(
    split=st.sampled_from(Split),
    dialogues=st.lists(st.lists(utterances, min_size=1, max_size=4), max_size=4),
    min_count=st.sampled_from([1, 2, 3]),
)
@example(
    split=Split.TRAIN,
    dialogues=[
        [Utterance('a"\\\x01\ud800\u00e9', "oh no", EmotionLabel.JOY),
         Utterance("b", "", EmotionLabel.NON_NEUTRAL)],
        [Utterance("a", "oh no", EmotionLabel.ANGER)],
    ],
    min_count=2,
)
def test_encoded_json_writer_matches_json_dumps(split, dialogues, min_count):
    ds = Dataset(split, [Dialogue(f"{split.value}-{i:04d}", utts) for i, utts in enumerate(dialogues)])
    want, tokens, vocab, run_cfg = stdlib_encoded_json(ds, min_count)
    assert cli._encoded_json(ds, tokens, vocab, run_cfg) == want


def test_preprocess_outputs_are_their_stdlib_rendering(tmp_path):
    dialogues = serialize_dataset(synthetic.build(n_dialogues=6, seed=0))
    dialogues[0][0]["speaker"] = 'Mr. "Q" \\ \u00e9\ud800\x07'
    dialogues[1][0]["utterance"] = ""
    data = tmp_path / "odd.json"
    data.write_text(json.dumps(dialogues), encoding="utf-8")
    for min_count in ("1", "2"):
        out = tmp_path / f"prep{min_count}"
        assert cli.main(["preprocess", str(data), "--out", str(out), "--min-count", min_count]) == 0
        for name in ("encoded.json", "stats.json"):
            blob = (out / name).read_bytes()
            assert (json.dumps(json.loads(blob), indent=2, sort_keys=True) + "\n").encode() == blob
        assert json.loads((out / "encoded.json").read_bytes())["dialogues"][0]["utterances"][0][
            "speaker"
        ] == dialogues[0][0]["speaker"]


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


def test_train_empty_val_file_exits_2(tmp_path, capsys):
    data = write_corpus(tmp_path, n=2)
    empty = tmp_path / "empty.json"
    empty.write_text("[]", encoding="utf-8")
    out = tmp_path / "x"
    rc = cli.main(["train", str(data), "--val", str(empty), "--out", str(out), "--quiet"])
    assert rc == 2
    assert capsys.readouterr().err == "error: validation set holds no dialogues\n"
    assert not out.exists()


def test_train_val_fraction_zero_scores_the_training_part(tmp_path):
    rc, out = run_train(tmp_path, extra=["--val-fraction", "0", "--epochs", "1"])
    assert rc == 0
    row = json.loads((out / "history.json").read_text())["history"][0]
    scores = tmp_path / "scores.json"
    argv = ["eval", str(out / "checkpoint.bin"), str(tmp_path / "train.json"), "--out", str(scores)]
    assert cli.main(argv) == 0
    report = json.loads(scores.read_text())["report"]
    assert (row["val_wa"], row["val_uwa"]) == (report["wa"], report["uwa"])


def test_train_inverse_frequency_weights_flag(tmp_path):
    rc, out = run_train(tmp_path, extra=["--class-weights", "inverse-frequency"])
    assert rc == 0
    weights = json.loads((out / "history.json").read_text())["config"]["train"]["class_weights"]
    assert weights[4:] == [0.0, 0.0, 0.0, 0.0]
    assert all(w > 0 for w in weights[:4])


def test_train_inverse_frequency_weights_without_a_considered_label_exit_2(tmp_path, capsys):
    doc = [[{"speaker": "a", "utterance": "whoa", "emotion": "surprise"},
            {"speaker": "b", "utterance": "ugh", "emotion": "disgust"}]]
    data, out = tmp_path / "odd.json", tmp_path / "x"
    data.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["train", str(data), "--out", str(out), "--val-fraction", "0", "--quiet"]
    assert cli.main(argv + ["--class-weights", "inverse-frequency"]) == 2
    assert capsys.readouterr().err == "error: no considered-label utterances to derive weights from\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "doc, weights",
    [
        ([[{"speaker": "a", "utterance": "whoa", "emotion": "surprise"}]], []),
        (None, ["--class-weights", "0,0,0,0,0,0,0,0"]),
    ],
    ids=["unweighted-label", "zero-weights"],
)
def test_train_with_no_weighted_utterance_exits_2(tmp_path, capsys, doc, weights):
    # No step would train: the checkpoint would be the untrained model.
    if doc is None:
        data = write_corpus(tmp_path)
    else:
        data = tmp_path / "odd.json"
        data.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "x"
    argv = ["train", str(data), "--out", str(out), "--val-fraction", "0", "--quiet", *weights]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: the class weights give every training utterance weight 0: no step would train\n"
    assert not out.exists()


def test_train_with_one_weighted_utterance_trains(tmp_path):
    doc = [[{"speaker": "a", "utterance": "whoa", "emotion": "surprise"},
            {"speaker": "b", "utterance": "so glad", "emotion": "joy"}]]
    data, out = tmp_path / "one.json", tmp_path / "x"
    data.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["train", str(data), "--out", str(out), "--val-fraction", "0", "--epochs", "1", "--quiet"]
    assert cli.main(argv) == 0
    assert json.loads((out / "history.json").read_text())["history"][0]["train_loss"] > 0.0


def surprise_only(doc):
    return [[{**u, "emotion": "surprise"} for u in dlg] for dlg in doc]


@pytest.mark.parametrize("case", ["val", "split"])
def test_train_with_no_considered_label_to_score_exits_2(tmp_path, capsys, case):
    # Every epoch would score UWA None, so no epoch would ever be selected.
    ds = synthetic.build(n_dialogues=4, seed=0)
    doc = serialize_dataset(ds)
    data, out, odd = tmp_path / "train.json", tmp_path / "x", tmp_path / "odd.json"
    if case == "val":
        odd.write_text(json.dumps(surprise_only(doc[:1])), encoding="utf-8")
        flags, scored = ["--val", str(odd)], f"validation set {odd}"
    else:
        # The split depends on the dialogue count and the seed only: relabel what it holds out.
        held = {d.id for d in split_train_validation(ds, 0.25, 0)[1].dialogues}
        doc = [surprise_only([dlg])[0] if d.id in held else dlg for d, dlg in zip(ds.dialogues, doc)]
        flags, scored = ["--val-fraction", "0.25", "--seed", "0"], "held-out validation split"
    data.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["train", str(data), "--out", str(out), "--epochs", "1", "--quiet", *flags]) == 2
    assert capsys.readouterr().err == (
        f"error: the {scored} holds no utterance with a considered label: no epoch would be selected\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("flags", [[], ["--val-fraction", "0.5"]], ids=["config", "flag"])
def test_train_with_an_explicit_val_file_records_nothing_held_out(tmp_path, flags):
    # The config file sets val_fraction 0.25; --val holds nothing out of the training file.
    val = write_corpus(tmp_path, n=2, seed=1, name="val.json")
    rc, out = run_train(tmp_path, extra=["--val", str(val), "--epochs", "1", *flags])
    assert rc == 0
    assert json.loads((out / "history.json").read_text())["config"]["train"]["val_fraction"] == 0.0
    assert tr.load_checkpoint(out / "checkpoint.bin").metadata["train_config"]["val_fraction"] == 0.0


@pytest.mark.parametrize("command", ["preprocess", "train"])
@pytest.mark.parametrize(
    "count, message",
    [("0", "must be at least 1, got 0"), ("-3", "must be at least 1, got -3"),
     ("x", "invalid int value: 'x'")],
    ids=["0", "-3", "x"],
)
def test_min_count_below_one_exits_2(tmp_path, capsys, command, count, message):
    data, out = write_corpus(tmp_path), tmp_path / "o"
    with pytest.raises(SystemExit) as exit_:
        cli.main([command, str(data), "--out", str(out), "--min-count", count])
    assert exit_.value.code == 2
    assert f"error: argument --min-count: {message}" in capsys.readouterr().err
    assert not out.exists()


# The train flag of every config field, spelled out: the config file's key with
# dashes, and --lr for lr0.
FLAGS = {
    "embed_dim": "--embed-dim", "hidden_size": "--hidden-size", "window_size": "--window-size",
    "fc_dims": "--fc-dims", "variant": "--variant", "lr0": "--lr", "decay": "--decay",
    "epochs": "--epochs", "batch_size": "--batch-size", "dropout": "--dropout",
    "class_weights": "--class-weights", "seed": "--seed", "val_fraction": "--val-fraction",
    "grad_clip": "--grad-clip",
}
SECTION = {
    **{f.name: "model" for f in dataclasses.fields(cli.m.ModelConfig)},
    **{f.name: "train" for f in dataclasses.fields(tr.TrainConfig)},
}
# One valid non-default text per field.
GOOD = {
    "embed_dim": "12", "hidden_size": "6", "window_size": "3", "fc_dims": "8, 4",
    "variant": "bilstm", "lr0": "0.05", "decay": "0.5", "epochs": "4", "batch_size": "2",
    "dropout": "0.2", "class_weights": "1,2,3,4,0,0,0,0", "seed": "9", "val_fraction": "0.3",
    "grad_clip": "2.5",
}


def train_subparser():
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices["train"]


def test_config_fields_are_the_flag_table():
    assert set(SECTION) == set(FLAGS) == set(GOOD)


@pytest.mark.parametrize("field", sorted(SECTION))
def test_train_has_one_flag_per_config_field(field):
    actions = [a for a in train_subparser()._actions if a.dest == field]
    assert [a.option_strings for a in actions] == [[FLAGS[field]]]


def test_train_flags_are_the_config_fields_and_the_run_options():
    flags = {s for a in train_subparser()._actions for s in a.option_strings}
    run_options = {"-h", "--help", "--out", "--config", "--val", "--embeddings",
                   "--freeze-embeddings", "--min-count", "--quiet"}
    assert flags == set(FLAGS.values()) | run_options


def configs_from(tmp_path, field, text, flag_text=None):
    """_build_configs from `field = text` in a config file and, if flag_text is
    given, that text for the field's flag as well."""
    argv = ["train", "x.json", "--out", "o"]
    if text is not None:
        argv += ["--config", str(write_config(tmp_path, f"[{SECTION[field]}]\n{field} = {text}\n"))]
    if flag_text is not None:
        argv += [f"{FLAGS[field]}={flag_text}"]
    return cli._build_configs(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("field", sorted(SECTION))
def test_flag_and_config_key_give_equal_configs(tmp_path, field):
    by_flag = configs_from(tmp_path, field, None, GOOD[field])
    assert by_flag == configs_from(tmp_path, field, GOOD[field])
    mcfg, tcfg, _, _ = by_flag
    cfg, default = (mcfg, cli.m.ModelConfig()) if SECTION[field] == "model" else (tcfg, tr.TrainConfig())
    assert getattr(cfg, field) != getattr(default, field)


@pytest.mark.parametrize("field", ["fc_dims", "epochs", "grad_clip"])
def test_blank_flag_means_what_a_blank_key_means_and_wins_over_the_file(tmp_path, field):
    blank = configs_from(tmp_path, field, "")
    assert configs_from(tmp_path, field, None, "") == blank
    assert configs_from(tmp_path, field, GOOD[field], "") == blank


BAD = {"fc_dims": "8;8", "variant": "lstm", "class_weights": "1,1,x"}


@pytest.mark.parametrize("field", sorted(SECTION))
def test_bad_flag_value_exits_2_with_one_error_line_naming_the_flag(tmp_path, capsys, field):
    argv = ["train", str(tmp_path / "absent.json"), "--out", str(tmp_path / "x")]
    argv += [FLAGS[field], BAD.get(field, "x")]
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse refuses the text itself
        rc = exc.code
    assert rc == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1
    if field == "variant":  # any text parses as a str; ModelConfig refuses it, as from a file
        assert errors == [
            "error: bad configuration: variant must be one of ('bilstm', 'sa-bilstm'), got 'lstm'"
        ]
    else:
        assert f"error: argument {FLAGS[field]}: " in errors[0] and "<lambda>" not in errors[0]


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize(
    "field, text, message",
    [
        ("lr0", "nan", "lr0 must be positive and finite, got nan"),
        ("lr0", "inf", "lr0 must be positive and finite, got inf"),
        ("grad_clip", "nan", "grad_clip must be positive and finite, got nan"),
        ("grad_clip", "-inf", "grad_clip must be positive and finite, got -inf"),
        ("class_weights", "nan,1,1,1,0,0,0,0", "class weights must be non-negative and finite"),
        ("class_weights", "1,1,inf,1,0,0,0,0", "class weights must be non-negative and finite"),
    ],
)
def test_non_finite_settings_exit_2_as_bad_configuration(tmp_path, capsys, source, field, text, message):
    argv = ["train", str(tmp_path / "absent.json"), "--out", str(tmp_path / "x")]
    if source == "flag":
        argv += [f"{FLAGS[field]}={text}"]
    else:
        argv += ["--config", str(write_config(tmp_path, f"[train]\n{field} = {text}\n"))]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: bad configuration: {message}\n"


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_out_of_range_seed_exits_2_as_bad_configuration(tmp_path, capsys, source, seed):
    argv = ["train", str(write_corpus(tmp_path)), "--out", str(tmp_path / "x")]
    if source == "flag":
        argv += ["--seed", seed]
    else:
        argv += ["--config", str(write_config(tmp_path, f"[train]\nseed = {seed}\n"))]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: bad configuration: seed must be in [0, 2**64), got {seed}\n"
    assert not (tmp_path / "x").exists()


def test_history_json_is_strict_json(tmp_path):
    rc, out = run_train(tmp_path, extra=["--grad-clip", "1.0"])
    assert rc == 0

    def refuse(constant):
        raise AssertionError(f"history.json holds {constant}")

    history = json.loads((out / "history.json").read_text(), parse_constant=refuse)
    assert history["config"]["train"]["grad_clip"] == 1.0


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
    # The error names the file and why nothing in it is scored.
    rc, out = run_train(tmp_path)
    unscored = [[{"speaker": "a", "utterance": "whoa okay", "emotion": "surprise"}]]
    for doc, why in (([], "no dialogues"), (unscored, "no utterance with a considered label")):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["eval", str(out / "checkpoint.bin"), str(bad)]) == 2
        assert capsys.readouterr() == ("", f"error: {bad}: zero scored utterances, as it holds {why}\n")


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_whose_forward_pass_overflows_exits_1_naming_the_op(tmp_path, capsys):
    rc, out = run_train(tmp_path, extra=("--lr", "1e300"))
    assert rc == 1
    assert capsys.readouterr().err == "error: training aborted: affine produced a non-finite value\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["eval", "predict"])
def test_serving_whose_forward_pass_overflows_exits_1_naming_the_op(tmp_path, capsys, command):
    # Finite weights whose logits overflow: every FC row is exactly 1, every out.w entry 1e308.
    rc, out = run_train(tmp_path)
    path = out / "checkpoint.bin"
    ckpt = tr.load_checkpoint(path)
    ckpt.tensors.update({"fc0.w": np.zeros((8, 8)), "fc0.b": np.ones(8),
                         "out.w": np.full((8, 8), 1e308)})
    tr.save_checkpoint(ckpt, path)
    capsys.readouterr()
    assert cli.main([command, str(path), str(tmp_path / "train.json")]) == 1
    assert capsys.readouterr().err == "error: affine produced a non-finite value\n"


# --- gradcheck / misc ---------------------------------------------------------


def test_gradcheck_passes_default_tolerance(capsys):
    assert cli.main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out and "ok" in out


def test_gradcheck_fails_on_unreachable_tolerance(capsys):
    assert cli.main(["gradcheck", "--tolerance", "1e-18"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("tolerance", ["nan", "-1", "0", "inf"])
def test_gradcheck_refuses_a_tolerance_that_is_not_positive_and_finite(capsys, tolerance):
    assert cli.main(["gradcheck", "--tolerance", tolerance]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --tolerance must be positive and finite, got {float(tolerance)}\n"


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_gradcheck_refuses_an_out_of_range_seed(capsys, seed):
    assert cli.main(["gradcheck", "--seed", seed]) == 2
    assert capsys.readouterr().err == f"error: --seed must be in [0, 2**64), got {seed}\n"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "dialoglow" in capsys.readouterr().out


# numpy is the only runtime dependency: a process in which scipy cannot be
# imported still runs every command, and no scipy module gets loaded.
WITHOUT_SCIPY = """\
import json, sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now raises ImportError
from dialoglow import cli, synthetic
from helpers import serialize_dataset

data = sys.argv[1] + "/train.json"
with open(data, "w") as fh:
    json.dump(serialize_dataset(synthetic.build(n_dialogues=6, seed=0)), fh)
small = ["--embed-dim", "8", "--hidden-size", "4", "--window-size", "4", "--fc-dims", "8"]
for argv in (
    ["gradcheck"],
    ["preprocess", data, "--out", sys.argv[1] + "/prep"],
    ["train", data, "--out", sys.argv[1] + "/run", "--epochs", "1", "--quiet", *small],
    ["predict", sys.argv[1] + "/run/checkpoint.bin", data, "--out", sys.argv[1] + "/p.json"],
):
    rc = cli.main(argv)
    if rc != 0:
        sys.exit(f"{argv[0]} exited with {rc}")
loaded = sorted(k for k, v in sys.modules.items() if k.split(".")[0] == "scipy" and v is not None)
sys.exit(f"scipy modules loaded: {loaded}" if loaded else 0)
"""


def test_every_command_runs_in_a_process_without_scipy(tmp_path):
    paths = [str(pathlib.Path(cli.__file__).parents[1]), str(pathlib.Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert (tmp_path / "p.json").is_file()
