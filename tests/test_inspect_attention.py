import importlib.util
import json
from pathlib import Path

import pytest

from dialoglow import cli, synthetic
from helpers import serialize_dataset

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "inspect_attention.py"

CONFIG = """\
[model]
embed_dim = 8
hidden_size = 4
window_size = 4
fc_dims = 8

[train]
epochs = 1
seed = 3
"""


def load_script():
    spec = importlib.util.spec_from_file_location("inspect_attention", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Two training runs on different corpora: checkpoints with different vocabs."""
    root = tmp_path_factory.mktemp("runs")
    (root / "run.cfg").write_text(CONFIG, encoding="utf-8")
    for name, seed in (("a", 0), ("b", 1)):
        data = root / f"{name}.json"
        data.write_text(json.dumps(serialize_dataset(synthetic.build(6, seed=seed))), encoding="utf-8")
        argv = ["train", str(data), "--out", str(root / name), "--config", str(root / "run.cfg")]
        assert cli.main(argv + ["--quiet"]) == 0
    return root


def test_checkpoint_with_its_vocab_prints_the_attention_rows(runs, capsys):
    load_script().main(["--checkpoint", str(runs / "a" / "checkpoint.bin"),
                        "--vocab", str(runs / "a" / "vocab.txt")])
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["u0", "u1", "u2", "u3"]
    for row in out[1:5]:
        assert sum(float(w) for w in row.split()[-4:]) == pytest.approx(1.0, abs=0.02)


def test_checkpoint_with_another_runs_vocab_is_refused_naming_both_files(runs, capsys):
    ckpt, vocab = runs / "a" / "checkpoint.bin", runs / "b" / "vocab.txt"
    with pytest.raises(SystemExit) as exc:
        load_script().main(["--checkpoint", str(ckpt), "--vocab", str(vocab)])
    assert exc.value.code != 0
    message = exc.value.code
    assert message.startswith(f"error: vocab hash mismatch: {ckpt} was trained with ")
    assert "\n" not in message and f"{vocab} hashes to " in message
    assert capsys.readouterr().out == ""


def test_missing_checkpoint_is_one_error_line(tmp_path):
    with pytest.raises(SystemExit) as exc:
        load_script().main(["--checkpoint", str(tmp_path / "absent.bin")])
    assert exc.value.code == f"error: no such file: {tmp_path / 'absent.bin'}"


def test_bilstm_checkpoint_is_refused_as_it_has_no_attention(runs, tmp_path, capsys):
    argv = ["train", str(runs / "a.json"), "--out", str(tmp_path), "--config", str(runs / "run.cfg")]
    assert cli.main(argv + ["--variant", "bilstm", "--quiet"]) == 0
    ckpt = tmp_path / "checkpoint.bin"
    capsys.readouterr()  # the training run's last line
    with pytest.raises(SystemExit) as exc:
        load_script().main(["--checkpoint", str(ckpt)])
    assert exc.value.code == f"error: {ckpt} holds a bilstm model, which has no attention layer"
    assert capsys.readouterr().out == ""
