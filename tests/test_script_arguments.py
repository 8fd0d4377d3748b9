"""Bad arguments to the experiment scripts exit 2 with one argparse error line."""
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BAD = [
    ("overfit_synthetic", ["--seed", "-1"], "--seed must be in [0, 2**64 - 1), got -1"),
    # The table's seed is seed + 1, one past the Philox key's range.
    ("overfit_synthetic", ["--seed", str(2**64 - 1)], "--seed must be in [0, 2**64 - 1)"),
    ("overfit_synthetic", ["--seed", str(2**64)], "--seed must be in [0, 2**64 - 1)"),
    ("overfit_synthetic", ["--dialogues", "0"], "--dialogues must be at least 1, got 0"),
    ("overfit_synthetic", ["--epochs", "0"], "epochs must be at least 1, got 0"),
    ("overfit_synthetic", ["--lr", "nan"], "lr0 must be positive and finite, got nan"),
    ("overfit_synthetic", ["--hidden-size", "0"], "model dimensions must be positive"),
    ("inspect_attention", ["--seed", "-1"], "--seed must be in [0, 2**64 - 1), got -1"),
    ("inspect_attention", ["--seed", str(2**64 - 1)], "--seed must be in [0, 2**64 - 1)"),
]


@pytest.mark.parametrize("name, argv, message", BAD, ids=[f"{n} {' '.join(a)}" for n, a, _ in BAD])
def test_bad_argument_exits_2_with_one_error_line(name, argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        load_script(name).main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # argparse prints the usage, then "<prog>: error: <message>".
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and f": error: {message}" in errors[0], captured.err
