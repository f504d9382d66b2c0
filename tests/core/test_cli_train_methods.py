"""CLI ``train`` smoke tests for the selection methods (tiny scale)."""

import pytest

from repro.cli import main


@pytest.mark.parametrize("method", ["nessa", "craig", "full"])
def test_cli_train_method(method, capsys):
    code = main([
        "train", "--dataset", "cifar10", "--method", method,
        "--fraction", "0.3", "--epochs", "2", "--scale", "0.12", "--lr", "0.05",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert f"{method} on cifar10" in out
    assert "samples trained" in out


def test_cli_train_saves_history(tmp_path, capsys):
    path = tmp_path / "hist.json"
    code = main([
        "train", "--dataset", "svhn", "--method", "random",
        "--fraction", "0.3", "--epochs", "2", "--scale", "0.12",
        "--save-history", str(path),
    ])
    assert code == 0
    assert path.exists()

    from repro.core.metrics import load_history

    history = load_history(path)
    assert history.epochs == 2
    assert all(r.wall_time_s > 0 for r in history.records)


def test_cli_nessa_trains_below_the_dynamic_floor(capsys):
    code = main([
        "train", "--method", "nessa", "--fraction", "0.05", "--epochs", "2",
        "--scale", "0.02",
    ])
    assert code == 0
    assert "nessa on cifar10" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flag, value",
    [("--fraction", "0"), ("--fraction", "-1"), ("--fraction", "1.5"),
     ("--epochs", "0"), ("--batch-size", "0"), ("--batch-size", "-4"),
     ("--lr", "0"), ("--scale", "0"), ("--scale", "-1"),
     ("--seed", "-1"), ("--data-seed", "-1")],
)
@pytest.mark.parametrize("method", ["nessa", "random"])
def test_cli_rejects_out_of_range_flags(flag, value, method, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--method", method, "--scale", "0.02", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"argument {flag}:" in err
