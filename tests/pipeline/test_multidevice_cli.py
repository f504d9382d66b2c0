"""Tests for the energy table, CLI and serialization."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.pipeline.system import SystemModel


class TestEnergyTable:
    def test_all_strategies_priced(self):
        table = SystemModel("cifar10").energy_table()
        assert set(table) == {"full", "craig", "kcenters", "nessa"}
        assert all(j > 0 for j in table.values())

    def test_nessa_cheapest_energy(self):
        """Shorter epochs + 7.5 W selection: NeSSA wins on energy too."""
        for name in ("cifar10", "imagenet100"):
            table = SystemModel(name).energy_table()
            assert table["nessa"] < min(table["full"], table["kcenters"]), name


class TestCLI:
    def test_parser_has_all_commands(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if a.dest == "command")
        assert set(sub.choices) == {
            "info", "train", "system", "kernel", "report", "obsdiff",
        }

    def test_info_runs(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "cifar10" in out and "imagenet100" in out

    def test_kernel_runs(self, capsys):
        assert main(["kernel"]) == 0
        assert "67." in capsys.readouterr().out  # Table 4 LUT percentage

    def test_system_runs(self, capsys):
        assert main(["system", "--dataset", "cifar10"]) == 0
        out = capsys.readouterr().out
        assert "nessa" in out and "joules" in out.lower()

    def test_train_runs_tiny(self, capsys):
        code = main([
            "train", "--dataset", "cifar10", "--method", "random",
            "--fraction", "0.3", "--epochs", "2", "--scale", "0.15",
        ])
        assert code == 0
        assert "random on cifar10" in capsys.readouterr().out

    def test_bad_dataset_rejected(self):
        with pytest.raises(SystemExit):
            main(["train", "--dataset", "nope"])


class TestSerialization:
    def test_model_roundtrip(self, tmp_path):
        from repro.nn.resnet import resnet20
        from repro.nn.serialize import load_model, save_model

        a = resnet20(num_classes=4, width=4, seed=1)
        b = resnet20(num_classes=4, width=4, seed=2)
        path = tmp_path / "ckpt.npz"
        save_model(a, path)
        load_model(b, path)
        x = np.random.default_rng(0).normal(size=(2, 3, 8, 8)).astype(np.float32)
        a.eval(), b.eval()
        assert np.allclose(a(x), b(x))

    def test_model_mismatch_raises(self, tmp_path):
        from repro.nn.resnet import resnet20
        from repro.nn.serialize import load_model, save_model

        a = resnet20(num_classes=4, width=4, seed=1)
        b = resnet20(num_classes=5, width=4, seed=1)
        path = tmp_path / "ckpt.npz"
        save_model(a, path)
        with pytest.raises(ValueError):
            load_model(b, path)

    def test_history_roundtrip(self, tmp_path):
        from repro.core.metrics import EpochRecord, TrainingHistory
        from repro.nn.serialize import load_history, save_history

        h = TrainingHistory(method="nessa")
        h.append(EpochRecord(0, 1.5, 0.4, 100, 0.5, 100, lr=0.1))
        h.append(EpochRecord(1, 1.0, 0.6, 90, 0.45, 90, lr=0.1))
        path = save_history(h, tmp_path / "hist.json")
        loaded = load_history(path)
        assert loaded.method == "nessa"
        assert loaded.final_accuracy == pytest.approx(0.6)
        assert loaded.records[0].train_loss == pytest.approx(1.5)
