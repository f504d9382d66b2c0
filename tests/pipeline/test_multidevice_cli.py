"""Tests for the energy table, CLI and history serialization."""

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
    def test_history_roundtrip(self, tmp_path):
        from dataclasses import fields

        from repro.core.metrics import EpochRecord, TrainingHistory, load_history, save_history

        h = TrainingHistory(method="nessa")
        for epoch in range(2):
            h.append(EpochRecord(
                epoch=epoch, train_loss=1.5 - epoch / 3, test_accuracy=0.4 + epoch / 7,
                subset_size=100 - epoch, subset_fraction=0.5 - epoch / 9,
                samples_trained=99 - epoch, selection_ran=True,
                selection_proxy_flops=1.25e9 + epoch, selection_pairwise_bytes=86_720 + epoch,
                feedback_bytes=4_096 + epoch, dropped_samples=3 + epoch, lr=0.1 / (epoch + 1),
                wall_time_s=0.057 + epoch / 11, selection_time_s=0.014 + epoch / 13,
            ))
        defaults = EpochRecord(0, 0.0, 0.0, 0, 0.0, 0)
        for f in fields(EpochRecord):  # a new field must be set here too
            assert getattr(h.records[1], f.name) != getattr(defaults, f.name), f.name
        loaded = load_history(save_history(h, tmp_path / "hist.json"))
        assert loaded.method == "nessa"
        assert loaded.records == h.records
        assert loaded.total_wall_time_s == h.total_wall_time_s
        assert loaded.selection_overhead_fraction == h.selection_overhead_fraction
        assert loaded.data_movement_bytes == h.data_movement_bytes
