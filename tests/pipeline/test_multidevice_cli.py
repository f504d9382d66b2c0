"""Tests for the multi-device scaling model, energy table, CLI and serialization."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.pipeline.multidevice import MultiDeviceSystem
from repro.pipeline.system import SystemModel


class TestMultiDevice:
    def test_two_devices_faster_than_one(self):
        one = MultiDeviceSystem("imagenet100", num_devices=1).nessa_epoch()
        two = MultiDeviceSystem("imagenet100", num_devices=2).nessa_epoch()
        assert two.total < one.total

    def test_scaling_curve_monotone_and_subunit_efficiency(self):
        points = MultiDeviceSystem("imagenet100").scaling_curve(max_devices=6)
        times = [p.epoch_time for p in points]
        assert all(b <= a for a, b in zip(times, times[1:]))
        assert points[0].efficiency == pytest.approx(1.0)
        # All-reduce + merge overheads keep efficiency below ideal.
        assert points[-1].efficiency < 1.0
        assert points[-1].efficiency > 0.5  # but the extension scales usefully

    def test_single_device_matches_base_system(self):
        base = SystemModel("cifar10").nessa_epoch(pool_fraction=1.0).total
        multi = MultiDeviceSystem("cifar10", num_devices=1).nessa_epoch().total
        assert multi == pytest.approx(base, rel=0.01)

    def test_feedback_broadcast_counts_per_device(self):
        one = MultiDeviceSystem("cifar10", num_devices=1).nessa_epoch()
        four = MultiDeviceSystem("cifar10", num_devices=4).nessa_epoch()
        assert four.movement.host_to_fpga == pytest.approx(4 * one.movement.host_to_fpga)

    def test_allreduce_penalizes_chatty_models(self):
        """Slower collective bandwidth hurts the scaled epoch."""
        fast = MultiDeviceSystem("imagenet100", num_devices=4,
                                 allreduce_bytes_per_s=50e9).nessa_epoch()
        slow = MultiDeviceSystem("imagenet100", num_devices=4,
                                 allreduce_bytes_per_s=1e9).nessa_epoch()
        assert slow.total > fast.total

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiDeviceSystem("cifar10", num_devices=0)
        with pytest.raises(ValueError):
            MultiDeviceSystem("cifar10").scaling_curve(max_devices=0)


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
            "info", "train", "system", "kernel", "scaling", "report", "obsdiff",
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

    def test_scaling_runs(self, capsys):
        assert main(["scaling", "--dataset", "cifar10", "--max-devices", "3"]) == 0
        assert "3" in capsys.readouterr().out

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
