"""Tests for training telemetry."""

import numpy as np
import pytest

from repro.core.metrics import EpochRecord, TrainingHistory, evaluate_accuracy
from repro.data.dataset import Dataset
from repro.nn.resnet import resnet20


def record(epoch, acc, loss=1.0, subset=100, fraction=0.5):
    return EpochRecord(
        epoch=epoch,
        train_loss=loss,
        test_accuracy=acc,
        subset_size=subset,
        subset_fraction=fraction,
        samples_trained=subset,
    )


class TestTrainingHistory:
    def test_final_and_best(self):
        h = TrainingHistory(method="x")
        for e, acc in enumerate([0.2, 0.8, 0.6]):
            h.append(record(e, acc))
        assert h.final_accuracy == pytest.approx(0.6)
        assert h.best_accuracy == pytest.approx(0.8)

    def test_curves(self):
        h = TrainingHistory()
        for e in range(3):
            h.append(record(e, 0.1 * e, loss=3.0 - e))
        assert np.allclose(h.accuracy_curve(), [0.0, 0.1, 0.2])
        assert np.allclose(h.loss_curve(), [3.0, 2.0, 1.0])

    def test_accuracy_at_clamps(self):
        h = TrainingHistory()
        h.append(record(0, 0.5))
        assert h.accuracy_at(100) == pytest.approx(0.5)

    def test_epochs_to_accuracy(self):
        h = TrainingHistory()
        for e, acc in enumerate([0.2, 0.5, 0.9]):
            h.append(record(e, acc))
        assert h.epochs_to_accuracy(0.5) == 1
        assert h.epochs_to_accuracy(0.95) is None

    def test_total_samples_and_mean_fraction(self):
        h = TrainingHistory()
        h.append(record(0, 0.1, subset=100, fraction=0.5))
        h.append(record(1, 0.2, subset=50, fraction=0.25))
        assert h.total_samples_trained == 150
        assert h.mean_subset_fraction == pytest.approx(0.375)

    def test_empty_history_raises(self):
        h = TrainingHistory()
        with pytest.raises(ValueError):
            _ = h.final_accuracy

    def test_to_dict_serializable(self):
        import json

        h = TrainingHistory(method="nessa")
        h.append(record(0, 0.5))
        dumped = json.dumps(h.to_dict())
        assert "nessa" in dumped


class TestTimeAndMovementAggregates:
    def _history(self):
        h = TrainingHistory(method="nessa")
        h.append(
            EpochRecord(
                epoch=0, train_loss=1.0, test_accuracy=0.3, subset_size=100,
                subset_fraction=0.5, samples_trained=100,
                selection_pairwise_bytes=400, feedback_bytes=50,
                wall_time_s=2.0, selection_time_s=0.5,
            )
        )
        h.append(
            EpochRecord(
                epoch=1, train_loss=0.8, test_accuracy=0.4, subset_size=100,
                subset_fraction=0.5, samples_trained=100,
                selection_pairwise_bytes=600, feedback_bytes=70,
                wall_time_s=3.0, selection_time_s=1.0,
            )
        )
        return h

    def test_wall_and_selection_time_totals(self):
        h = self._history()
        assert h.total_wall_time_s == pytest.approx(5.0)
        assert h.total_selection_time_s == pytest.approx(1.5)
        assert h.selection_overhead_fraction == pytest.approx(0.3)

    def test_overhead_zero_when_untimed(self):
        h = TrainingHistory()
        h.append(record(0, 0.5))  # default wall_time_s == 0.0
        assert h.selection_overhead_fraction == 0.0

    def test_data_movement_ledger(self):
        h = self._history()
        assert h.total_feedback_bytes == 120
        assert h.total_selection_pairwise_bytes == 1000
        assert h.data_movement_bytes == 1120

    def test_to_dict_carries_time_and_movement(self):
        d = self._history().to_dict()
        assert d["total_wall_time_s"] == pytest.approx(5.0)
        assert d["total_selection_time_s"] == pytest.approx(1.5)
        assert d["data_movement_bytes"] == 1120

    def test_defaults_keep_old_construction_sites_working(self):
        r = record(0, 0.5)
        assert r.wall_time_s == 0.0
        assert r.selection_time_s == 0.0


class TestEvaluateAccuracy:
    def test_matches_manual_computation(self):
        rng = np.random.default_rng(0)
        net = resnet20(num_classes=3, width=4, seed=0)
        x = rng.normal(size=(20, 3, 8, 8)).astype(np.float32)
        y = rng.integers(0, 3, size=20)
        ds = Dataset(x, y)
        net.eval()
        manual = float((net(x).argmax(axis=1) == y).mean())
        assert evaluate_accuracy(net, ds) == pytest.approx(manual)

    def test_batching_invariant(self):
        rng = np.random.default_rng(1)
        net = resnet20(num_classes=3, width=4, seed=1)
        ds = Dataset(
            rng.normal(size=(30, 3, 8, 8)).astype(np.float32), rng.integers(0, 3, size=30)
        )
        assert evaluate_accuracy(net, ds, batch_size=7) == pytest.approx(
            evaluate_accuracy(net, ds, batch_size=1000)
        )

    def test_restores_training_mode(self):
        rng = np.random.default_rng(2)
        net = resnet20(num_classes=3, width=4, seed=2).train()
        ds = Dataset(
            rng.normal(size=(8, 3, 8, 8)).astype(np.float32), rng.integers(0, 3, size=8)
        )
        evaluate_accuracy(net, ds)
        assert net.training


class TestHistoryStableAccuracy:
    def _history(self, accs):
        h = TrainingHistory(method="x")
        for e, a in enumerate(accs):
            h.append(EpochRecord(e, 1.0, a, 10, 0.5, 10))
        return h

    def test_stable_is_tail_mean(self):
        h = self._history([0.1, 0.2, 0.8, 0.9, 1.0])
        assert h.stable_accuracy(window=3) == pytest.approx(0.9)

    def test_window_longer_than_run(self):
        h = self._history([0.4, 0.6])
        assert h.stable_accuracy(window=10) == pytest.approx(0.5)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            TrainingHistory().stable_accuracy()

    def test_stable_less_noisy_than_final(self):
        rng = np.random.default_rng(0)
        finals, stables = [], []
        for seed in range(20):
            noise = rng.normal(0, 0.05, size=10)
            accs = np.clip(0.8 + noise, 0, 1)
            h = self._history(accs.tolist())
            finals.append(h.final_accuracy)
            stables.append(h.stable_accuracy())
        assert np.std(stables) < np.std(finals)
