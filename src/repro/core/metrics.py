"""Training telemetry: per-epoch records and aggregate histories.

Trainers emit one :class:`EpochRecord` per epoch; :class:`TrainingHistory`
aggregates them and answers the questions the paper's evaluation asks
(final accuracy, accuracy-at-epoch curves for Figure 5, total samples
trained on, data-movement counters for the system model).
:func:`save_history` / :func:`load_history` round-trip a history through
JSON, every :class:`EpochRecord` field included.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.data.dataset import Dataset
from repro.nn.inference import EVAL_BLOCK, InferencePlan
from repro.nn.resnet import ResNet

__all__ = ["EpochRecord", "TrainingHistory", "evaluate_accuracy", "save_history", "load_history"]


@dataclass
class EpochRecord:
    """Everything one training epoch produced."""

    epoch: int
    train_loss: float
    test_accuracy: float
    subset_size: int
    subset_fraction: float
    samples_trained: int
    selection_ran: bool = False
    selection_proxy_flops: float = 0.0
    selection_pairwise_bytes: int = 0
    feedback_bytes: int = 0
    dropped_samples: int = 0
    lr: float = 0.0
    wall_time_s: float = 0.0
    selection_time_s: float = 0.0


@dataclass
class TrainingHistory:
    """Aggregate over a full training run."""

    records: list = field(default_factory=list)
    method: str = ""

    def append(self, record: EpochRecord) -> None:
        self.records.append(record)

    @property
    def epochs(self) -> int:
        return len(self.records)

    @property
    def final_accuracy(self) -> float:
        if not self.records:
            raise ValueError("empty history")
        return self.records[-1].test_accuracy

    @property
    def best_accuracy(self) -> float:
        if not self.records:
            raise ValueError("empty history")
        return max(r.test_accuracy for r in self.records)

    def stable_accuracy(self, window: int = 3) -> float:
        """Mean test accuracy over the final ``window`` epochs.

        A lower-variance estimate of converged accuracy than the single
        final epoch — the laptop-scale runs are small enough that one
        epoch of jitter is a full accuracy point.
        """
        if not self.records:
            raise ValueError("empty history")
        tail = self.records[-window:]
        return float(np.mean([r.test_accuracy for r in tail]))

    def accuracy_curve(self) -> np.ndarray:
        """Test accuracy per epoch — the Figure 5 series."""
        return np.asarray([r.test_accuracy for r in self.records])

    def loss_curve(self) -> np.ndarray:
        return np.asarray([r.train_loss for r in self.records])

    def accuracy_at(self, epoch: int) -> float:
        """Accuracy after ``epoch`` epochs (clamped to the run length)."""
        if not self.records:
            raise ValueError("empty history")
        return self.records[min(epoch, len(self.records) - 1)].test_accuracy

    @property
    def total_samples_trained(self) -> int:
        """Gradient computations proxy: sum of per-epoch subset sizes."""
        return sum(r.samples_trained for r in self.records)

    @property
    def mean_subset_fraction(self) -> float:
        if not self.records:
            raise ValueError("empty history")
        return float(np.mean([r.subset_fraction for r in self.records]))

    @property
    def total_wall_time_s(self) -> float:
        """Measured wall clock of the run (sum of per-epoch wall times)."""
        return float(sum(r.wall_time_s for r in self.records))

    @property
    def total_selection_time_s(self) -> float:
        """Wall clock spent inside selection rounds across the run."""
        return float(sum(r.selection_time_s for r in self.records))

    @property
    def selection_overhead_fraction(self) -> float:
        """Selection time as a fraction of total wall time (0 if untimed).

        The number the data-selection literature reports to justify
        selection cost against training savings; ``repro.cli report``
        derives the same ratio from a run trace.
        """
        wall = self.total_wall_time_s
        return self.total_selection_time_s / wall if wall > 0 else 0.0

    @property
    def total_feedback_bytes(self) -> int:
        """Quantized-weight feedback shipped over the host link."""
        return int(sum(r.feedback_bytes for r in self.records))

    @property
    def total_selection_pairwise_bytes(self) -> int:
        """Similarity state touched by the run's selection rounds."""
        return int(sum(r.selection_pairwise_bytes for r in self.records))

    @property
    def data_movement_bytes(self) -> int:
        """The run's data-movement ledger (feedback + pairwise bytes).

        ``repro.cli report`` reconciles its ``data moved total`` line
        against exactly this counter (``tests/obs`` asserts equality).
        """
        return self.total_feedback_bytes + self.total_selection_pairwise_bytes

    def epochs_to_accuracy(self, target: float) -> int | None:
        """First epoch reaching ``target`` accuracy, or None."""
        for r in self.records:
            if r.test_accuracy >= target:
                return r.epoch
        return None

    def to_dict(self) -> dict:
        """JSON-friendly dump (benchmark harness output)."""
        return {
            "method": self.method,
            "final_accuracy": self.final_accuracy,
            "best_accuracy": self.best_accuracy,
            "mean_subset_fraction": self.mean_subset_fraction,
            "total_samples_trained": self.total_samples_trained,
            "accuracy_curve": self.accuracy_curve().tolist(),
            "total_wall_time_s": self.total_wall_time_s,
            "total_selection_time_s": self.total_selection_time_s,
            "data_movement_bytes": self.data_movement_bytes,
        }


def evaluate_accuracy(model: ResNet, dataset: Dataset) -> float:
    """Top-1 accuracy of ``model`` on ``dataset`` (the fused eval forward, in blocks)."""
    forward = InferencePlan(model, dataset.x.shape[1:])
    correct = 0
    for start in range(0, len(dataset), EVAL_BLOCK):
        x = dataset.x[start : start + EVAL_BLOCK]
        y = dataset.y[start : start + EVAL_BLOCK]
        correct += int((forward(x).argmax(axis=1) == y).sum())
    return correct / max(1, len(dataset))


def save_history(history: TrainingHistory, path) -> Path:
    """Dump a TrainingHistory to JSON, one object of all fields per record."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    records = [asdict(r) for r in history.records]
    path.write_text(json.dumps({"method": history.method, "records": records}, indent=1))
    return path


def load_history(path) -> TrainingHistory:
    """Load a TrainingHistory written by :func:`save_history`."""
    data = json.loads(Path(path).read_text())
    history = TrainingHistory(method=data["method"])
    for r in data["records"]:
        history.append(EpochRecord(**r))
    return history
