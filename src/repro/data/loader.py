"""Mini-batch iteration over datasets.

A deliberately small DataLoader: seeded shuffling, optional per-sample
weights (for CRAIG's weighted subsets), and batch indices exposed so the
trainer can attribute per-sample losses back to global sample ids.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.data.dataset import Dataset

__all__ = ["DataLoader", "Batch"]


class Batch:
    """One mini-batch: images, labels, global ids and optional weights."""

    __slots__ = ("x", "y", "ids", "weights")

    def __init__(
        self,
        x: np.ndarray,
        y: np.ndarray,
        ids: np.ndarray,
        weights: np.ndarray | None = None,
    ):
        self.x = x
        self.y = y
        self.ids = ids
        self.weights = weights

    def __len__(self) -> int:
        return self.x.shape[0]


class DataLoader:
    """Iterate a dataset in mini-batches.

    Shuffling is driven by an internal generator reseeded per epoch from
    ``seed + epoch``, so runs are reproducible yet epochs differ.
    """

    def __init__(
        self,
        dataset: Dataset,
        batch_size: int = 128,
        shuffle: bool = True,
        drop_last: bool = False,
        seed: int = 0,
        transform=None,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self.seed = seed
        self.transform = transform
        self._epoch = 0

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[Batch]:
        n = len(self.dataset)
        order = np.arange(n)
        if self.shuffle:
            order = np.random.default_rng(self.seed + self._epoch).permutation(n)

        weights = getattr(self.dataset, "weights", None)
        for start in range(0, n, self.batch_size):
            pos = order[start : start + self.batch_size]
            if self.drop_last and len(pos) < self.batch_size:
                break
            w = weights[pos] if weights is not None else None
            x = self.dataset.x[pos]
            if self.transform is not None:
                x = self.transform(x)
            yield Batch(
                x,
                self.dataset.y[pos],
                self.dataset.ids[pos],
                w,
            )
        # An abandoned/partial iterator unwinds via GeneratorExit and never
        # reaches this line: only a fully consumed epoch advances the
        # shuffle seed, so peeking at a loader cannot perturb later epochs.
        self._epoch += 1

    @property
    def epochs_served(self) -> int:
        """How many epochs have been fully consumed (drives the shuffle seed)."""
        return self._epoch
