"""In-memory dataset containers and split utilities."""

from __future__ import annotations

import numpy as np

__all__ = ["Dataset", "Subset", "stratified_split"]


class Dataset:
    """An in-memory labelled image dataset.

    Attributes
    ----------
    x : ``(N, C, H, W)`` float32 images.
    y : ``(N,)`` int64 labels.
    ids : ``(N,)`` int64 sample ids, ``arange(N)`` for a root dataset.
        Selection state (loss histories, drop masks, embeddings) lives in
        arrays whose row is the id, so subsetting never invalidates it.
    num_ids : the root dataset's size; every id is in ``[0, num_ids)``.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        x = np.asarray(x, dtype=np.float32)
        y = np.asarray(y, dtype=np.int64)
        if x.ndim != 4:
            raise ValueError(f"x must be (N, C, H, W), got shape {x.shape}")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise ValueError("y must be (N,) aligned with x")
        self.x = x
        self.y = y
        self.ids = np.arange(x.shape[0], dtype=np.int64)
        self.num_ids = x.shape[0]

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def num_classes(self) -> int:
        return int(self.y.max()) + 1 if len(self) else 0

    @property
    def image_shape(self) -> tuple:
        return self.x.shape[1:]

    def class_indices(self, label: int) -> np.ndarray:
        """Positions (not ids) of all samples with the given label."""
        return np.flatnonzero(self.y == label)

    def subset(self, positions: np.ndarray) -> "Subset":
        """Copy of the samples at the given positions (see :class:`Subset`)."""
        return Subset(self, np.asarray(positions, dtype=np.int64))

    def __repr__(self) -> str:
        return f"Dataset(n={len(self)}, classes={self.num_classes}, shape={self.image_shape})"


class Subset(Dataset):
    """A dataset holding copies of a parent's rows at ``positions``.

    ``x``, ``y`` and ``ids`` are copied out of the parent (``parent.x[positions]``),
    so writes to one never reach the other.  No reference to the parent is
    kept, so it is freed once its last other holder lets go; ``ids`` index
    any per-sample array of the root (``num_ids`` is the parent's, and a
    repeated position would give two rows one id).

    ``weights`` carries the optional per-sample CRAIG weights (cluster
    sizes); ``None`` means uniform.
    """

    def __init__(self, parent: Dataset, positions: np.ndarray, weights: np.ndarray | None = None):
        positions = np.asarray(positions, dtype=np.int64)
        if len(positions) and (positions.min() < 0 or positions.max() >= len(parent)):
            raise IndexError("subset positions out of range")
        if len(np.unique(positions)) != len(positions):
            raise ValueError("subset positions must be unique")
        super().__init__(parent.x[positions], parent.y[positions])
        self.ids, self.num_ids = parent.ids[positions], parent.num_ids
        self.positions = positions
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != (len(positions),):
                raise ValueError("weights must align with positions")
            if not np.isfinite(weights).all():
                raise ValueError("weights must be finite")
            if (weights < 0).any():
                raise ValueError("weights must be non-negative")
        self.weights = weights

    def __repr__(self) -> str:
        return f"Subset(n={len(self)}, of {self.num_ids} ids)"


def stratified_split(
    dataset: Dataset, test_fraction: float, seed: int = 0
) -> tuple[Subset, Subset]:
    """Split into (train, test) preserving per-class proportions."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    train_pos, test_pos = [], []
    for label in range(dataset.num_classes):
        pos = dataset.class_indices(label)
        pos = rng.permutation(pos)
        n_test = max(1, int(round(len(pos) * test_fraction)))
        test_pos.append(pos[:n_test])
        train_pos.append(pos[n_test:])
    train = dataset.subset(np.sort(np.concatenate(train_pos)))
    test = dataset.subset(np.sort(np.concatenate(test_pos)))
    return train, test
