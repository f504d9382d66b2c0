"""Subset biasing: drop learned samples from the candidate pool (paper §3.2.2).

The paper: *"We record losses of the current training examples from the
most recent five epochs, mark the samples with small values, and drop the
marked samples from the training set every twenty epochs."*

:class:`LossHistory` keeps a bounded per-sample window of recent losses
keyed by global sample id (so it survives subsetting), and implements the
marking/dropping policy.  "Small" is defined by a quantile of the mean
recent loss over samples that have enough history — the paper leaves the
threshold unspecified; the quantile and the conservative 20-epoch period
are both exposed as knobs and swept by the ablation benchmark.

The window is one dense ``(tracked ids x window)`` float64 ring plus a
per-id record count, rows sorted by id so lookups are one
``searchsorted``.  Means are taken over each sample's entries in
insertion order, oldest first, so they are bit-identical to averaging a
per-sample deque.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LossHistory"]


class LossHistory:
    """Per-sample loss window + learned-sample dropping policy."""

    def __init__(
        self,
        window: int = 5,
        drop_period: int = 20,
        drop_quantile: float = 0.3,
        min_history: int = 3,
    ):
        if window < 1:
            raise ValueError("window must be >= 1")
        if drop_period < 1:
            raise ValueError("drop_period must be >= 1")
        if not 0.0 <= drop_quantile < 1.0:
            raise ValueError("drop_quantile must be in [0, 1)")
        self.window = window
        self.drop_period = drop_period
        self.drop_quantile = drop_quantile
        self.min_history = min_history
        self._ids = np.zeros(0, dtype=np.int64)  # sorted; row r holds _ids[r]
        self._ring = np.zeros((0, window), dtype=np.float64)
        self._count = np.zeros(0, dtype=np.int64)  # records ever made per row
        self._dropped: set[int] = set()

    def _rows(self, ids: np.ndarray) -> np.ndarray:
        """Ring row of each id, ``-1`` for ids never recorded."""
        ids = np.asarray(ids, dtype=np.int64)
        pos = np.searchsorted(self._ids, ids)
        found = pos < len(self._ids)
        found[found] = self._ids[pos[found]] == ids[found]
        return np.where(found, pos, -1)

    def record(self, ids: np.ndarray, losses: np.ndarray) -> None:
        """Record one epoch's per-sample losses (only for samples seen).

        Each id may appear once per call: a sample is trained at most
        once an epoch, and the ring holds one entry per epoch.
        """
        ids = np.asarray(ids, dtype=np.int64)
        losses = np.asarray(losses, dtype=np.float64)
        if len(ids) != len(losses):
            raise ValueError("ids and losses must align")
        if len(np.unique(ids)) != len(ids):
            raise ValueError("ids must be unique within one record call")
        new = np.setdiff1d(ids, self._ids)
        if len(new):
            at = np.searchsorted(self._ids, new)
            self._ids = np.insert(self._ids, at, new)
            self._ring = np.insert(self._ring, at, 0.0, axis=0)
            self._count = np.insert(self._count, at, 0)
        rows = np.searchsorted(self._ids, ids)
        self._ring[rows, self._count[rows] % self.window] = losses
        self._count[rows] += 1

    def _means(self, rows: np.ndarray) -> np.ndarray:
        """Mean of each row's window, entries taken oldest first."""
        count = self._count[rows]
        held = np.minimum(count, self.window)
        oldest = np.where(count > self.window, count % self.window, 0)
        slots = (oldest[:, None] + np.arange(self.window)) % self.window
        ordered = self._ring[rows[:, None], slots]
        means = np.empty(len(rows), dtype=np.float64)
        for n in np.unique(held):
            same = held == n
            means[same] = ordered[same, :n].mean(axis=1)
        return means

    def mean_recent_loss(self, sample_id: int) -> float | None:
        """Mean loss over the recent window, or None if never recorded."""
        rows = self._rows(np.array([sample_id]))
        if rows[0] < 0:
            return None
        return float(self._means(rows)[0])

    def should_drop_now(self, epoch: int) -> bool:
        """The paper drops every ``drop_period`` epochs (not at epoch 0)."""
        return epoch > 0 and epoch % self.drop_period == 0

    def mark_learned(
        self, candidate_ids: np.ndarray, limit: int | None = None
    ) -> np.ndarray:
        """Ids among ``candidate_ids`` whose recent loss is in the low quantile.

        Only samples with at least ``min_history`` recorded epochs are
        eligible — a sample that was barely trained on is not "learned".
        ``limit`` caps how many are marked: the lowest mean losses win,
        ties going to the earlier candidate.  Marked ids keep their order
        in ``candidate_ids``.
        """
        candidate_ids = np.asarray(candidate_ids, dtype=np.int64)
        rows = self._rows(candidate_ids)
        eligible = rows >= 0
        eligible[eligible] = (
            np.minimum(self._count[rows[eligible]], self.window) >= self.min_history
        )
        if not eligible.any():
            return np.zeros(0, dtype=np.int64)
        means = self._means(rows[eligible])
        low = np.flatnonzero(means <= np.quantile(means, self.drop_quantile))
        if limit is not None and len(low) > limit:
            low = np.sort(low[np.argsort(means[low], kind="stable")[:limit]])
        return candidate_ids[eligible][low]

    def drop(self, ids: np.ndarray) -> None:
        """Permanently remove ids from future candidate pools."""
        self._dropped.update(int(i) for i in ids)

    def filter_candidates(self, candidate_ids: np.ndarray) -> np.ndarray:
        """Remove previously-dropped ids from a candidate pool.

        Never returns an empty pool: if everything was dropped (degenerate
        configuration), the original pool is returned untouched.
        """
        candidate_ids = np.asarray(candidate_ids, dtype=np.int64)
        dropped = np.fromiter(self._dropped, dtype=np.int64, count=len(self._dropped))
        keep = ~np.isin(candidate_ids, dropped)
        if not keep.any():
            return candidate_ids
        return candidate_ids[keep]

    @property
    def num_dropped(self) -> int:
        return len(self._dropped)

    @property
    def num_tracked(self) -> int:
        return len(self._ids)
