"""Subset biasing: drop learned samples from the candidate pool (paper §3.2.2).

The paper: *"We record losses of the current training examples from the
most recent five epochs, mark the samples with small values, and drop the
marked samples from the training set every twenty epochs."*

:class:`LossHistory` keeps a bounded per-sample window of recent losses
and implements the marking/dropping policy.  "Small" is defined by a
quantile of the mean recent loss over samples that have enough history —
the paper leaves the threshold unspecified; the quantile and the
conservative 20-epoch period are both exposed as knobs and swept by the
ablation benchmark.

Every array is indexed by sample id, in ``[0, num_ids)``, so the state
survives subsetting: a ``(num_ids x window)`` float64 ring, a per-id
record count and the boolean ``dropped`` mask.  Means are taken over each
sample's entries in insertion order, oldest first, so they are
bit-identical to averaging a per-sample deque.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LossHistory", "checked_ids"]


def checked_ids(ids: np.ndarray, num_ids: int, unique: bool = False) -> np.ndarray:
    """``ids`` as int64 rows of a ``num_ids``-row array, refusing one off the rows
    (numpy would wrap it round) and, with ``unique``, a repeat (written once)."""
    ids = np.asarray(ids, dtype=np.int64)
    if len(ids) and (ids.min() < 0 or ids.max() >= num_ids):
        raise ValueError(f"sample ids must be in [0, {num_ids})")
    if unique and len(np.unique(ids)) != len(ids):
        raise ValueError("ids must be unique within one call")
    return ids


class LossHistory:
    """Per-sample loss window + learned-sample dropping policy."""

    def __init__(
        self,
        num_ids: int,
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
        if min_history < 1:
            raise ValueError("min_history must be >= 1")
        self.window = window
        self.drop_period = drop_period
        self.drop_quantile = drop_quantile
        self.min_history = min_history
        self._ring = np.zeros((num_ids, window), dtype=np.float64)
        self._count = np.zeros(num_ids, dtype=np.int64)  # records ever made per id
        self.dropped = np.zeros(num_ids, dtype=bool)

    def record(self, ids: np.ndarray, losses: np.ndarray) -> None:
        """Record one epoch's per-sample losses (only for samples seen).

        Each id may appear once per call: a sample is trained at most
        once an epoch, and the ring holds one entry per epoch.
        """
        ids = checked_ids(ids, len(self._count), unique=True)
        losses = np.asarray(losses, dtype=np.float64)
        if len(ids) != len(losses):
            raise ValueError("ids and losses must align")
        self._ring[ids, self._count[ids] % self.window] = losses
        self._count[ids] += 1

    def _means(self, ids: np.ndarray) -> np.ndarray:
        """Mean of each id's window, entries taken oldest first."""
        count = self._count[ids]
        held = np.minimum(count, self.window)
        oldest = np.where(count > self.window, count % self.window, 0)
        slots = (oldest[:, None] + np.arange(self.window)) % self.window
        ordered = self._ring[ids[:, None], slots]
        means = np.empty(len(ids), dtype=np.float64)
        for n in np.unique(held):
            same = held == n
            means[same] = ordered[same, :n].mean(axis=1)
        return means

    def mean_recent_loss(self, sample_id: int) -> float | None:
        """Mean loss over the recent window, or None if never recorded."""
        ids = checked_ids([sample_id], len(self._count))
        return float(self._means(ids)[0]) if self._count[ids[0]] else None

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
        candidate_ids = checked_ids(candidate_ids, len(self._count))
        held = np.minimum(self._count[candidate_ids], self.window)
        eligible = candidate_ids[held >= self.min_history]
        if not len(eligible):
            return np.zeros(0, dtype=np.int64)
        means = self._means(eligible)
        low = np.flatnonzero(means <= np.quantile(means, self.drop_quantile))
        if limit is not None and len(low) > limit:
            low = np.sort(low[np.argsort(means[low], kind="stable")[:limit]])
        return eligible[low]

    def drop(self, ids: np.ndarray) -> None:
        """Permanently remove ids from future candidate pools."""
        self.dropped[checked_ids(ids, len(self._count))] = True

    @property
    def num_dropped(self) -> int:
        return int(np.count_nonzero(self.dropped))

    @property
    def num_tracked(self) -> int:
        return int(np.count_nonzero(self._count))
