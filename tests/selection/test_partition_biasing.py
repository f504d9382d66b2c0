"""Tests for dataset partitioning (§3.2.3) and subset biasing (§3.2.2)."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.selection.biasing import LossHistory
from repro.selection.partition import partition_positions


class TestPartitionPositions:
    def test_partitions_cover_everything(self):
        rng = np.random.default_rng(0)
        chunks = partition_positions(100, 7, rng)
        all_items = np.concatenate(chunks)
        assert sorted(all_items) == list(range(100))

    def test_near_equal_sizes(self):
        rng = np.random.default_rng(1)
        chunks = partition_positions(100, 7, rng)
        sizes = [len(c) for c in chunks]
        assert max(sizes) - min(sizes) <= 1

    def test_more_chunks_than_items_clamped(self):
        rng = np.random.default_rng(2)
        chunks = partition_positions(3, 10, rng)
        assert len(chunks) == 3

    def test_rejects_bad_chunk_count(self):
        with pytest.raises(ValueError):
            partition_positions(10, 0, np.random.default_rng(0))

    @given(n=st.integers(1, 200), chunks=st.integers(1, 20))
    @settings(max_examples=25, deadline=None)
    def test_partition_property(self, n, chunks):
        rng = np.random.default_rng(n * 31 + chunks)
        parts = partition_positions(n, chunks, rng)
        combined = np.concatenate(parts) if parts else np.array([])
        assert sorted(combined) == list(range(n))


class TestLossHistory:
    def test_window_keeps_recent_only(self):
        h = LossHistory(window=3)
        ids = np.array([1])
        for loss in [5.0, 4.0, 3.0, 2.0, 1.0]:
            h.record(ids, np.array([loss]))
        assert h.mean_recent_loss(1) == pytest.approx((3 + 2 + 1) / 3)

    def test_unseen_sample_has_no_history(self):
        h = LossHistory()
        assert h.mean_recent_loss(42) is None

    def test_drop_schedule_every_period(self):
        h = LossHistory(drop_period=20)
        assert not h.should_drop_now(0)
        assert not h.should_drop_now(19)
        assert h.should_drop_now(20)
        assert h.should_drop_now(40)
        assert not h.should_drop_now(21)

    def test_mark_learned_picks_low_loss_quantile(self):
        h = LossHistory(window=5, drop_quantile=0.5, min_history=3)
        ids = np.arange(10)
        # Samples 0-4 have low loss, 5-9 high loss.
        losses = np.array([0.01] * 5 + [3.0] * 5)
        for _ in range(4):
            h.record(ids, losses)
        marked = h.mark_learned(ids)
        assert set(marked) == set(range(5))

    def test_min_history_guards_fresh_samples(self):
        h = LossHistory(min_history=3)
        ids = np.arange(4)
        h.record(ids, np.zeros(4))  # only one epoch of history
        assert h.mark_learned(ids).size == 0

    def test_filter_removes_dropped(self):
        h = LossHistory()
        h.drop(np.array([2, 4]))
        out = h.filter_candidates(np.arange(6))
        assert sorted(out) == [0, 1, 3, 5]
        assert h.num_dropped == 2

    def test_filter_never_empties_pool(self):
        h = LossHistory()
        h.drop(np.arange(5))
        out = h.filter_candidates(np.arange(5))
        assert len(out) == 5  # degenerate config: pool returned untouched

    def test_record_alignment_checked(self):
        h = LossHistory()
        with pytest.raises(ValueError):
            h.record(np.arange(3), np.zeros(2))

    def test_record_rejects_duplicate_ids(self):
        # One ring slot per epoch: a sample seen twice in one call cannot
        # be represented, so the call is refused and records nothing.
        h = LossHistory(window=3)
        h.record(np.array([4, 9]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="unique"):
            h.record(np.array([9, 4, 9]), np.array([0.5, 0.5, 0.5]))
        assert h.mean_recent_loss(9) == 2.0
        assert h.mean_recent_loss(4) == 1.0
        assert h.num_tracked == 2

    def test_limit_keeps_the_lowest_losses(self):
        h = LossHistory(window=2, drop_quantile=0.9, min_history=1)
        ids = np.array([30, 10, 20, 40, 50])
        h.record(ids, np.array([0.4, 0.1, 0.3, 0.2, 5.0]))
        assert h.mark_learned(ids).tolist() == [30, 10, 20, 40]
        assert h.mark_learned(ids, limit=2).tolist() == [10, 40]
        assert h.mark_learned(ids, limit=0).size == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            LossHistory(window=0)
        with pytest.raises(ValueError):
            LossHistory(drop_period=0)
        with pytest.raises(ValueError):
            LossHistory(drop_quantile=1.0)

    @given(quantile=st.floats(0.1, 0.9))
    @settings(max_examples=15, deadline=None)
    def test_marked_fraction_tracks_quantile(self, quantile):
        h = LossHistory(window=5, drop_quantile=quantile, min_history=2)
        rng = np.random.default_rng(int(quantile * 100))
        ids = np.arange(100)
        losses = rng.uniform(0, 1, size=100)
        for _ in range(3):
            h.record(ids, losses)
        marked = h.mark_learned(ids)
        assert abs(len(marked) / 100 - quantile) < 0.15
        # Marked samples are exactly the lowest-loss ones.
        if len(marked):
            assert losses[marked].max() <= np.quantile(losses, quantile) + 1e-9


class _DequeLossHistory:
    """The dict-of-deques loss window the dense ring replaced (test oracle)."""

    def __init__(self, window, drop_quantile, min_history):
        self.window = window
        self.drop_quantile = drop_quantile
        self.min_history = min_history
        self._history = {}
        self._dropped = set()

    def record(self, ids, losses):
        for sample_id, loss in zip(ids, losses):
            key = int(sample_id)
            if key not in self._history:
                self._history[key] = deque(maxlen=self.window)
            self._history[key].append(float(loss))

    def mean_recent_loss(self, sample_id):
        hist = self._history.get(int(sample_id))
        if not hist:
            return None
        return float(np.mean(hist))

    def mark_learned(self, candidate_ids):
        eligible, means = [], []
        for sample_id in candidate_ids:
            hist = self._history.get(int(sample_id))
            if hist is not None and len(hist) >= self.min_history:
                eligible.append(int(sample_id))
                means.append(float(np.mean(hist)))
        if not eligible:
            return np.zeros(0, dtype=np.int64)
        means_arr = np.asarray(means)
        threshold = np.quantile(means_arr, self.drop_quantile)
        return np.asarray(eligible, dtype=np.int64)[means_arr <= threshold]

    def drop(self, ids):
        self._dropped.update(int(i) for i in ids)

    def filter_candidates(self, candidate_ids):
        keep = np.asarray([int(i) not in self._dropped for i in candidate_ids], dtype=bool)
        if not keep.any():
            return np.asarray(candidate_ids, dtype=np.int64)
        return np.asarray(candidate_ids, dtype=np.int64)[keep]


@st.composite
def _loss_histories(draw):
    """A window, a sparse pool of large ids and an epoch schedule over it."""
    window = draw(st.integers(1, 6))
    pool = np.asarray(
        draw(st.lists(st.integers(0, 2**40), min_size=1, max_size=30, unique=True)),
        dtype=np.int64,
    )
    losses = st.floats(0.0, 5.0) | st.sampled_from([0.0, 0.25, 1.0])  # ties too
    epochs = []
    for _ in range(draw(st.integers(1, 12))):
        seen = draw(st.lists(st.sampled_from(pool.tolist()), unique=True, max_size=len(pool)))
        epochs.append((
            np.asarray(seen, dtype=np.int64),
            np.asarray(draw(st.lists(losses, min_size=len(seen), max_size=len(seen)))),
            draw(st.booleans()),  # drop after this epoch
        ))
    return window, pool, epochs


class TestDenseLossHistoryMatchesDeques:
    @given(
        case=_loss_histories(),
        quantile=st.floats(0.0, 0.9),
        min_history=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_means_marks_and_drops_match_bit_for_bit(self, case, quantile, min_history):
        window, pool, epochs = case
        dense = LossHistory(window=window, drop_quantile=quantile, min_history=min_history)
        oracle = _DequeLossHistory(window, quantile, min_history)
        for ids, losses, drop_now in epochs:
            dense.record(ids, losses)
            oracle.record(ids, losses)
            candidates = oracle.filter_candidates(pool)
            np.testing.assert_array_equal(dense.filter_candidates(pool), candidates)
            marked = oracle.mark_learned(candidates)
            np.testing.assert_array_equal(dense.mark_learned(candidates), marked)
            if drop_now:
                dense.drop(marked)
                oracle.drop(marked)
            for sample_id in pool:
                want = oracle.mean_recent_loss(sample_id)
                got = dense.mean_recent_loss(sample_id)
                assert got == want and (want is None or got.hex() == want.hex())
        assert dense.num_tracked == len(oracle._history)
        assert dense.num_dropped == len(oracle._dropped)
