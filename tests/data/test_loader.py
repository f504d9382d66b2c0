"""Tests for the mini-batch loader."""

import numpy as np
import pytest

from repro.data.dataset import Dataset, Subset
from repro.data.loader import DataLoader


def make_dataset(n=20):
    rng = np.random.default_rng(0)
    return Dataset(rng.normal(size=(n, 1, 2, 2)).astype(np.float32), np.arange(n) % 2)


class TestDataLoader:
    def test_batches_cover_everything_once(self):
        ds = make_dataset(17)
        loader = DataLoader(ds, batch_size=5, shuffle=True, seed=0)
        seen = np.concatenate([b.ids for b in loader])
        assert sorted(seen) == list(range(17))

    def test_batch_sizes(self):
        ds = make_dataset(17)
        loader = DataLoader(ds, batch_size=5, shuffle=False)
        sizes = [len(b) for b in loader]
        assert sizes == [5, 5, 5, 2]
        assert len(loader) == 4

    def test_drop_last(self):
        ds = make_dataset(17)
        loader = DataLoader(ds, batch_size=5, drop_last=True)
        sizes = [len(b) for b in loader]
        assert sizes == [5, 5, 5]
        assert len(loader) == 3

    def test_no_shuffle_preserves_order(self):
        ds = make_dataset(10)
        loader = DataLoader(ds, batch_size=4, shuffle=False)
        first = next(iter(loader))
        assert np.array_equal(first.ids, [0, 1, 2, 3])

    def test_shuffle_differs_across_epochs_but_reproducible(self):
        # Epochs must be *fully consumed* to advance the shuffle seed —
        # a peeked-and-abandoned iterator replays the same epoch.
        ds = make_dataset(30)
        loader = DataLoader(ds, batch_size=30, shuffle=True, seed=5)
        epoch1 = [b.ids.copy() for b in loader][0]
        epoch2 = [b.ids.copy() for b in loader][0]
        assert not np.array_equal(epoch1, epoch2)

        loader_b = DataLoader(ds, batch_size=30, shuffle=True, seed=5)
        assert np.array_equal([b.ids for b in loader_b][0], epoch1)

    def test_weights_follow_samples(self):
        ds = make_dataset(8)
        w = np.arange(8, dtype=np.float64) + 1
        sub = Subset(ds, np.arange(8), weights=w)
        loader = DataLoader(sub, batch_size=3, shuffle=True, seed=1)
        for batch in loader:
            assert batch.weights is not None
            # weight i+1 belongs to global id i
            assert np.allclose(batch.weights, batch.ids + 1)

    def test_unweighted_dataset_yields_none_weights(self):
        ds = make_dataset(6)
        loader = DataLoader(ds, batch_size=3)
        assert next(iter(loader)).weights is None

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(make_dataset(5), batch_size=0)

    def test_labels_aligned_with_images(self):
        ds = make_dataset(12)
        loader = DataLoader(ds, batch_size=4, shuffle=True, seed=2)
        for batch in loader:
            for i, sample_id in enumerate(batch.ids):
                assert np.array_equal(batch.x[i], ds.x[sample_id])
                assert batch.y[i] == ds.y[sample_id]


class TestEpochAdvancement:
    """Regression tests for the peek bug: `_epoch` used to advance at
    iterator *creation*, so `next(iter(loader))` silently skipped an
    epoch's shuffle order."""

    def test_only_full_consumption_advances(self):
        ds = make_dataset(30)
        loader = DataLoader(ds, batch_size=10, shuffle=True, seed=5)
        assert loader.epochs_served == 0
        next(iter(loader))  # abandoned peek
        assert loader.epochs_served == 0
        list(loader)
        assert loader.epochs_served == 1
        list(loader)
        assert loader.epochs_served == 2

    def test_peek_then_full_epoch_equals_clean_first_epoch(self):
        ds = make_dataset(30)
        clean = DataLoader(ds, batch_size=30, shuffle=True, seed=5)
        peeked = DataLoader(ds, batch_size=30, shuffle=True, seed=5)
        next(iter(peeked))
        assert np.array_equal(
            next(iter(clean)).ids, next(iter(peeked)).ids
        )

    def test_drop_last_tail_still_counts_as_consumed(self):
        ds = make_dataset(23)
        loader = DataLoader(ds, batch_size=5, drop_last=True)
        list(loader)
        assert loader.epochs_served == 1
