"""Tests for dataset containers and splits."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import Dataset, Subset, stratified_split


def make_dataset(n=20, classes=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3, 4, 4)).astype(np.float32)
    y = np.arange(n) % classes
    return Dataset(x, y)


class TestDataset:
    def test_length_and_classes(self):
        ds = make_dataset(20, 4)
        assert len(ds) == 20
        assert ds.num_classes == 4
        assert ds.image_shape == (3, 4, 4)

    def test_default_ids_are_positions(self):
        ds = make_dataset(10)
        assert np.array_equal(ds.ids, np.arange(10))

    def test_rejects_wrong_x_rank(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((5, 3, 4)), np.zeros(5))

    def test_rejects_misaligned_labels(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((5, 3, 4, 4)), np.zeros(4))

    def test_rejects_duplicate_ids(self):
        # A repeated position would give two rows one id, aliasing their state.
        with pytest.raises(ValueError, match="unique"):
            make_dataset(3).subset(np.array([0, 0, 1]))

    def test_class_indices(self):
        ds = make_dataset(8, 2)
        assert np.array_equal(ds.class_indices(0), [0, 2, 4, 6])
        assert np.array_equal(ds.class_indices(1), [1, 3, 5, 7])


class TestSubset:
    def test_shares_content_with_parent(self):
        ds = make_dataset(10)
        sub = Subset(ds, np.array([1, 3]))
        assert np.array_equal(sub.x[0], ds.x[1])
        assert np.array_equal(sub.ids, ds.ids[[1, 3]])
        assert sub.num_ids == ds.num_ids == 10

    def test_out_of_range_positions_raise(self):
        ds = make_dataset(5)
        with pytest.raises(IndexError):
            Subset(ds, np.array([7]))

    def test_weights_validated(self):
        ds = make_dataset(5)
        with pytest.raises(ValueError):
            Subset(ds, np.array([0, 1]), weights=np.array([1.0]))
        with pytest.raises(ValueError):
            Subset(ds, np.array([0, 1]), weights=np.array([1.0, -2.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_raise(self, bad):
        """A NaN or infinite CRAIG weight would make the weighted loss NaN."""
        with pytest.raises(ValueError, match="finite"):
            Subset(make_dataset(5), np.array([0, 1]), weights=np.array([bad, 1.0]))

    def test_nested_subset_keeps_global_ids(self):
        ds = make_dataset(12)
        s1 = ds.subset(np.arange(0, 12, 2))  # ids 0,2,4,6,8,10
        s2 = s1.subset(np.array([1, 2]))  # ids 2,4
        assert np.array_equal(s2.ids, [2, 4])


class TestStratifiedSplit:
    def test_split_proportions(self):
        ds = make_dataset(100, 4)
        train, test = stratified_split(ds, 0.2, seed=1)
        assert len(train) + len(test) == 100
        assert len(test) == 20

    def test_every_class_in_both_sides(self):
        ds = make_dataset(40, 4)
        train, test = stratified_split(ds, 0.25, seed=2)
        assert set(np.unique(train.y)) == set(range(4))
        assert set(np.unique(test.y)) == set(range(4))

    def test_no_overlap(self):
        ds = make_dataset(30, 3)
        train, test = stratified_split(ds, 0.3, seed=3)
        assert not set(train.ids) & set(test.ids)

    def test_deterministic_given_seed(self):
        ds = make_dataset(30, 3)
        a = stratified_split(ds, 0.3, seed=4)[0]
        b = stratified_split(ds, 0.3, seed=4)[0]
        assert np.array_equal(a.ids, b.ids)

    def test_split_leaves_the_parent_collectable(self):
        ds = make_dataset(50)
        parent = weakref.ref(ds)
        train, test = stratified_split(ds, 0.2)
        del ds
        assert parent() is None
        assert train.num_ids == test.num_ids == 50

    def test_invalid_fraction_raises(self):
        ds = make_dataset(10)
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                stratified_split(ds, bad)

    @given(frac=st.floats(0.1, 0.5), n=st.integers(20, 60))
    @settings(max_examples=20, deadline=None)
    def test_partition_property(self, frac, n):
        ds = make_dataset(n, 4, seed=n)
        train, test = stratified_split(ds, frac, seed=0)
        ids = np.concatenate([train.ids, test.ids])
        assert sorted(ids) == list(range(n))
