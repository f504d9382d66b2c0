"""Tests for the synthetic dataset generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.synthetic import SyntheticConfig, SyntheticImageDataset, make_train_test


class TestConfigValidation:
    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            SyntheticConfig(num_classes=1)

    def test_rejects_too_few_samples(self):
        with pytest.raises(ValueError):
            SyntheticConfig(num_classes=10, num_samples=20, clusters_per_class=4)

    def test_rejects_bad_hard_fraction(self):
        with pytest.raises(ValueError):
            SyntheticConfig(hard_fraction=1.0)

    def test_rejects_bad_image_shape(self):
        with pytest.raises(ValueError):
            SyntheticConfig(image_shape=(3, 8))


class TestGeneration:
    def test_sizes_and_shapes(self):
        cfg = SyntheticConfig(num_classes=5, num_samples=500, image_shape=(3, 8, 8), seed=0)
        ds = SyntheticImageDataset(cfg)
        assert len(ds) == 500
        assert ds.x.shape == (500, 3, 8, 8)
        assert ds.num_classes == 5

    def test_all_classes_populated(self):
        cfg = SyntheticConfig(num_classes=6, num_samples=300, seed=1)
        ds = SyntheticImageDataset(cfg)
        counts = np.bincount(ds.y, minlength=6)
        assert (counts > 0).all()
        # Near-balanced classes.
        assert counts.max() - counts.min() <= 1

    def test_deterministic_from_seed(self):
        cfg = SyntheticConfig(num_classes=3, num_samples=120, seed=9)
        a = SyntheticImageDataset(cfg)
        b = SyntheticImageDataset(cfg)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)

    def test_cluster_metadata_consistent(self):
        cfg = SyntheticConfig(num_classes=4, num_samples=400, clusters_per_class=3, seed=2)
        ds = SyntheticImageDataset(cfg)
        assert ds.num_clusters == 12
        assert ds.cluster_ids.max() < 12
        # Every cluster has at least one sample (min-1 allocation).
        assert len(np.unique(ds.cluster_ids)) == 12
        # Cluster ids map to a single class each.
        for cid in range(12):
            labels = np.unique(ds.y[ds.cluster_ids == cid])
            assert len(labels) == 1

    def test_zipf_populations_skewed(self):
        cfg = SyntheticConfig(
            num_classes=2, num_samples=600, clusters_per_class=4, zipf_exponent=1.0, seed=3
        )
        ds = SyntheticImageDataset(cfg)
        sizes = np.bincount(ds.cluster_ids, minlength=8)
        per_class = sizes.reshape(2, 4)
        # First cluster of each class is the biggest (Zipf head).
        assert (per_class[:, 0] >= per_class[:, -1]).all()
        assert per_class[:, 0].max() > per_class[:, -1].min() * 2

    def test_hard_fraction_recorded(self):
        cfg = SyntheticConfig(num_classes=3, num_samples=300, hard_fraction=0.2, seed=4)
        ds = SyntheticImageDataset(cfg)
        hard = (ds.difficulty > 0).mean()
        assert 0.1 < hard < 0.3

    def test_zero_hard_fraction_has_no_hard_samples(self):
        cfg = SyntheticConfig(num_classes=3, num_samples=150, hard_fraction=0.0, seed=5)
        ds = SyntheticImageDataset(cfg)
        assert (ds.difficulty == 0).all()

    def test_classes_are_linearly_distinguishable(self):
        """Class means should be far apart relative to within-class spread."""
        cfg = SyntheticConfig(num_classes=4, num_samples=400, seed=6)
        ds = SyntheticImageDataset(cfg)
        flat = ds.x.reshape(len(ds), -1)
        means = np.stack([flat[ds.y == c].mean(axis=0) for c in range(4)])
        between = np.linalg.norm(means[0] - means[1])
        within = np.mean([flat[ds.y == c].std() for c in range(4)])
        assert between > within  # separable signal exists

    @given(classes=st.integers(2, 6), clusters=st.integers(1, 4))
    @settings(max_examples=15, deadline=None)
    def test_generation_properties(self, classes, clusters):
        cfg = SyntheticConfig(
            num_classes=classes,
            num_samples=classes * clusters * 12,
            clusters_per_class=clusters,
            seed=classes * 10 + clusters,
        )
        ds = SyntheticImageDataset(cfg)
        assert len(ds) == cfg.num_samples
        assert ds.num_classes == classes
        assert len(np.unique(ds.cluster_ids)) == classes * clusters
        assert np.isfinite(ds.x).all()


class TestMakeTrainTest:
    def test_split_fractions(self):
        cfg = SyntheticConfig(num_classes=4, num_samples=200, seed=7)
        train, test = make_train_test(cfg, test_fraction=0.25)
        assert len(train) + len(test) == 200
        assert abs(len(test) - 50) <= 4

    def test_metadata_reachable_through_ids(self):
        cfg = SyntheticConfig(num_classes=4, num_samples=200, seed=8)
        train, _ = make_train_test(cfg)
        # The split keeps no generated set; one rebuilt from the config has
        # the same rows, and the split's ids index its metadata arrays.
        generated = SyntheticImageDataset(cfg)
        assert np.array_equal(train.x, generated.x[train.ids])
        assert np.array_equal(train.y, generated.y[train.ids])
        cluster_of_first = generated.cluster_ids[train.ids[0]]
        assert 0 <= cluster_of_first < generated.num_clusters
