"""Robustness tests: degenerate inputs the selectors must survive."""

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.nn.resnet import resnet20
from repro.selection.craig import CraigSelector, craig_select_class
from repro.selection.facility import lazy_greedy, medoid_weights, stochastic_greedy
from repro.selection.kcenters import k_centers


class TestDegenerateGeometry:
    def test_all_identical_vectors(self):
        """Zero pairwise distance: any k medoids are optimal; no crash."""
        v = np.ones((20, 4))
        sel, w, _ = craig_select_class(v, 5)
        assert len(sel) == 5
        assert w.sum() == pytest.approx(20)

    def test_identical_vectors_kcenters(self):
        """Once every point sits on a center, unchosen points still come next."""
        v = np.zeros((15, 3))
        sel = k_centers(v, 4, rng=np.random.default_rng(0))
        assert len(sel) == 4
        assert len(np.unique(sel)) == 4
        assert k_centers(np.zeros((5, 3)), 3).tolist() == [4, 0, 1]

    def test_single_point(self):
        v = np.array([[1.0, 2.0]])
        sel, w, _ = craig_select_class(v, 1)
        assert list(sel) == [0]
        assert w[0] == pytest.approx(1.0)

    def test_two_far_clusters_perfect_split(self):
        a = np.zeros((10, 2))
        b = np.full((10, 2), 1000.0)
        v = np.vstack([a, b])
        sel, w, _ = craig_select_class(v, 2)
        # One medoid per blob, each weighted 10.
        picked_blobs = {int(i) // 10 for i in sel}
        assert picked_blobs == {0, 1}
        assert sorted(w.tolist()) == [10, 10]

    def test_zero_similarity_matrix(self):
        sim = np.zeros((8, 8))
        sel = lazy_greedy(sim, 3)
        assert len(sel) == 3
        sel2 = stochastic_greedy(sim, 3, rng=np.random.default_rng(0))
        assert len(sel2) == 3
        assert medoid_weights(sim, sel).sum() == pytest.approx(8)


class TestClassImbalance:
    def _imbalanced(self):
        rng = np.random.default_rng(3)
        # class 0: 90 samples, class 1: 6 samples
        x = rng.normal(size=(96, 3, 8, 8)).astype(np.float32)
        y = np.array([0] * 90 + [1] * 6)
        return Dataset(x, y)

    def test_craig_keeps_minority_class(self):
        ds = self._imbalanced()
        model = resnet20(num_classes=2, width=4, seed=0)
        res = CraigSelector().select(ds, 0.1, model)
        assert 1 in set(ds.y[res.positions])

    def test_fraction_larger_than_minority(self):
        """Requesting 90% still respects the tiny class."""
        ds = self._imbalanced()
        model = resnet20(num_classes=2, width=4, seed=0)
        res = CraigSelector().select(ds, 0.9, model)
        minority = (ds.y[res.positions] == 1).sum()
        assert minority >= 5


class TestNumericEdges:
    def test_huge_magnitude_vectors(self):
        v = np.random.default_rng(4).normal(size=(30, 4)) * 1e8
        sel, w, _ = craig_select_class(v, 6)
        assert len(sel) == 6
        assert np.isfinite(w).all()

    def test_tiny_magnitude_vectors(self):
        v = np.random.default_rng(5).normal(size=(30, 4)) * 1e-8
        sel, w, _ = craig_select_class(v, 6)
        assert len(sel) == 6
        assert w.sum() == pytest.approx(30)

    def test_high_dimensional_proxies(self):
        v = np.random.default_rng(6).normal(size=(40, 200))
        sel, _, _ = craig_select_class(v, 8)
        assert len(sel) == 8
