"""Tests for CRAIG, k-centers and random selectors over datasets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.synthetic import SyntheticImageDataset
from repro.nn.inference import EVAL_BLOCK, InferencePlan
from repro.selection.craig import CraigSelector, craig_select_class
from repro.selection.gradients import compute_gradient_proxies, proxies_from_logits
from repro.selection.kcenters import KCentersSelector, k_centers
from repro.selection.partition import chunk_pairwise_bytes
from repro.selection.random_sel import RandomSelector
from repro.smartssd.kernel import SelectionKernel


class TestGradientProxies:
    def test_shapes_and_alignment(self, train_test_split, tiny_model):
        train, _ = train_test_split
        proxy = compute_gradient_proxies(tiny_model, train.x, train.y)
        assert proxy.vectors.shape == (len(train), train.num_classes)
        assert proxy.losses.shape == (len(train),)
        assert proxy.flops > 0

    def test_rows_sum_to_zero(self, train_test_split, tiny_model):
        train, _ = train_test_split
        proxy = compute_gradient_proxies(tiny_model, train.x, train.y)
        assert np.allclose(proxy.vectors.sum(axis=1), 0.0, atol=1e-5)

    def test_batching_invariant(self, train_test_split, tiny_model):
        """Blocks of ``EVAL_BLOCK`` (a short tail here) give one whole-set pass's proxies."""
        train, test = train_test_split
        x, y = np.concatenate([train.x, test.x]), np.concatenate([train.y, test.y])
        assert len(x) % EVAL_BLOCK
        blocked = compute_gradient_proxies(tiny_model, x, y)
        whole, _ = proxies_from_logits(InferencePlan(tiny_model, x.shape[1:])(x), y)
        assert np.allclose(blocked.vectors, whole, atol=1e-6)

    def test_restores_training_mode(self, train_test_split, tiny_model):
        train, _ = train_test_split
        tiny_model.train()
        compute_gradient_proxies(tiny_model, train.x[:8], train.y[:8])
        assert tiny_model.training


class TestCraigSelectClass:
    def test_returns_k_items_with_weights(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(40, 6))
        sel, w, nbytes = craig_select_class(v, 10)
        assert len(sel) == 10
        assert w.sum() == pytest.approx(40)
        assert nbytes == 40 * 40 * 4

    def test_empty_input(self):
        sel, w, nbytes = craig_select_class(np.zeros((0, 4)), 3)
        assert sel.size == 0 and w.size == 0 and nbytes == 0

    def test_pairwise_bytes_is_the_kernel_tile(self):
        """One similarity-entry width: CRAIG, partitioning and the kernel agree."""
        v = np.random.default_rng(1).normal(size=(37, 6))
        assert (
            craig_select_class(v, 5)[2]
            == chunk_pairwise_bytes(37)
            == SelectionKernel().chunk_tile_bytes(37)
        )


class TestCraigSelector:
    def test_selects_requested_fraction(self, train_test_split, tiny_model):
        train, _ = train_test_split
        res = CraigSelector().select(train, 0.25, tiny_model)
        assert abs(len(res.positions) - 0.25 * len(train)) <= train.num_classes
        assert res.weights.sum() == pytest.approx(len(train), rel=0.05)

    def test_positions_unique_and_valid(self, train_test_split, tiny_model):
        train, _ = train_test_split
        res = CraigSelector().select(train, 0.3, tiny_model)
        assert len(np.unique(res.positions)) == len(res.positions)
        assert res.positions.max() < len(train)

    def test_every_class_represented(self, train_test_split, tiny_model):
        train, _ = train_test_split
        res = CraigSelector().select(train, 0.1, tiny_model)
        labels = set(train.y[res.positions])
        assert labels == set(range(train.num_classes))

    def test_rejects_bad_fraction(self, train_test_split, tiny_model):
        train, _ = train_test_split
        with pytest.raises(ValueError):
            CraigSelector().select(train, 0.0, tiny_model)

    def test_covers_all_ground_truth_clusters(self, train_test_split, split_config, tiny_model):
        """Facility location must cover every generator cluster at 25%."""
        train, _ = train_test_split
        generated = SyntheticImageDataset(split_config)  # train.ids index its rows
        res = CraigSelector().select(train, 0.25, tiny_model)
        picked_clusters = set(generated.cluster_ids[train.ids[res.positions]])
        all_clusters = set(generated.cluster_ids[train.ids])
        assert len(picked_clusters) >= 0.9 * len(all_clusters)


class TestKCenters:
    def test_farthest_point_covers_extremes(self):
        """Points at the corners of a square must all be chosen at k=4."""
        corners = np.array([[0, 0], [0, 10], [10, 0], [10, 10]], dtype=float)
        rng = np.random.default_rng(3)
        fill = rng.normal(5, 0.5, size=(30, 2))
        v = np.vstack([corners, fill])
        sel = k_centers(v, 5, rng=np.random.default_rng(0))
        # All four corners should be selected (they're the farthest points).
        assert len(set(sel) & {0, 1, 2, 3}) >= 3

    def test_cover_radius_shrinks_with_k(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=(100, 3))

        def radius(sel):
            d = np.linalg.norm(v[:, None] - v[sel][None], axis=2)
            return d.min(axis=1).max()

        r4 = radius(k_centers(v, 4, rng=np.random.default_rng(1)))
        r16 = radius(k_centers(v, 16, rng=np.random.default_rng(1)))
        assert r16 < r4

    def test_selector_interface(self, train_test_split, tiny_model):
        train, _ = train_test_split
        res = KCentersSelector(seed=0).select(train, 0.2, tiny_model)
        assert len(np.unique(res.positions)) == len(res.positions)
        assert np.allclose(res.weights, 1.0)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            k_centers(np.zeros((5, 2)), 0)

    @given(
        grid=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                      min_size=2, max_size=30),
        k_frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_distinct_picks_match_farthest_point_oracle(self, grid, k_frac, seed):
        """Always k distinct picks, identical to plain farthest-point
        traversal wherever that traversal's picks are distinct."""
        v = np.asarray(grid, dtype=np.float64)
        n = len(v)
        k = 1 + int(k_frac * (n - 2))

        def farthest_point_oracle(rng):
            first = int(rng.integers(0, n))
            selected = [first]
            min_dist = np.linalg.norm(v - v[first], axis=1)
            for _ in range(k - 1):
                nxt = int(np.argmax(min_dist))
                selected.append(nxt)
                min_dist = np.minimum(min_dist, np.linalg.norm(v - v[nxt], axis=1))
            return selected

        got = k_centers(v, k, rng=np.random.default_rng(seed)).tolist()
        want = farthest_point_oracle(np.random.default_rng(seed))
        assert len(got) == k and len(set(got)) == k
        first_repeat = next(
            (i for i, j in enumerate(want) if j in want[:i]), len(want)
        )
        assert got[:first_repeat] == want[:first_repeat]


class TestRandomSelector:
    def test_stratified_fraction_per_class(self, train_test_split):
        train, _ = train_test_split
        res = RandomSelector(seed=0).select(train, 0.25)
        labels = train.y[res.positions]
        for c in range(train.num_classes):
            class_n = (train.y == c).sum()
            picked = (labels == c).sum()
            assert abs(picked - 0.25 * class_n) <= 2

    def test_deterministic_per_seed(self, train_test_split):
        train, _ = train_test_split
        a = RandomSelector(seed=5).select(train, 0.3)
        b = RandomSelector(seed=5).select(train, 0.3)
        assert np.array_equal(a.positions, b.positions)

    def test_no_model_needed(self, train_test_split):
        train, _ = train_test_split
        res = RandomSelector(seed=0).select(train, 0.2, model=None)
        assert res.proxy_flops == 0.0
