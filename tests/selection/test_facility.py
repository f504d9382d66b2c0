"""Tests for facility-location maximization (paper Eq. 5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.selection.facility import (
    facility_location_value,
    lazy_greedy,
    medoid_weights,
    similarity_from_distances,
    stochastic_greedy,
)
from tests.selection.oracles import lazy_greedy_reference


def random_similarity(n, d=4, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, d))
    dist = np.linalg.norm(v[:, None] - v[None, :], axis=2)
    return similarity_from_distances(dist)


def naive_greedy(similarity, k):
    """Reference O(n^2 k) greedy for cross-checking lazy greedy."""
    n = similarity.shape[0]
    current = np.zeros(n)
    out = []
    for _ in range(k):
        gains = np.maximum(similarity - current[:, None], 0.0).sum(axis=0)
        gains[out] = -np.inf
        j = int(np.argmax(gains))
        out.append(j)
        current = np.maximum(current, similarity[:, j])
    return np.asarray(out)


class TestSimilarityFromDistances:
    def test_default_c0_keeps_nonnegative(self):
        d = np.array([[0.0, 2.0], [2.0, 0.0]])
        s = similarity_from_distances(d)
        assert (s >= 0).all()
        assert s[0, 0] == pytest.approx(2.0)

    def test_explicit_c0_must_dominate(self):
        d = np.array([[0.0, 5.0], [5.0, 0.0]])
        with pytest.raises(ValueError):
            similarity_from_distances(d, c0=1.0)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            similarity_from_distances(np.zeros((2, 3)))


class TestLazyGreedy:
    def test_matches_naive_greedy_exactly(self):
        for seed in range(5):
            s = random_similarity(40, seed=seed)
            assert np.array_equal(lazy_greedy(s, 8), naive_greedy(s, 8))

    def test_k_geq_n_selects_everything(self):
        s = random_similarity(5)
        assert np.array_equal(np.sort(lazy_greedy(s, 10)), np.arange(5))

    def test_monotone_objective(self):
        s = random_similarity(30, seed=1)
        sel = lazy_greedy(s, 10)
        values = [facility_location_value(s, sel[: i + 1]) for i in range(10)]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_first_pick_is_best_singleton(self):
        s = random_similarity(25, seed=2)
        sel = lazy_greedy(s, 1)
        assert sel[0] == int(np.argmax(s.sum(axis=0)))

    def test_rejects_negative_similarity(self):
        with pytest.raises(ValueError):
            lazy_greedy(np.array([[1.0, -0.1], [-0.1, 1.0]]), 1)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            lazy_greedy(random_similarity(5), 0)

    @given(n=st.integers(5, 30), k=st.integers(1, 8))
    @settings(max_examples=20, deadline=None)
    def test_lazy_equals_naive_property(self, n, k):
        k = min(k, n - 1)  # at k >= n lazy greedy short-circuits to index order
        s = random_similarity(n, seed=n * 13 + k)
        assert np.array_equal(lazy_greedy(s, k), naive_greedy(s, k))


class TestBatchedLazyGreedy:
    """The batched stale-refresh must reproduce the seed's selection order."""

    def test_matches_reference_order_exactly(self):
        for seed in range(5):
            s = random_similarity(60, seed=seed)
            ref = lazy_greedy_reference(s, 15)
            assert np.array_equal(lazy_greedy(s, 15), ref)

    def test_odd_batch_sizes(self):
        s = random_similarity(50, seed=11)
        ref = lazy_greedy_reference(s, 12)
        for batch in (1, 2, 3, 7, 16, 64, 1000):
            assert np.array_equal(lazy_greedy(s, 12, batch_size=batch), ref)

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            lazy_greedy(random_similarity(10), 2, batch_size=0)

    def test_duplicate_rows_tie_breaking(self):
        """Identical candidates exercise heap tie-breaks through the index."""
        rng = np.random.default_rng(12)
        v = rng.normal(size=(10, 3))
        v = np.vstack([v, v, v])  # every point appears three times
        d = np.linalg.norm(v[:, None] - v[None, :], axis=2)
        s = similarity_from_distances(d)
        assert np.array_equal(lazy_greedy(s, 8), lazy_greedy_reference(s, 8))

    @given(n=st.integers(5, 40), k=st.integers(1, 10), batch=st.integers(1, 12))
    @settings(max_examples=25, deadline=None)
    def test_batched_equals_reference_property(self, n, k, batch):
        k = min(k, n - 1)
        s = random_similarity(n, seed=n * 7 + k * 3 + batch)
        assert np.array_equal(
            lazy_greedy(s, k, batch_size=batch), lazy_greedy_reference(s, k)
        )


class TestValidateFlag:
    def test_validate_false_skips_negativity_scan(self):
        s = np.array([[1.0, -0.1], [-0.1, 1.0]])
        with pytest.raises(ValueError):
            lazy_greedy(s, 1)  # default validates
        lazy_greedy(s, 1, validate=False)  # trusted caller: no scan, no raise

    def test_stochastic_validate_false(self):
        s = np.array([[1.0, -0.1], [-0.1, 1.0]])
        with pytest.raises(ValueError):
            stochastic_greedy(s, 1, rng=np.random.default_rng(0))
        stochastic_greedy(s, 1, rng=np.random.default_rng(0), validate=False)


class TestStochasticGreedy:
    def test_achieves_near_greedy_value(self):
        s = random_similarity(80, seed=3)
        exact = facility_location_value(s, lazy_greedy(s, 12))
        stoch = facility_location_value(
            s, stochastic_greedy(s, 12, epsilon=0.05, rng=np.random.default_rng(0))
        )
        assert stoch >= 0.9 * exact

    def test_no_duplicates(self):
        s = random_similarity(50, seed=4)
        sel = stochastic_greedy(s, 20, rng=np.random.default_rng(1))
        assert len(np.unique(sel)) == len(sel)

    def test_deterministic_given_rng(self):
        s = random_similarity(40, seed=5)
        a = stochastic_greedy(s, 10, rng=np.random.default_rng(7))
        b = stochastic_greedy(s, 10, rng=np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_rejects_bad_epsilon(self):
        s = random_similarity(10)
        for eps in (0.0, 1.0, -1.0):
            with pytest.raises(ValueError):
                stochastic_greedy(s, 2, epsilon=eps, rng=np.random.default_rng(0))
        # checked before the k >= n shortcut, not only when sampling
        with pytest.raises(ValueError):
            stochastic_greedy(np.eye(6), 99, epsilon=0.0, rng=np.random.default_rng(0))

    def test_k_geq_n_selects_everything(self):
        s = random_similarity(6)
        sel = stochastic_greedy(s, 99, rng=np.random.default_rng(0))
        assert np.array_equal(np.sort(sel), np.arange(6))


class TestMedoidWeights:
    def test_weights_sum_to_n(self):
        s = random_similarity(30, seed=6)
        sel = lazy_greedy(s, 5)
        w = medoid_weights(s, sel)
        assert w.sum() == pytest.approx(30)
        assert (w >= 0).all()

    def test_isolated_clusters_get_their_sizes(self):
        """Two far-apart blobs of sizes 6 and 3: weights must be 6 and 3."""
        rng = np.random.default_rng(7)
        a = rng.normal(0, 0.01, size=(6, 2))
        b = rng.normal(100, 0.01, size=(3, 2))
        v = np.vstack([a, b])
        d = np.linalg.norm(v[:, None] - v[None, :], axis=2)
        s = similarity_from_distances(d)
        sel = lazy_greedy(s, 2)
        w = medoid_weights(s, sel)
        assert sorted(w.tolist()) == [3, 6]

    def test_empty_selection(self):
        s = random_similarity(5)
        assert medoid_weights(s, np.array([], dtype=np.int64)).size == 0

    @given(n=st.integers(6, 40), k=st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_weight_conservation_property(self, n, k):
        s = random_similarity(n, seed=n + k)
        sel = lazy_greedy(s, min(k, n))
        assert medoid_weights(s, sel).sum() == pytest.approx(n)


class TestFacilityValue:
    def test_empty_set_is_zero(self):
        s = random_similarity(5)
        assert facility_location_value(s, np.array([], dtype=np.int64)) == 0.0

    def test_full_set_is_row_max_sum(self):
        s = random_similarity(8, seed=8)
        val = facility_location_value(s, np.arange(8))
        assert val == pytest.approx(s.max(axis=1).sum())

    def test_submodularity_diminishing_returns(self):
        """Gain of adding j to S shrinks as S grows."""
        s = random_similarity(20, seed=9)
        sel = lazy_greedy(s, 6)
        j = [i for i in range(20) if i not in sel][0]
        small = sel[:2]
        large = sel[:5]
        gain_small = facility_location_value(s, np.append(small, j)) - facility_location_value(
            s, small
        )
        gain_large = facility_location_value(s, np.append(large, j)) - facility_location_value(
            s, large
        )
        assert gain_small >= gain_large - 1e-9
