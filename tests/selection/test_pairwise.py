"""Tests for the Gram-matrix pairwise-distance kernels."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.selection.craig import craig_select_class
from repro.selection.facility import medoid_weights, similarity_from_distances
from repro.selection.pairwise import pairwise_distances
from tests.selection.oracles import lazy_greedy_reference, naive_pairwise_distances


def random_vectors(n, d, seed=0):
    return np.random.default_rng(seed).normal(size=(n, d))


class TestGramEqualsNaive:
    def test_float64_matches_broadcast(self):
        v = random_vectors(120, 10)
        np.testing.assert_allclose(
            pairwise_distances(v), naive_pairwise_distances(v), rtol=0, atol=1e-10
        )

    @given(n=st.integers(2, 60), d=st.integers(1, 12))
    @settings(max_examples=25, deadline=None)
    def test_gram_equals_naive_property(self, n, d):
        v = random_vectors(n, d, seed=n * 31 + d)
        np.testing.assert_allclose(
            pairwise_distances(v), naive_pairwise_distances(v), rtol=0, atol=1e-9
        )


class TestDistanceInvariants:
    def test_symmetric_zero_diagonal_nonnegative(self):
        d = pairwise_distances(random_vectors(80, 6, seed=4))
        np.testing.assert_allclose(d, d.T, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(np.diag(d), np.zeros(80))
        assert (d >= 0).all()

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            pairwise_distances(np.zeros(5))

    def test_single_point(self):
        assert pairwise_distances(np.ones((1, 3))).shape == (1, 1)


class TestPeakMemory:
    def test_no_nxnxd_intermediate(self):
        """The Gram path must not materialize the N x N x D broadcast.

        At n=600, d=40 the seed broadcast peaks at ~115 MB of temporaries;
        the Gram path needs the n^2 output plus O(n*d) workspace (~6 MB).
        """
        v = random_vectors(600, 40, seed=5)
        naive_bytes = 600 * 600 * 40 * 8  # what the broadcast would allocate

        pairwise_distances(v)  # warm up allocator pools
        tracemalloc.start()
        pairwise_distances(v)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # n^2 output + n^2 GEMM product + small workspace, with slack.
        assert peak < 0.3 * naive_bytes
        assert peak < 30 * 1024 * 1024


class TestCraigPipelineEquivalence:
    """craig_select_class on the new kernels matches the seed pipeline."""

    @staticmethod
    def seed_pipeline(vectors, k):
        similarity = similarity_from_distances(naive_pairwise_distances(vectors))
        sel = lazy_greedy_reference(similarity, k)
        return sel, medoid_weights(similarity, sel)

    def test_lazy_method_matches_seed_pipeline(self):
        v = random_vectors(150, 8, seed=6)
        sel, w, nbytes = craig_select_class(v, 20)
        ref_sel, ref_w = self.seed_pipeline(v, 20)
        np.testing.assert_array_equal(sel, ref_sel)
        np.testing.assert_array_equal(w, ref_w)
        assert nbytes == 150 * 150 * 4
