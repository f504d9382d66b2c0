"""Property-based tests for access-pattern generation and replay."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smartssd.access import (
    selection_scan_pattern,
    subset_gather_pattern,
    replay,
)


class TestTraceProperties:
    @given(
        n=st.integers(1, 5000),
        bytes_per=st.sampled_from([512, 3000, 126_000]),
        chunk=st.integers(1, 4096),
    )
    @settings(max_examples=30, deadline=None)
    def test_scan_conserves_bytes_and_is_gapless(self, n, bytes_per, chunk):
        pattern = selection_scan_pattern(n, bytes_per, chunk)
        assert pattern.total_bytes == n * bytes_per
        prev_end = pattern.requests[0].offset
        for request in pattern:
            assert request.offset == prev_end
            prev_end = request.offset + request.length

    @given(
        n=st.integers(100, 5000),
        frac=st.floats(0.05, 0.9),
        bytes_per=st.sampled_from([3000, 12_000]),
        batch=st.sampled_from([32, 128, 256]),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=25, deadline=None)
    def test_gather_conserves_bytes(self, n, frac, bytes_per, batch, seed):
        rng = np.random.default_rng(seed)
        k = max(1, int(frac * n))
        picked = np.sort(rng.choice(n, size=k, replace=False))
        pattern = subset_gather_pattern(picked, bytes_per, batch_images=batch)
        assert pattern.total_bytes == k * bytes_per
        assert len(pattern) == -(-k // batch)

    @given(
        n=st.integers(100, 3000),
        frac=st.floats(0.05, 0.5),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=20, deadline=None)
    def test_replay_time_positive_and_bounded(self, n, frac, seed):
        """Replay time is positive and never beats the wire-speed bound."""
        rng = np.random.default_rng(seed)
        k = max(1, int(frac * n))
        picked = np.sort(rng.choice(n, size=k, replace=False))
        pattern = subset_gather_pattern(picked, 3000)
        cost = replay(pattern)
        assert cost.total_time > 0
        assert cost.effective_throughput <= 3.0e9  # link ceiling

    @given(seed=st.integers(0, 50), n=st.integers(200, 2000))
    @settings(max_examples=15, deadline=None)
    def test_scattering_never_cheaper_than_contiguous(self, seed, n):
        rng = np.random.default_rng(seed)
        k = n // 4
        scattered = np.sort(rng.choice(n, size=k, replace=False))
        contiguous = np.arange(k)
        t_scattered = replay(subset_gather_pattern(scattered, 3000)).total_time
        t_contiguous = replay(subset_gather_pattern(contiguous, 3000)).total_time
        assert t_contiguous <= t_scattered + 1e-9
