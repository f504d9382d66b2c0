"""Tests for access-pattern generation and replay."""

import numpy as np
import pytest

from repro.smartssd.access import (
    IORequest,
    AccessPattern,
    selection_scan_pattern,
    subset_gather_pattern,
    replay,
)


class TestTraceGeneration:
    def test_selection_trace_is_sequential_and_complete(self):
        pattern = selection_scan_pattern(1000, bytes_per_record=512, chunk_records=128)
        assert pattern.total_bytes == 1000 * 512
        offsets = [r.offset for r in pattern]
        assert offsets == sorted(offsets)
        # back-to-back chunks
        for a, b in zip(pattern.requests, pattern.requests[1:]):
            assert b.offset == a.offset + a.length

    def test_selection_trace_chunk_count(self):
        pattern = selection_scan_pattern(1000, 512, 128)
        assert len(pattern) == 8  # ceil(1000/128)

    def test_gather_trace_batches(self):
        positions = np.arange(0, 600, 2)  # 300 scattered images
        pattern = subset_gather_pattern(positions, bytes_per_image=3000,
                                        batch_images=128)
        assert len(pattern) == 3  # ceil(300/128)
        assert pattern.total_bytes == 300 * 3000
        assert not pattern.requests[0].contiguous
        assert pattern.requests[0].fragments == 128

    def test_gather_trace_contiguous_run_detected(self):
        positions = np.arange(100)
        pattern = subset_gather_pattern(positions, 3000, batch_images=128)
        assert len(pattern) == 1
        assert pattern.requests[0].contiguous
        assert pattern.requests[0].fragments == 1

    def test_gather_trace_respects_batch_cap(self):
        positions = np.arange(300)  # fully contiguous
        pattern = subset_gather_pattern(positions, 3000, batch_images=128)
        lengths = [r.length for r in pattern]
        assert max(lengths) == 128 * 3000
        assert sum(lengths) == 300 * 3000
        # contiguous batches carry no fragment penalty
        assert all(r.fragments == 1 for r in pattern)

    def test_gather_trace_sorts_positions(self):
        pattern = subset_gather_pattern(np.array([5, 1, 3]), 1000)
        offsets = [r.offset for r in pattern]
        assert offsets == sorted(offsets)

    def test_empty_gather(self):
        pattern = subset_gather_pattern(np.array([], dtype=np.int64), 1000)
        assert len(pattern) == 0

    def test_request_validation(self):
        with pytest.raises(ValueError):
            IORequest(offset=-1, length=10, kind="stream")
        with pytest.raises(ValueError):
            IORequest(offset=0, length=0, kind="stream")
        with pytest.raises(ValueError):
            selection_scan_pattern(0, 512, 128)


class TestReplay:
    def test_sequential_scan_near_streaming_bandwidth(self):
        pattern = selection_scan_pattern(50_000, 3000, chunk_records=4096)
        cost = replay(pattern)
        assert cost.random_requests == 1  # only the first request seeks
        assert cost.effective_throughput > 1.0e9

    def test_scattered_gather_slower_per_byte(self):
        """A 28% scattered gather moves bytes slower than a full scan."""
        rng = np.random.default_rng(0)
        n = 50_000
        scan = replay(selection_scan_pattern(n, 3000, 4096))
        picked = np.sort(rng.choice(n, size=int(0.28 * n), replace=False))
        gather = replay(subset_gather_pattern(picked, 3000))
        assert gather.effective_throughput < scan.effective_throughput
        assert gather.random_fraction > 0.5

    def test_gather_vs_scan_crossover_with_image_size(self):
        """Small images: page latency makes the 28% gather SLOWER than a
        full sequential scan.  Large images: the gather wins outright —
        the storage-level version of the paper's §4.4 observation."""
        rng = np.random.default_rng(1)
        results = {}
        for name, n, bpi in (("small", 50_000, 3_000), ("large", 130_000, 126_000)):
            scan = replay(selection_scan_pattern(n, bpi, 4096))
            picked = np.sort(rng.choice(n, size=int(0.28 * n), replace=False))
            gather = replay(subset_gather_pattern(picked, bpi))
            results[name] = (scan.total_time, gather.total_time)
        scan_s, gather_s = results["small"]
        assert gather_s > scan_s  # 3 KB images: gather loses
        scan_l, gather_l = results["large"]
        assert gather_l < scan_l  # 126 KB images: gather wins

    def test_contiguous_subset_gathers_faster_than_scattered(self):
        n = 50_000
        contiguous = np.arange(int(0.28 * n))
        rng = np.random.default_rng(2)
        scattered = np.sort(rng.choice(n, size=int(0.28 * n), replace=False))
        fast = replay(subset_gather_pattern(contiguous, 3000))
        slow = replay(subset_gather_pattern(scattered, 3000))
        assert fast.total_time < slow.total_time

    def test_trace_cost_accounting(self):
        pattern = AccessPattern()
        pattern.add(0, 1000, "stream")
        pattern.add(1000, 1000, "stream")  # sequential
        pattern.add(99_999_000, 1000, "gather")  # random
        cost = replay(pattern)
        assert cost.sequential_requests == 1
        assert cost.random_requests == 2  # first + the seek
        assert cost.total_bytes == 3000
