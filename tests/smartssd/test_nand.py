"""Tests for the NAND flash model."""

import pytest

from repro.smartssd.nand import NANDFlash


class TestNANDFlash:
    def test_capacity_is_3_84_tb(self):
        assert NANDFlash().capacity_bytes == pytest.approx(3.84e12)

    def test_store_tracks_utilization(self):
        nand = NANDFlash()
        nand.store(1.92e12)
        assert nand.utilization == pytest.approx(0.5)

    def test_store_over_capacity_raises(self):
        nand = NANDFlash()
        with pytest.raises(ValueError):
            nand.store(4e12)

    def test_free_releases(self):
        nand = NANDFlash()
        nand.store(1e12)
        nand.free(1e12)
        assert nand.used_bytes == 0.0
        with pytest.raises(ValueError):
            nand.free(1.0)

    def test_sequential_read_hits_bandwidth_ceiling(self):
        nand = NANDFlash()
        t = nand.read_time(3e9, sequential=True)
        assert t == pytest.approx(1.0, rel=0.01)  # 3 GB at 3 GB/s

    def test_random_read_latency_bound_for_small_io(self):
        nand = NANDFlash()
        seq = nand.read_time(16 * 1024, sequential=True)
        rnd = nand.read_time(16 * 1024, sequential=False)
        assert rnd >= seq

    def test_zero_bytes_is_free(self):
        assert NANDFlash().read_time(0) == 0.0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            NANDFlash().read_time(-1)

    def test_paper_datasets_all_fit(self):
        """All six Table 1 datasets fit on one 3.84 TB drive together."""
        from repro.data.registry import DATASETS

        nand = NANDFlash()
        for info in DATASETS.values():
            nand.store(info.total_bytes)
        assert nand.utilization < 0.05  # they're tiny next to 3.84 TB
