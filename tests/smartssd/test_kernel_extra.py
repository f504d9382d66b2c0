"""Additional kernel-model coverage: timing composition and scaling."""

import pytest

from repro.smartssd.kernel import KernelConfig, SelectionKernel


class TestKernelScaling:
    def test_more_pes_faster_forward(self):
        small = SelectionKernel(KernelConfig(mac_array_pes=256))
        large = SelectionKernel(KernelConfig(mac_array_pes=1024, pe_lut=200))
        assert large.forward_time(1000, 1e7) < small.forward_time(1000, 1e7)

    def test_more_lanes_faster_similarity(self):
        few = SelectionKernel(KernelConfig(similarity_lanes=4))
        many = SelectionKernel(KernelConfig(similarity_lanes=32))
        assert many.similarity_time(256, 10) < few.similarity_time(256, 10)

    def test_similarity_quadratic_in_chunk(self):
        k = SelectionKernel()
        t1 = k.similarity_time(100, 10)
        t2 = k.similarity_time(200, 10)
        assert t2 / t1 == pytest.approx(4.0)

    def test_greedy_linear_in_k(self):
        k = SelectionKernel()
        t1 = k.greedy_time(500, 10)
        t2 = k.greedy_time(500, 20)
        assert t2 / t1 == pytest.approx(2.0)

    def test_selection_time_accounts_all_chunks(self):
        k = SelectionKernel()
        one_chunk = k.selection_time(500, 1e6, 10, 100, chunk_size=500)
        many_chunks = k.selection_time(5000, 1e6, 10, 1000, chunk_size=500)
        assert many_chunks > one_chunk

    def test_chunk_clamped_to_capacity_and_pool(self):
        k = SelectionKernel()
        # chunk larger than capacity: silently clamped, not an error
        t = k.selection_time(100, 1e6, 10, 10, chunk_size=10_000)
        assert t > 0

    def test_zero_flops_selection_still_costs_similarity(self):
        k = SelectionKernel()
        t = k.selection_time(1000, 0.0, 10, 100, chunk_size=500)
        assert t > 0

    def test_single_dsp_rate_config(self):
        slow = SelectionKernel(KernelConfig(dsp_clock_multiple=1, int8_packing=1))
        fast = SelectionKernel()
        assert fast.macs_per_second == pytest.approx(4 * slow.macs_per_second)

    def test_bad_dsp_clock_rejected(self):
        with pytest.raises(ValueError):
            KernelConfig(dsp_clock_multiple=3)


class TestSimilarityMacCalibration:
    """The cycle model's MAC count: chunk² · d per chunk, on-chip chunks only."""

    def test_macs_scale_linearly_with_chunks(self):
        kernel = SelectionKernel()
        assert kernel.similarity_macs(64, 10, num_chunks=3) == \
            3 * kernel.similarity_macs(64, 10)

    def test_negative_work_rejected(self):
        with pytest.raises(ValueError):
            SelectionKernel().similarity_macs(-1, 10)
