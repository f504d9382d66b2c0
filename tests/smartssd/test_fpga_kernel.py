"""Tests for the FPGA model and the selection kernel (Table 4)."""

import pytest

from repro.smartssd.fpga import KU15P, FPGASpec
from repro.smartssd.kernel import KernelConfig, SelectionKernel


class TestFPGASpec:
    def test_ku15p_matches_table4_available_column(self):
        fpga = KU15P()
        assert fpga.luts == 432_000
        assert fpga.flip_flops == 919_000
        assert fpga.bram_blocks == 738
        assert fpga.dsp_slices == 1962

    def test_onchip_memory_is_4_32mb(self):
        """Section 3.2.3 quotes 4.32 MB of on-chip memory."""
        assert KU15P().onchip_bytes == pytest.approx(4.32e6)

    def test_power_envelope_7_5w(self):
        """Section 2.2: 'low-power FPGA ... approx. 7.5W'."""
        assert KU15P().power_watts == pytest.approx(7.5)

    def test_dram_4gb(self):
        assert KU15P().dram_bytes == pytest.approx(4e9)

    def test_utilization_math(self):
        fpga = KU15P()
        out = fpga.utilization({"LUT": 216_000})
        assert out["LUT"] == pytest.approx(50.0)

    def test_over_budget_raises(self):
        with pytest.raises(ValueError):
            KU15P().utilization({"DSP": 99_999})

    def test_unknown_resource_raises(self):
        with pytest.raises(KeyError):
            KU15P().utilization({"URAM": 1})


class TestSelectionKernelResources:
    def test_utilization_matches_table4(self):
        """Paper Table 4: LUT 67.53, FF 23.14, BRAM 50.30, DSP 42.67 (%)."""
        util = SelectionKernel().utilization_percent()
        assert util["LUT"] == pytest.approx(67.53, abs=1.0)
        assert util["FF"] == pytest.approx(23.14, abs=1.0)
        assert util["BRAM"] == pytest.approx(50.30, abs=1.0)
        assert util["DSP"] == pytest.approx(42.67, abs=1.0)

    def test_everything_fits(self):
        util = SelectionKernel().utilization_percent()
        assert all(v <= 100.0 for v in util.values())

    def test_oversized_kernel_fails_at_construction(self):
        with pytest.raises(ValueError):
            SelectionKernel(KernelConfig(mac_array_pes=5000))

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            KernelConfig(mac_array_pes=0)
        with pytest.raises(ValueError):
            KernelConfig(int8_packing=3)


class TestSelectionKernelTiming:
    def test_forward_time_scales_linearly(self):
        k = SelectionKernel()
        t1 = k.forward_time(1000, 40e6)
        t2 = k.forward_time(2000, 40e6)
        assert t2 == pytest.approx(2 * t1)

    def test_mac_throughput_positive_and_bounded(self):
        k = SelectionKernel()
        # 784 PEs x 2 packing x 2 pumping x 200 MHz = 627 GMAC/s.
        assert k.macs_per_second == pytest.approx(627.2e9, rel=0.01)

    def test_similarity_respects_chunk_capacity(self):
        k = SelectionKernel()
        with pytest.raises(ValueError):
            k.similarity_time(chunk_size=10_000, proxy_dim=10)

    def test_max_chunk_fits_onchip(self):
        k = SelectionKernel()
        side = k.max_chunk_for_onchip()
        assert k.chunk_tile_bytes(side) <= k.fpga.onchip_bytes

    def test_selection_time_composes(self):
        k = SelectionKernel()
        t = k.selection_time(
            num_candidates=10_000,
            flops_per_sample=1e6,
            proxy_dim=10,
            subset_size=3_000,
            chunk_size=500,
        )
        assert t > k.forward_time(10_000, 1e6)

    def test_negative_work_rejected(self):
        k = SelectionKernel()
        with pytest.raises(ValueError):
            k.forward_time(-1, 1e6)
