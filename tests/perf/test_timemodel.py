"""Tests for GPU specs and the epoch-time decomposition (Figure 2 anchors)."""

import pytest

from repro.perf.gpus import GPUSpec, a100, k1200, v100
from repro.perf.timemodel import (
    EpochBreakdown,
    GPUComputeModel,
    HostIngestModel,
    epoch_time_breakdown,
)


class TestGPUSpecs:
    def test_catalogue_values(self):
        assert v100().fp32_tflops == pytest.approx(14.0)
        assert a100().power_watts == pytest.approx(250.0)  # paper Section 2.2
        assert k1200().power_watts == pytest.approx(45.0)  # paper Section 2.2

    def test_fpga_energy_advantage(self):
        """Section 2.2: the 7.5 W FPGA vs 45 W K1200 and 250 W A100."""
        from repro.smartssd.fpga import KU15P

        fpga = KU15P()
        assert fpga.power_watts < k1200().power_watts < a100().power_watts

    def test_utilization_grows_with_model_size(self):
        gpu = v100()
        assert gpu.utilization(4e6) < gpu.utilization(4e9)
        assert gpu.utilization(4e9) <= gpu.max_utilization

    def test_effective_tflops_mixed_precision(self):
        gpu = a100()
        fp32 = gpu.effective_tflops(10e9, mixed_precision=False)
        amp = gpu.effective_tflops(10e9, mixed_precision=True)
        assert amp > fp32

    def test_k1200_has_no_tensor_cores(self):
        gpu = k1200()
        assert gpu.effective_tflops(1e9, mixed_precision=True) == pytest.approx(
            gpu.effective_tflops(1e9, mixed_precision=False)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            GPUSpec("bad", fp32_tflops=0.0, tensor_tflops=0, memory_bandwidth_gbps=1, power_watts=1)
        with pytest.raises(ValueError):
            v100().utilization(0.0)


class TestHostIngest:
    def test_compressed_slower_than_raw(self):
        m = HostIngestModel()
        raw = m.ingest_time(1000, 126_000, 150_528, compressed=False)
        jpeg = m.ingest_time(1000, 126_000, 150_528, compressed=True)
        assert jpeg > raw

    def test_scales_with_count(self):
        m = HostIngestModel()
        t1 = m.ingest_time(1000, 3000, 3072, False)
        t2 = m.ingest_time(2000, 3000, 3072, False)
        assert t2 == pytest.approx(2 * t1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            HostIngestModel().ingest_time(-1, 10, 10, False)


class TestFigure2Anchors:
    """The paper's published data-movement shares (Section 1)."""

    def test_mnist_movement_share_near_5_4_percent(self):
        bd = epoch_time_breakdown(60_000, 500, 784, 8.4e6, v100(), compressed=False)
        assert bd.movement_fraction * 100 == pytest.approx(5.4, abs=2.5)

    def test_imagenet100_movement_share_near_40_4_percent(self):
        bd = epoch_time_breakdown(130_000, 126_000, 150_528, 8.2e9, v100(), compressed=True)
        assert bd.movement_fraction * 100 == pytest.approx(40.4, abs=5.0)

    def test_movement_share_grows_with_dataset(self):
        """'As the dataset size increases ... from 5.4% to 40.4%'."""
        mnist = epoch_time_breakdown(60_000, 500, 784, 8.4e6, v100(), compressed=False)
        inet = epoch_time_breakdown(130_000, 126_000, 150_528, 8.2e9, v100(), compressed=True)
        assert inet.movement_fraction > 4 * mnist.movement_fraction

    def test_breakdown_total(self):
        bd = EpochBreakdown(ingest_time=1.0, compute_time=3.0)
        assert bd.total == pytest.approx(4.0)
        assert bd.movement_fraction == pytest.approx(0.25)

    def test_empty_epoch_fraction_zero(self):
        assert EpochBreakdown(0.0, 0.0).movement_fraction == 0.0


class TestComputeModel:
    def test_epoch_time_scales_with_images(self):
        m = GPUComputeModel(v100())
        assert m.epoch_compute_time(2000, 1e9) == pytest.approx(
            2 * m.epoch_compute_time(1000, 1e9)
        )

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            GPUComputeModel(v100()).epoch_compute_time(-1, 1e9)
