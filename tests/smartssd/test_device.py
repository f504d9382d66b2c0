"""Tests for the composed SmartSSD device and its movement ledger."""

import pytest

from repro.smartssd.device import DataMovement, SmartSSD


class TestDataMovement:
    def test_interconnect_counts_delivered_bytes_only(self):
        m = DataMovement(ssd_to_fpga=100, ssd_to_host=50, host_to_gpu=30, host_to_fpga=5)
        assert m.over_host_interconnect == 35  # P2P and staging don't count
        assert m.total == 135

    def test_merge(self):
        a = DataMovement(1, 2, 3, 4)
        b = DataMovement(10, 20, 30, 40)
        m = a.merged(b)
        assert (m.ssd_to_fpga, m.ssd_to_host, m.host_to_gpu, m.host_to_fpga) == (
            11,
            22,
            33,
            44,
        )


class TestSmartSSD:
    def test_p2p_faster_than_host_path(self):
        ssd = SmartSSD()
        nbytes = 1e9
        assert ssd.p2p_read_time(nbytes) < ssd.host_read_time(nbytes)

    def test_movement_ledger_tracks_reads(self):
        ssd = SmartSSD()
        ssd.p2p_read_time(1000)
        ssd.host_read_time(500)
        ssd.send_subset_to_host(200)
        ssd.receive_feedback(10)
        m = ssd.movement
        assert m.ssd_to_fpga == 1000
        assert m.ssd_to_host == 500
        assert m.host_to_gpu == 200
        assert m.host_to_fpga == 10

    def test_reset_movement_returns_and_clears(self):
        ssd = SmartSSD()
        ssd.p2p_read_time(100)
        ledger = ssd.reset_movement()
        assert ledger.ssd_to_fpga == 100
        assert ssd.movement.ssd_to_fpga == 0

    def test_batched_transfers_pay_per_request_latency(self):
        ssd = SmartSSD()
        one_shot = ssd.p2p_read_time(1e8)
        many = ssd.p2p_read_time(1e8, batch_bytes=1e6)  # 100 requests
        assert many > one_shot

    def test_effective_throughput_fig6_metric(self):
        ssd = SmartSSD()
        small = ssd.effective_p2p_throughput(128 * 3_000)
        large = ssd.effective_p2p_throughput(128 * 126_000)
        assert small < large

    def test_store_dataset_capacity_checked(self):
        ssd = SmartSSD()
        ssd.store_dataset(1e12)
        with pytest.raises(ValueError):
            ssd.store_dataset(3e12)

    def test_run_selection_overlaps_stream_and_kernel(self):
        """Streaming overlaps the kernel: one round is the slower of the two
        plus one request of pipeline fill, in a kernel-bound and a
        stream-bound round alike."""
        for candidate_bytes, flops, bound in ((30e6, 1e5, "kernel"), (3e9, 1e2, "stream")):
            ssd = SmartSSD()
            t = ssd.run_selection(
                num_candidates=10_000,
                candidate_bytes=candidate_bytes,
                flops_per_sample=flops,
                proxy_dim=10,
                subset_size=3_000,
                chunk_size=500,
            )
            stream = SmartSSD().p2p_read_time(candidate_bytes)
            kernel = ssd.kernel.selection_time(10_000, flops, 10, 3_000, 500)
            fill = ssd.p2p.request_latency_s
            assert (t.stream_time, t.kernel_time) == (stream, kernel)
            assert (kernel > stream) == (bound == "kernel")
            assert t.total_time == max(stream, kernel) + fill
            assert t.total_time <= stream + kernel + fill
            assert t.energy_joules == pytest.approx(t.total_time * 7.5)

    def test_selection_charges_p2p_not_host(self):
        ssd = SmartSSD()
        ssd.run_selection(
            num_candidates=1_000,
            candidate_bytes=3e6,
            flops_per_sample=1e5,
            proxy_dim=10,
            subset_size=300,
            chunk_size=256,
        )
        assert ssd.movement.ssd_to_fpga == pytest.approx(3e6)
        assert ssd.movement.over_host_interconnect == 0
