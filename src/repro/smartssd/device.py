"""The composed SmartSSD device, and the record of where an epoch's bytes go.

:class:`SmartSSD` wires the NAND array, the KU15P kernel and the two links
together and answers the questions the pipeline asks:

- how long does it take to stream the candidate pool from flash into the
  FPGA over P2P (overlapped with the kernel's forward pass)?
- how long does one near-storage selection round take?

Pricing a transfer has no side effect: the device keeps no byte count.
:class:`DataMovement` records which boundary an epoch's bytes cross, and
:class:`~repro.pipeline.system.SystemModel` fills one per priced epoch
(the record behind the paper's 3.47x data-movement-reduction claim).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.smartssd.fpga import FPGASpec, KU15P
from repro.smartssd.kernel import KernelConfig, SelectionKernel
from repro.smartssd.link import LinkModel, host_path_link, p2p_link
from repro.smartssd.nand import NANDFlash

__all__ = ["DataMovement", "SmartSSD", "SelectionTiming"]


@dataclass
class DataMovement:
    """Byte counters per boundary crossed."""

    ssd_to_fpga: float = 0.0  # on-board P2P (does not cross the host bus)
    ssd_to_host: float = 0.0  # conventional path reads
    host_to_gpu: float = 0.0  # training data + subsets up to the GPU
    host_to_fpga: float = 0.0  # quantized weight feedback

    @property
    def over_host_interconnect(self) -> float:
        """Bytes delivered to compute devices over the host PCIe fabric.

        This is the paper's "data movement" metric: training data arriving
        at the GPU plus feedback arriving at the FPGA.  On-board P2P
        traffic never touches the host fabric and doesn't count; the
        SSD→host staging copy of the conventional path is bookkept in
        ``ssd_to_host`` but the delivered bytes are what both the paper's
        |V|/|S| argument and its 3.47x claim measure.
        """
        return self.host_to_gpu + self.host_to_fpga

    @property
    def total(self) -> float:
        return self.ssd_to_fpga + self.over_host_interconnect

    def merged(self, other: "DataMovement") -> "DataMovement":
        return DataMovement(
            self.ssd_to_fpga + other.ssd_to_fpga,
            self.ssd_to_host + other.ssd_to_host,
            self.host_to_gpu + other.host_to_gpu,
            self.host_to_fpga + other.host_to_fpga,
        )


@dataclass(frozen=True)
class SelectionTiming:
    """Breakdown of one near-storage selection round."""

    stream_time: float  # SSD → FPGA candidate streaming (P2P)
    kernel_time: float  # forward + similarity + greedy on the FPGA
    total_time: float  # with streaming overlapped against compute


class SmartSSD:
    """One SmartSSD: 3.84 TB NAND + KU15P + P2P link, plus the host path."""

    def __init__(
        self,
        nand: NANDFlash | None = None,
        fpga: FPGASpec | None = None,
        kernel_config: KernelConfig | None = None,
    ):
        self.nand = nand or NANDFlash()
        self.fpga = fpga or KU15P()
        self.kernel = SelectionKernel(kernel_config, self.fpga)
        self.p2p = p2p_link()
        self.host_path = host_path_link()

    def store_dataset(self, nbytes: float) -> None:
        """Write a training set to the drive (capacity-checked)."""
        self.nand.store(nbytes)

    def p2p_read_time(self, nbytes: float, batch_bytes: float | None = None) -> float:
        """Stream ``nbytes`` from flash to the FPGA over the on-board link.

        ``batch_bytes`` sets the per-request transfer size (Figure 6's
        x-axis); the flash array and the link pipeline, so the slower of
        the two bounds throughput.
        """
        requests = 1 if not batch_bytes else max(1, int(-(-nbytes // batch_bytes)))
        link_time = self.p2p.transfer_time(nbytes, requests=requests)
        flash_time = self.nand.read_time(nbytes, sequential=True)
        return max(link_time, flash_time)

    def host_read_time(self, nbytes: float, batch_bytes: float | None = None) -> float:
        """Conventional path: flash → host DRAM (counts as host-bus traffic)."""
        requests = 1 if not batch_bytes else max(1, int(-(-nbytes // batch_bytes)))
        link_time = self.host_path.transfer_time(nbytes, requests=requests)
        flash_time = self.nand.read_time(nbytes, sequential=True)
        return max(link_time, flash_time)

    def effective_p2p_throughput(self, batch_bytes: float) -> float:
        """Figure 6 metric: achieved SSD↔FPGA B/s at a given batch size."""
        return self.p2p.effective_throughput(batch_bytes)

    def run_selection(
        self,
        num_candidates: int,
        candidate_bytes: float,
        flops_per_sample: float,
        proxy_dim: int,
        subset_size: int,
        chunk_size: int,
        batch_bytes: float | None = None,
    ) -> SelectionTiming:
        """One near-storage selection round (steps 1-2 of paper Figure 3).

        Candidate streaming from flash overlaps the kernel's compute
        pipeline, so the round takes ``max(stream, kernel)`` plus one
        batch of fill latency.
        """
        stream = self.p2p_read_time(candidate_bytes, batch_bytes=batch_bytes)
        kernel = self.kernel.selection_time(
            num_candidates, flops_per_sample, proxy_dim, subset_size, chunk_size
        )
        fill = self.p2p.request_latency_s
        total = max(stream, kernel) + fill
        return SelectionTiming(stream_time=stream, kernel_time=kernel, total_time=total)

    def receive_feedback(self, nbytes: float) -> float:
        """Host → FPGA quantized-weight feedback transfer (§3.2.1)."""
        return self.host_path.transfer_time(nbytes)

    def send_subset_to_host(self, nbytes: float, batch_bytes: float | None = None) -> float:
        """Selected subset leaves the device for the GPU (host-bus traffic)."""
        requests = 1 if not batch_bytes else max(1, int(-(-nbytes // batch_bytes)))
        return self.host_path.transfer_time(nbytes, requests=requests)
