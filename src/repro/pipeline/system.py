"""The composed SmartSSD+GPU training system (paper Figure 3), in time.

For one paper-scale dataset, :class:`SystemModel` prices an epoch of each
training strategy:

- **full** — conventional training: the whole dataset crosses the host
  interconnect every epoch, GPU computes every gradient.
- **craig** — CPU-side CRAIG: the whole pool still crosses to the host
  (proxies need a forward pass, run on the GPU as the reference
  implementation does), facility-location greedy runs on the CPU, then
  the weighted subset trains.
- **kcenters** — like craig, but the selection operates on penultimate
  embeddings (512-dim) with an O(N·k·d) farthest-point scan on the CPU,
  which is why it is the slowest method in Figure 4.
- **nessa** — near-storage: candidates stream SSD→FPGA over the on-board
  P2P link (never touching the host bus), the int8 kernel scores and
  selects them *overlapped with the GPU training on the previous
  subset*, and only the subset + the quantized-weight feedback cross the
  host interconnect.

Large images are scored at reduced resolution on the FPGA (thumbnails
stored alongside the full images) — the paper's own suitability argument
(Section 2.2: near-storage workloads must have *low operational
intensity*) requires the selection kernel to track the drive's bandwidth,
which a full-resolution ResNet-50 forward pass would not.
DESIGN.md documents this substitution.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import NeSSAConfig
from repro.data.registry import DATASETS, PaperDataset
from repro.perf.gpus import GPUSpec, v100
from repro.perf.timemodel import GPUComputeModel, HostIngestModel
from repro.selection.partition import subset_budget
from repro.smartssd.device import DataMovement, SmartSSD

__all__ = ["EpochTiming", "SystemModel", "average_speedups", "data_movement_summary"]

# Forward FLOPs per image of each Table 1 network at its dataset's input
# resolution, in the repo-wide convention of 2 FLOPs per multiply-add
# (exact counts from repro.perf.flops for the 32x32 models; 4x/49x
# resolution scaling for the 64- and 224-pixel datasets).
MODEL_FORWARD_FLOPS = {
    "cifar10": 82e6,  # ResNet-20 @ 32x32
    "svhn": 1.114e9,  # ResNet-18 @ 32x32
    "cinic10": 1.114e9,  # ResNet-18 @ 32x32
    "cifar100": 1.114e9,  # ResNet-18 @ 32x32
    "tinyimagenet": 4.46e9,  # ResNet-18 @ 64x64
    "imagenet100": 8.2e9,  # ResNet-50 @ 224x224
}

# Selection-side scoring resolution cap (pixels per side).  Images larger
# than this are scored from stored thumbnails, keeping the FPGA kernel's
# operational intensity low (see module docstring).
SELECTION_RESOLUTION = 64


@dataclass(frozen=True)
class EpochTiming:
    """One strategy's per-epoch time decomposition (a Figure 4 bar)."""

    method: str
    ingest_time: float  # storage -> host -> GPU for the trained data
    selection_time: float  # non-overlapped selection cost on the critical path
    compute_time: float  # GPU training compute
    feedback_time: float  # quantized-weight feedback transfer (NeSSA only)
    movement: DataMovement  # bytes ledger for the epoch

    @property
    def total(self) -> float:
        return self.ingest_time + self.selection_time + self.compute_time + self.feedback_time


class SystemModel:
    """Per-epoch timing + movement model for one paper-scale dataset."""

    def __init__(
        self,
        dataset: PaperDataset | str,
        gpu: GPUSpec | None = None,
        ssd: SmartSSD | None = None,
        cpu_gflops: float = 300.0,
        ingest: HostIngestModel | None = None,
        batch_size: int = 128,
    ):
        if isinstance(dataset, str):
            dataset = DATASETS[dataset]
        self.dataset = dataset
        self.gpu = gpu or v100()
        self.ssd = ssd or SmartSSD()
        self.cpu_flops = cpu_gflops * 1e9
        self.ingest = ingest or HostIngestModel()
        self.batch_size = batch_size
        self.forward_flops = MODEL_FORWARD_FLOPS[dataset.name]
        self.compute = GPUComputeModel(self.gpu)

    # -- shared pieces -----------------------------------------------------

    @property
    def pixels_per_image(self) -> int:
        c, h, w = self.dataset.image_shape
        return c * h * w

    @property
    def selection_flops(self) -> float:
        """Per-image FLOPs of the FPGA scoring pass (thumbnail-capped)."""
        _, h, _ = self.dataset.image_shape
        if h <= SELECTION_RESOLUTION:
            return self.forward_flops
        return self.forward_flops * (SELECTION_RESOLUTION / h) ** 2

    def _ingest_images(self, count: int) -> float:
        """Host-path ingest time for ``count`` training images."""
        compressed = self.dataset.bytes_per_image > 10_000
        return self.ingest.ingest_time(
            count, self.dataset.bytes_per_image, self.pixels_per_image, compressed
        )

    def _subset_size(self, subset_fraction: float | None, pool: int | None = None) -> int:
        """Images a selector trains at ``subset_fraction`` (``None``: the
        dataset's), drawn from a ``pool`` of candidates when given."""
        f = self.dataset.subset_fraction if subset_fraction is None else subset_fraction
        if not 0.0 < f <= 1.0:
            raise ValueError("subset_fraction must be in (0, 1]")
        return subset_budget(f, self.dataset.train_size, pool)

    def _train_time(self, count: int) -> float:
        return self.compute.epoch_compute_time(count, self.forward_flops)

    def _movement_through_host(self, nbytes: float) -> DataMovement:
        """Conventional-path ledger: bytes cross SSD→host and host→GPU."""
        return DataMovement(ssd_to_host=nbytes, host_to_gpu=nbytes)

    # -- strategies ---------------------------------------------------------

    def full_epoch(self) -> EpochTiming:
        """Conventional full-dataset training epoch."""
        n = self.dataset.train_size
        nbytes = float(self.dataset.total_bytes)
        return EpochTiming(
            method="full",
            ingest_time=self._ingest_images(n),
            selection_time=0.0,
            compute_time=self._train_time(n),
            feedback_time=0.0,
            movement=self._movement_through_host(nbytes),
        )

    def craig_epoch(self, subset_fraction: float | None = None) -> EpochTiming:
        """CPU-side CRAIG: full pool to host + GPU proxy pass + CPU greedy."""
        n = self.dataset.train_size
        k = self._subset_size(subset_fraction)
        # The whole pool crosses to the host for proxy computation.
        pool_ingest = self._ingest_images(n)
        # Proxy forward pass for the pool, on the GPU (reference CRAIG).
        proxy = self.compute.epoch_compute_time(n, self.forward_flops) / 3.0
        # Per-class facility-location greedy on the CPU, 10-dim proxies.
        per_class = n / max(1, self.dataset.num_classes)
        k_class = k / max(1, self.dataset.num_classes)
        greedy_flops = self.dataset.num_classes * (per_class * k_class * 10 * 2)
        select = proxy + greedy_flops / self.cpu_flops
        train = self._train_time(k)
        nbytes = float(self.dataset.total_bytes)
        return EpochTiming(
            method="craig",
            ingest_time=pool_ingest,
            selection_time=select,
            compute_time=train,
            feedback_time=0.0,
            movement=self._movement_through_host(nbytes),
        )

    def kcenters_epoch(self, subset_fraction: float | None = None) -> EpochTiming:
        """K-Centers: embedding pass + O(N·k·512) CPU farthest-point scan."""
        n = self.dataset.train_size
        k = self._subset_size(subset_fraction)
        pool_ingest = self._ingest_images(n)
        proxy = self.compute.epoch_compute_time(n, self.forward_flops) / 3.0
        scan_flops = float(n) * k * 512 * 2
        select = proxy + scan_flops / self.cpu_flops
        train = self._train_time(k)
        nbytes = float(self.dataset.total_bytes)
        return EpochTiming(
            method="kcenters",
            ingest_time=pool_ingest,
            selection_time=select,
            compute_time=train,
            feedback_time=0.0,
            movement=self._movement_through_host(nbytes),
        )

    def nessa_epoch(
        self,
        subset_fraction: float | None = None,
        pool_fraction: float = 1.0,
        feedback_bytes: float | None = None,
        refresh_period: int = NeSSAConfig.refresh_period,
    ) -> EpochTiming:
        """Near-storage NeSSA epoch.

        The FPGA kernel scores candidates from *cached penultimate
        embeddings* with the quantized classifier head (the low
        operational-intensity workload the paper's §2.2 suitability
        argument requires).  Every epoch it re-forwards, quantized, the
        ``1/refresh_period`` slice of the cache that is due, so each row is
        refreshed once every ``refresh_period`` epochs; the refresh, like
        the scoring, overlaps the GPU training of the current subset.
        ``refresh_period`` defaults to ``NeSSAConfig.refresh_period``, the
        period :class:`~repro.core.selector.NeSSASelector` runs, which
        refreshes the same rows.

        ``pool_fraction`` models subset biasing: the candidate pool the
        FPGA scores shrinks as learned samples are dropped (§3.2.2).
        The subset is drawn from that pool, so a pool smaller than the
        subset budget caps it.  Only the selected subset and the
        quantized-weight feedback cross the host interconnect.
        """
        if not 0.0 < pool_fraction <= 1.0:
            raise ValueError("pool_fraction must be in (0, 1]")
        if refresh_period < 1:
            raise ValueError("refresh_period must be >= 1")
        n = self.dataset.train_size
        pool = subset_budget(pool_fraction, n)
        k = self._subset_size(subset_fraction, pool)
        batch_bytes = self.batch_size * self.dataset.bytes_per_image
        d_emb = _embedding_dim(self.dataset.name)

        # The whole working set (int8 embedding cache + staging + weight
        # replica) must fit the FPGA's 4 GB DRAM; raises if it cannot.
        if feedback_bytes is None:
            feedback_bytes = _default_feedback_bytes(self.dataset.name)
        from repro.smartssd.dram import EmbeddingCache

        EmbeddingCache(self.ssd.fpga).plan(
            num_samples=pool,
            embedding_dim=d_emb,
            replica_bytes=float(feedback_bytes),
        )

        # Per-epoch scoring: stream int8 embeddings, apply the head, run
        # the per-chunk facility-location greedy.
        embedding_bytes = pool * float(d_emb)
        scoring = self.ssd.run_selection(
            num_candidates=pool,
            candidate_bytes=embedding_bytes,
            flops_per_sample=2.0 * d_emb * self.dataset.num_classes,
            proxy_dim=self.dataset.num_classes,
            subset_size=k,
            chunk_size=min(self.ssd.kernel.max_chunk_for_onchip(), 512),
            batch_bytes=batch_bytes,
        )

        # Embedding refresh, every epoch: a thumbnail-capped quantized
        # forward, streamed from flash over P2P, of the 1/refresh_period
        # slice of the pool that is due.
        refreshed = pool / refresh_period
        refresh_bytes = refreshed * float(self.dataset.bytes_per_image)
        _, h, _ = self.dataset.image_shape
        if h > SELECTION_RESOLUTION:
            refresh_bytes *= (SELECTION_RESOLUTION / h) ** 2
        refresh_stream = self.ssd.p2p_read_time(refresh_bytes, batch_bytes=batch_bytes)
        refresh_compute = self.ssd.kernel.forward_time(refreshed, self.selection_flops)
        refresh = max(refresh_stream, refresh_compute)

        device_selection = scoring.total_time + refresh

        # Subset crosses the host bus once; train it on the GPU.
        subset_bytes = k * float(self.dataset.bytes_per_image)
        subset_transfer = self.ssd.send_subset_to_host(subset_bytes, batch_bytes=batch_bytes)
        subset_decode = self._ingest_images(k) - k * self.dataset.bytes_per_image / (
            self.ingest.decode_bytes_per_s
            if self.dataset.bytes_per_image > 10_000
            else self.ingest.raw_bytes_per_s
        )
        # Host-side per-image handling still applies to the subset, but
        # the storage read happened device-side, so only transfer+collate.
        subset_ingest = subset_transfer + max(0.0, subset_decode)

        train = self._train_time(k)
        # Quantized-weight feedback (§3.2.1): int8 params + fp32 scales.
        feedback = self.ssd.receive_feedback(feedback_bytes)

        # Device-side selection of epoch t+1 overlaps GPU training of
        # epoch t; only the excess lands on the critical path.
        overlapped_selection = max(0.0, device_selection - train)

        movement = DataMovement(
            ssd_to_fpga=embedding_bytes + refresh_bytes,
            host_to_gpu=subset_bytes,
            host_to_fpga=float(feedback_bytes),
        )
        return EpochTiming(
            method="nessa",
            ingest_time=subset_ingest,
            selection_time=overlapped_selection,
            compute_time=train,
            feedback_time=feedback,
            movement=movement,
        )

    # -- energy (paper §2.2: 7.5 W FPGA vs 45 W K1200 / 250 W A100) ---------

    HOST_CPU_WATTS = 65.0

    def epoch_energy(self, timing: EpochTiming) -> float:
        """Joules for one epoch of a strategy.

        GPU burns its envelope during training compute; the host CPU
        during ingest and CPU-side selection; the FPGA during device-side
        selection (NeSSA's ``selection_time`` is the non-overlapped
        excess, so the overlapped part is charged alongside compute at
        the FPGA's 7.5 W — a conservative upper bound).
        """
        gpu_j = self.gpu.power_watts * timing.compute_time
        if timing.method == "nessa":
            fpga_busy = timing.compute_time + timing.selection_time
            device_j = self.ssd.fpga.power_watts * fpga_busy
            host_j = self.HOST_CPU_WATTS * timing.ingest_time
            return gpu_j + device_j + host_j
        host_j = self.HOST_CPU_WATTS * (timing.ingest_time + timing.selection_time)
        return gpu_j + host_j

    def energy_table(self, subset_fraction: float | None = None) -> dict:
        """Per-epoch energy of all four strategies (joules)."""
        return {
            name: self.epoch_energy(timing)
            for name, timing in self.epoch_table(subset_fraction).items()
        }

    # -- paper-level summaries ----------------------------------------------

    def epoch_table(self, subset_fraction: float | None = None) -> dict:
        """All four strategies priced for this dataset (Figure 4 bars)."""
        return {
            "full": self.full_epoch(),
            "craig": self.craig_epoch(subset_fraction),
            "kcenters": self.kcenters_epoch(subset_fraction),
            "nessa": self.nessa_epoch(subset_fraction),
        }

    def movement_reduction(self, pool_fraction: float = 0.7) -> float:
        """Host-interconnect bytes: full / NeSSA (the 3.47x claim's metric)."""
        full = self.full_epoch().movement.over_host_interconnect
        nessa = self.nessa_epoch(pool_fraction=pool_fraction).movement.over_host_interconnect
        return full / nessa

    def speedup(self, baseline: str = "full", pool_fraction: float = 0.7) -> float:
        """Per-epoch speedup of NeSSA over a baseline strategy."""
        table = {
            "full": self.full_epoch,
            "craig": self.craig_epoch,
            "kcenters": self.kcenters_epoch,
        }
        if baseline not in table:
            raise KeyError(f"unknown baseline {baseline!r}")
        base = table[baseline]().total
        nessa = self.nessa_epoch(pool_fraction=pool_fraction).total
        return base / nessa


def _embedding_dim(dataset_name: str) -> int:
    """Penultimate embedding width of each Table 1 network."""
    return {
        "cifar10": 64,  # ResNet-20
        "svhn": 512,  # ResNet-18
        "cinic10": 512,
        "cifar100": 512,
        "tinyimagenet": 512,
        "imagenet100": 2048,  # ResNet-50
    }[dataset_name]


def _default_feedback_bytes(dataset_name: str) -> float:
    """int8 payload of each Table 1 network's parameters."""
    params = {
        "cifar10": 0.27e6,  # ResNet-20
        "svhn": 11.2e6,  # ResNet-18
        "cinic10": 11.2e6,
        "cifar100": 11.2e6,
        "tinyimagenet": 11.3e6,
        "imagenet100": 25.6e6,  # ResNet-50
    }[dataset_name]
    return params  # one byte per int8 parameter


def average_speedups(
    datasets: list | None = None, pool_fraction: float = 0.7
) -> dict:
    """Cross-dataset average NeSSA speedups (the 5.37x / 4.3x / 8.1x claims)."""
    names = datasets or list(DATASETS)
    out = {"full": [], "craig": [], "kcenters": []}
    for name in names:
        model = SystemModel(name)
        for baseline in out:
            out[baseline].append(model.speedup(baseline, pool_fraction=pool_fraction))
    return {k: sum(v) / len(v) for k, v in out.items()}


def data_movement_summary(
    datasets: list | None = None, pool_fraction: float = 0.7
) -> dict:
    """Per-dataset and average host-bus data-movement reduction."""
    names = datasets or list(DATASETS)
    per = {name: SystemModel(name).movement_reduction(pool_fraction) for name in names}
    per["average"] = sum(per.values()) / len(names)
    return per
