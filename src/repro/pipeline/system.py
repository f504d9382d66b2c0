"""The composed SmartSSD+GPU training system (paper Figure 3), in time.

For one paper-scale dataset, :class:`SystemModel` prices an epoch of each
training strategy:

- **full** — conventional training: the whole dataset crosses the host
  interconnect every epoch, GPU computes every gradient.
- **craig** — CPU-side CRAIG: the whole pool still crosses to the host
  (proxies need a forward pass, run on the GPU as the reference
  implementation does), facility-location greedy runs on the CPU, then
  the weighted subset trains.
- **kcenters** — like craig, but the selection is an O(N·k·d)
  farthest-point scan on the CPU over the paper's 512-dim penultimate
  embeddings, which is why it is the slowest method in Figure 4.  The
  code's :class:`~repro.selection.kcenters.KCentersSelector` scans the
  ``num_classes``-dim gradient proxies instead (DESIGN §2); the model
  prices the paper's scan.
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

Each network's FLOPs, embedding width and feedback bytes are counted on
the ``repro.nn`` network the dataset names (DESIGN §2).
:class:`EpochTiming` is the one record of an epoch's modelled bytes.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass

from repro.core.config import NeSSAConfig
from repro.data.registry import DATASETS, PaperDataset
from repro.nn import resnet
from repro.nn.quantize import quantized_state_bytes
from repro.perf.flops import MODEL_ZOO, model_forward_flops
from repro.perf.gpus import v100
from repro.perf.timemodel import GPUComputeModel, HostIngestModel
from repro.selection.partition import subset_budget
from repro.smartssd.device import DataMovement, SmartSSD

__all__ = ["EpochTiming", "SystemModel", "average_speedups", "data_movement_summary"]

# Selection-side scoring resolution cap (pixels per side).  Images larger
# than this are scored from stored thumbnails, keeping the FPGA kernel's
# operational intensity low (see module docstring).
SELECTION_RESOLUTION = 64

@functools.cache
def _network_costs(model: str, num_classes: int, image_shape: tuple) -> tuple[float, int, int]:
    """Forward FLOPs per image, embedding width and feedback bytes of a
    Table 1 network, counted on its ``repro.nn`` builder at the default
    width.

    Each count is a polynomial of degree at most 2 in the builder's
    ``width`` (conv weights and MACs grow with its square; BatchNorm,
    scales, activations and the head with it), so three narrow builds at
    widths 1, 2 and 3 fix it exactly at the default width without drawing
    the paper-width weights.  Feedback bytes are what ``FeedbackLoop.sync``
    charges.  The code's ResNets have the CIFAR 3x3 stem, the paper's
    network up to 64 px; at 224 px one walks to ~128 GFLOPs, not the
    ImageNet ResNet-50's 8.2, so larger inputs price the published forward
    that Figure 1 plots (``MODEL_ZOO`` counts GMACs, 2 FLOPs each).
    """
    builder = getattr(resnet, model)
    width = inspect.signature(builder).parameters["width"].default
    counted = image_shape[1] <= 64
    samples = []
    for w in (1, 2, 3):
        net = builder(num_classes, width=w)
        flops = model_forward_flops(net, image_shape) if counted else 0.0
        samples.append((flops, net.embedding_dim, quantized_state_bytes(net)))
    # The Lagrange basis on the nodes 1, 2, 3 at ``width``: integers, so
    # the integer counts come out exact.
    basis = (
        (width - 2) * (width - 3) // 2, -(width - 1) * (width - 3), (width - 1) * (width - 2) // 2
    )
    flops, dim, feedback = (sum(b * c for b, c in zip(basis, col)) for col in zip(*samples))
    if not counted:
        flops = 2e9 * next(zoo for zoo in MODEL_ZOO if zoo.name == model).gflops_per_image
    return flops, dim, feedback


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

    CPU_FLOPS = 300e9  # host CPU running CRAIG / K-Centers selection
    BATCH_SIZE = 128  # images per device-to-host transfer request

    def __init__(self, dataset: PaperDataset | str):
        if isinstance(dataset, str):
            dataset = DATASETS[dataset]
        self.dataset = dataset
        self.gpu = v100()
        self.ssd = SmartSSD()
        self.ingest = HostIngestModel()
        self.compute = GPUComputeModel(self.gpu)
        self.forward_flops, self.embedding_dim, self.feedback_bytes = _network_costs(
            dataset.model, dataset.num_classes, dataset.image_shape
        )

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

    @property
    def compressed(self) -> bool:
        """Large images are stored compressed and decoded on ingest."""
        return self.dataset.bytes_per_image > 10_000

    def _ingest_images(self, count: int) -> float:
        """Host-path ingest time for ``count`` training images."""
        return self.ingest.ingest_time(
            count, self.dataset.bytes_per_image, self.pixels_per_image, self.compressed
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
        select = proxy + greedy_flops / self.CPU_FLOPS
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
        select = proxy + scan_flops / self.CPU_FLOPS
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
        batch_bytes = self.BATCH_SIZE * self.dataset.bytes_per_image

        # The whole working set (int8 embedding cache + staging + weight
        # replica) must fit the FPGA's 4 GB DRAM; raises if it cannot.
        if feedback_bytes is None:
            feedback_bytes = self.feedback_bytes
        from repro.smartssd.dram import EmbeddingCache

        EmbeddingCache(self.ssd.fpga).plan(
            num_samples=pool,
            embedding_dim=self.embedding_dim,
            replica_bytes=float(feedback_bytes),
        )

        # Per-epoch scoring: stream int8 embeddings, apply the head, run
        # the per-chunk facility-location greedy.
        embedding_bytes = pool * float(self.embedding_dim)
        scoring = self.ssd.run_selection(
            num_candidates=pool,
            candidate_bytes=embedding_bytes,
            flops_per_sample=2.0 * self.embedding_dim * self.dataset.num_classes,
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
            self.ingest.decode_bytes_per_s if self.compressed else self.ingest.raw_bytes_per_s
        )
        # Host-side per-image handling still applies to the subset, but
        # the storage read happened device-side, so only transfer+collate.
        subset_ingest = subset_transfer + max(0.0, subset_decode)

        train = self._train_time(k)
        # Quantized-weight feedback (§3.2.1), as `FeedbackLoop.sync` charges it.
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
