"""Storage access patterns: the I/O NeSSA training generates.

A selection round streams the candidate pool *sequentially* (embeddings
laid out contiguously); shipping the chosen subset to the GPU, however,
gathers *scattered* images — the medoids land anywhere in the dataset's
on-flash layout.  This module makes those patterns explicit:

- :class:`AccessPattern` — an ordered list of ``(offset, length, kind)``
  requests;
- :func:`selection_scan_pattern` / :func:`subset_gather_pattern` — build
  the two phases' patterns from a selection result;
- :func:`replay` — price a pattern against the NAND + link models,
  classifying each request as sequential or random by its distance from
  the previous request.

The gather-vs-stream asymmetry is measurable and crosses over with image
size: for 3 KB CIFAR images a 28% scattered gather costs *more wall
clock* than scanning the whole set sequentially (page-read latency
dominates sub-page images), while for 126 KB ImageNet-100 images the
gather wins outright.  This is the storage-level reason the paper's
"storage-assisted training becomes more effective as dataset and image
sizes increase" (§4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.smartssd.link import LinkModel, p2p_link
from repro.smartssd.nand import NANDFlash

__all__ = [
    "IORequest",
    "AccessPattern",
    "ReplayCost",
    "selection_scan_pattern",
    "subset_gather_pattern",
    "replay",
]


@dataclass(frozen=True)
class IORequest:
    """One storage request.

    ``contiguous`` distinguishes a linear extent read from a
    scatter-gather batch (many non-adjacent images fetched as one logical
    request, the SmartSSD's 128-image transfer unit).
    """

    offset: int  # byte offset on flash (start of the extent / first image)
    length: int  # bytes
    kind: str  # "stream" | "gather" | "feedback"
    contiguous: bool = True
    fragments: int = 1  # discontiguous pieces (scatter-gather batches > 1)

    def __post_init__(self):
        if self.offset < 0 or self.length <= 0:
            raise ValueError("invalid request geometry")
        if self.fragments < 1:
            raise ValueError("fragments must be >= 1")


@dataclass
class AccessPattern:
    """An ordered request sequence."""

    requests: list = field(default_factory=list)

    def add(
        self,
        offset: int,
        length: int,
        kind: str,
        contiguous: bool = True,
        fragments: int = 1,
    ) -> None:
        self.requests.append(IORequest(offset, length, kind, contiguous, fragments))

    @property
    def total_bytes(self) -> int:
        return sum(r.length for r in self.requests)

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self):
        return iter(self.requests)


@dataclass(frozen=True)
class ReplayCost:
    """Replay outcome."""

    total_time: float
    sequential_requests: int
    random_requests: int
    total_bytes: int

    @property
    def effective_throughput(self) -> float:
        if self.total_time == 0:
            return 0.0
        return self.total_bytes / self.total_time

    @property
    def random_fraction(self) -> float:
        n = self.sequential_requests + self.random_requests
        return self.random_requests / n if n else 0.0


def selection_scan_pattern(
    num_candidates: int,
    bytes_per_record: int,
    chunk_records: int,
    base_offset: int = 0,
) -> AccessPattern:
    """Sequential chunked scan of the candidate pool (selection phase)."""
    if num_candidates < 1 or bytes_per_record < 1 or chunk_records < 1:
        raise ValueError("invalid pattern parameters")
    pattern = AccessPattern()
    offset = base_offset
    remaining = num_candidates
    while remaining > 0:
        take = min(chunk_records, remaining)
        pattern.add(offset, take * bytes_per_record, "stream")
        offset += take * bytes_per_record
        remaining -= take
    return pattern


def subset_gather_pattern(
    selected_positions: np.ndarray,
    bytes_per_image: int,
    batch_images: int = 128,
    base_offset: int = 0,
) -> AccessPattern:
    """Gather of the selected images as scatter-gather batches.

    The SmartSSD ships the subset in batches of ``batch_images`` (the
    paper profiles 128-image transfers in Figure 6); within a batch the
    images are non-adjacent on flash, so the request is marked
    non-contiguous — the replay prices it via the flash's channel-parallel
    random-read path.  A batch whose images happen to form one run is
    marked contiguous (the firmware merges adjacent LBAs).
    """
    if bytes_per_image < 1 or batch_images < 1:
        raise ValueError("invalid pattern parameters")
    positions = np.sort(np.asarray(selected_positions, dtype=np.int64))
    if len(positions) == 0:
        return AccessPattern()

    pattern = AccessPattern()
    for start in range(0, len(positions), batch_images):
        batch = positions[start : start + batch_images]
        is_run = len(batch) == batch[-1] - batch[0] + 1
        pattern.add(
            base_offset + int(batch[0]) * bytes_per_image,
            len(batch) * bytes_per_image,
            "gather",
            contiguous=bool(is_run),
            fragments=1 if is_run else len(batch),
        )
    return pattern


def replay(
    pattern: AccessPattern,
    nand: NANDFlash | None = None,
    link: LinkModel | None = None,
    sequential_gap: int = 0,
) -> ReplayCost:
    """Price a pattern: flash read + link transfer per request, serialized.

    A request is *sequential* when it starts exactly where the previous
    one ended (within ``sequential_gap`` bytes); sequential requests hit
    the flash's streaming path, random ones its page-latency path.
    """
    nand = nand or NANDFlash()
    link = link or p2p_link()

    with obs.span("io_replay", requests=len(pattern)) as sp:
        total = 0.0
        seq = rnd = 0
        prev_end = None
        for request in pattern:
            adjacent = (
                prev_end is not None
                and 0 <= request.offset - prev_end <= sequential_gap
            )
            is_seq = adjacent and request.contiguous
            if is_seq:
                seq += 1
            else:
                rnd += 1
            flash = nand.read_time(
                request.length, sequential=is_seq, fragments=request.fragments
            )
            wire = link.transfer_time(request.length)
            total += max(flash, wire - link.request_latency_s) + link.request_latency_s
            prev_end = request.offset + request.length
        # replayed_bytes are *simulated* flash traffic, not host-link
        # movement — a distinct attr keeps them out of the report's
        # data-moved reconciliation.
        sp.set(
            replayed_bytes=int(pattern.total_bytes),
            simulated_s=total,
            sequential=seq,
            random=rnd,
        )
    return ReplayCost(
        total_time=total,
        sequential_requests=seq,
        random_requests=rnd,
        total_bytes=pattern.total_bytes,
    )
