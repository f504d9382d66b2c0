"""Dataset partitioning for on-chip-memory-bounded selection (paper §3.2.3).

The pairwise-similarity matrix of a whole class does not fit in the
SmartSSD FPGA's 4.32 MB of on-chip memory once classes grow past a few
thousand samples.  The paper's fix: randomly partition the candidate pool
into chunks, select a small subset from each chunk, and concatenate.  For
mini-batch size ``m`` and target subset size ``k`` out of ``N`` points, the
paper uses ``k/m`` chunks with ``m`` selected per chunk.

Besides fitting memory, partitioning drops the selection cost from
O(N²) to O(N²·m/k) similarity evaluations.  Rounds are planned by
:func:`repro.parallel.scheduler.plan_selection_round`; this module holds
the chunker and per-chunk quota planner it uses and the tile-size
accounting.  The dependency runs one way: ``repro.parallel`` imports
this module, and nothing in ``repro.selection`` imports ``repro.parallel``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "partition_positions",
    "plan_chunk_takes",
    "chunk_pairwise_bytes",
]


def partition_positions(
    n: int,
    num_chunks: int,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Randomly partition ``range(n)`` into ``num_chunks`` near-equal chunks."""
    if num_chunks < 1:
        raise ValueError("num_chunks must be >= 1")
    num_chunks = min(num_chunks, n) if n else 1
    perm = rng.permutation(n)
    return [np.sort(chunk) for chunk in np.array_split(perm, num_chunks)]


def chunk_pairwise_bytes(chunk_size: int) -> int:
    """On-chip bytes required for one chunk's similarity matrix.

    The one definition of the similarity-entry width: the FPGA kernel's
    fp32 tile, 4 bytes per entry.
    """
    return chunk_size * chunk_size * 4


def plan_chunk_takes(chunk_sizes: list[int], k: int, chunk_select: int) -> list[int]:
    """Per-chunk selection counts summing to exactly ``min(k, sum(sizes))``.

    The paper's convention asks every chunk for ``m = chunk_select``
    picks, but when ``k`` is not divisible by ``m`` — or when biasing
    drops have left a chunk with fewer candidates than its quota — the
    naive "last chunk absorbs the remainder" accounting can ask a chunk
    for more picks than it has candidates.  This planner clamps each
    chunk to its population and re-spreads any shortfall
    deterministically (round-robin in chunk order over chunks with spare
    capacity), so the total is exact for *any* size distribution and
    independent of execution order.
    """
    if chunk_select < 1:
        raise ValueError("chunk_select must be >= 1")
    if any(s < 0 for s in chunk_sizes):
        raise ValueError("chunk sizes must be non-negative")
    k = min(k, int(sum(chunk_sizes)))
    if k <= 0 or not chunk_sizes:
        return [0] * len(chunk_sizes)

    takes = []
    remaining = k
    for i, size in enumerate(chunk_sizes):
        quota = remaining if i == len(chunk_sizes) - 1 else min(chunk_select, remaining)
        take = min(quota, size)
        takes.append(take)
        remaining -= take
    # Re-spread any shortfall over chunks that still have candidates.
    while remaining > 0:
        spread = False
        for i, size in enumerate(chunk_sizes):
            if remaining > 0 and takes[i] < size:
                takes[i] += 1
                remaining -= 1
                spread = True
        if not spread:  # pragma: no cover - k is clamped to sum(sizes)
            break
    return takes

