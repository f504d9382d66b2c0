"""Dataset partitioning for on-chip-memory-bounded selection (paper §3.2.3).

The pairwise-similarity matrix of a whole class does not fit in the
SmartSSD FPGA's 4.32 MB of on-chip memory once classes grow past a few
thousand samples.  The paper's fix: randomly partition the candidate pool
into chunks, select a small subset from each chunk, and concatenate.  For
mini-batch size ``m`` and target subset size ``k`` out of ``N`` points, the
paper uses ``k/m`` chunks with ``m`` selected per chunk.

Besides fitting memory, partitioning drops the selection cost from
O(N²) to O(N²·m/k) similarity evaluations.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "partition_positions",
    "partitioned_select",
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


def partitioned_select(
    vectors: np.ndarray,
    k: int,
    select_fn: Callable[[np.ndarray, int], tuple[np.ndarray, np.ndarray, int]],
    rng: np.random.Generator,
    chunk_select: int | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Select ``k`` vectors via random chunks of the candidate pool.

    ``select_fn(chunk_vectors, k_chunk)`` must return
    ``(local_indices, weights, pairwise_bytes)`` — e.g.
    :func:`repro.selection.craig.craig_select_class` partially applied.
    ``chunk_select`` is the per-chunk selection count *m* (defaults to the
    paper's mini-batch-size convention via ``k // num_chunks``); the number
    of chunks is then ``ceil(k / m)``.  Per-chunk quotas come from
    :func:`plan_chunk_takes`, so the total is exactly ``min(k, n)`` even
    when ``k`` is not divisible by ``m`` or a chunk is short of
    candidates.

    Returns ``(indices, weights, max_chunk_pairwise_bytes)`` where the last
    term is the largest similarity matrix any chunk materialized — the
    quantity that must fit on-chip.
    """
    n = vectors.shape[0]
    if n == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.float64), 0
    k = min(k, n)
    m = chunk_select or max(1, min(k, 128))
    num_chunks = max(1, int(np.ceil(k / m)))

    chunks = partition_positions(n, num_chunks, rng)
    takes = plan_chunk_takes([len(c) for c in chunks], k, m)
    indices, weights = [], []
    max_bytes = 0
    for chunk, take in zip(chunks, takes):
        if take <= 0:
            continue
        sel, w, nbytes = select_fn(vectors[chunk], take)
        indices.append(chunk[sel])
        weights.append(w)
        max_bytes = max(max_bytes, nbytes)
    if not indices:
        return np.zeros(0, np.int64), np.zeros(0, np.float64), 0
    return np.concatenate(indices), np.concatenate(weights), max_bytes
