"""Subset budgets and dataset partitioning (paper §3.2.3).

Every selector trains :func:`subset_budget` samples, split over classes
(and a class's chunks) by :func:`apportion`, so methods compared at one
fraction train subsets of one size.  The pairwise-similarity matrix of a
whole class does not fit in the SmartSSD FPGA's 4.32 MB of on-chip
memory once classes grow past a few thousand samples.  The paper's fix:
randomly partition the candidate pool into chunks, select a small subset
from each chunk, and concatenate.  For mini-batch size ``m`` and target
subset size ``k`` out of ``N`` points, the paper uses ``k/m`` chunks with
``m`` selected per chunk; here the ``ceil(k/m)`` near-equal chunks
apportion ``k``.

Besides fitting memory, partitioning drops the selection cost from
O(N²) to O(N²·m/k) similarity evaluations.  Rounds are planned by
:func:`repro.parallel.scheduler.plan_selection_round`, which imports
this module; nothing in ``repro.selection`` imports ``repro.parallel``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "subset_budget",
    "apportion",
    "class_budgets",
    "partition_positions",
    "chunk_pairwise_bytes",
]


def subset_budget(fraction: float, n: int, pool: int | None = None) -> int:
    """Samples a selector trains at ``fraction`` of ``n``: ``max(1, round(f·n))``,
    capped at the ``pool`` of candidates it draws them from when given."""
    k = max(1, round(fraction * n))
    return k if pool is None else min(k, pool)


def apportion(sizes, k: int) -> list[int]:
    """Split ``min(k, sum(sizes))`` over groups of ``sizes`` by largest remainder.

    Each group's share is ``k·s/n``.  It gets the floor of its share, and
    the seats left go to the largest fractional parts, ties to the
    lower group rank.  When ``k`` covers every non-empty group, a group
    whose share is under one gets exactly one and the rest is
    re-shared among the others.  The takes sum to ``min(k, n)`` exactly
    and never exceed their group; when every share is at least one,
    each take is the floor or the ceiling of its share.  No RNG is used.
    """
    sizes = [int(s) for s in sizes]
    if any(s < 0 for s in sizes):
        raise ValueError("group sizes must be non-negative")
    k = max(0, min(int(k), sum(sizes)))
    takes = [0] * len(sizes)
    live = [i for i, s in enumerate(sizes) if s > 0]
    n = sum(sizes)
    if k >= len(live):
        while small := [i for i in live if k * sizes[i] < n]:
            for i in small:
                takes[i] = 1
            k -= len(small)
            live = [i for i in live if takes[i] == 0]
            n = sum(sizes[i] for i in live)
    if n:
        # integer remainders, so equal shares tie exactly and break by rank
        rest = {}
        for i in live:
            takes[i], rest[i] = divmod(k * sizes[i], n)
        left = k - sum(takes[i] for i in live)
        for i in sorted(live, key=rest.get, reverse=True)[:left]:
            takes[i] += 1
    return takes


def class_budgets(labels: np.ndarray, fraction: float) -> list[tuple[np.ndarray, int]]:
    """``(rows, budget)`` of each class with a budget: the subset budget of
    ``fraction`` apportioned by class size."""
    classes, counts = np.unique(labels, return_counts=True)
    budgets = apportion(counts, subset_budget(fraction, len(labels)))
    return [(np.flatnonzero(labels == c), k) for c, k in zip(classes, budgets) if k]


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
