"""Distributed submodular maximization (GreeDi — paper reference [42]).

Mirzasoleiman et al.'s two-round scheme for maximizing a submodular
function over data that lives on ``m`` machines (here: multiple
SmartSSDs, the paper's stated future-work direction):

1. partition the ground set over the machines;
2. each machine greedily selects ``k`` elements from its shard;
3. the union of the per-machine selections (``m * k`` elements) is
   shipped to one machine, which greedily selects the final ``k``.

GreeDi guarantees a constant-factor approximation of the centralized
greedy solution; for facility location over clustered data it is close
to lossless in practice, which :mod:`tests.selection` verifies against
the centralized selector.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.selection.facility import (
    lazy_greedy,
    medoid_weights,
    similarity_from_distances,
)
from repro.selection.pairwise import pairwise_distances

__all__ = ["greedi_select", "pairwise_similarity"]


def pairwise_similarity(vectors: np.ndarray, c0: float | None = None) -> np.ndarray:
    """Euclidean-distance facility-location similarities for row vectors."""
    return similarity_from_distances(pairwise_distances(vectors), c0=c0)


def _shard_select(shard_vectors: np.ndarray, k: int, maximizer) -> np.ndarray:
    """Round-1 per-machine greedy."""
    local_k = min(k, shard_vectors.shape[0])
    sim = pairwise_similarity(shard_vectors)
    return maximizer(sim, local_k)


def greedi_select(
    vectors: np.ndarray,
    k: int,
    num_machines: int,
    rng: np.random.Generator | None = None,
    maximizer: Callable[[np.ndarray, int], np.ndarray] = lazy_greedy,
) -> tuple[np.ndarray, np.ndarray]:
    """Two-round distributed facility-location selection.

    Returns ``(indices, weights)`` into ``vectors``; weights are the
    medoid cluster sizes computed over the *full* set (the final
    machine sees every point's assignment, as the paper's aggregation
    step does).
    """
    n = vectors.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if num_machines < 1:
        raise ValueError("num_machines must be >= 1")
    if k >= n:
        indices = np.arange(n, dtype=np.int64)
        sim = pairwise_similarity(vectors)
        return indices, medoid_weights(sim, indices)
    rng = rng or np.random.default_rng(0)

    # Round 1: shard and select k per machine.
    shards = [
        shard
        for shard in np.array_split(rng.permutation(n), min(num_machines, n))
        if len(shard)
    ]
    picks = [_shard_select(vectors[shard], k, maximizer) for shard in shards]
    candidates = [shard[picked] for shard, picked in zip(shards, picks)]
    pool = np.unique(np.concatenate(candidates))

    # Round 2: greedy over the union, scored against the FULL ground set
    # (facility location needs coverage of every point, not just the pool).
    full_sim = pairwise_similarity(vectors)
    pool_sim = full_sim[:, pool]  # (n, |pool|) coverage matrix

    # Greedy on the rectangular coverage matrix.  The accumulator must
    # match the similarity dtype: an implicit float64 here would upcast
    # every gain computation regardless of the configured precision.
    current = np.zeros(n, dtype=pool_sim.dtype)
    chosen: list[int] = []
    available = np.ones(len(pool), dtype=bool)
    for _ in range(min(k, len(pool))):
        gains = np.maximum(pool_sim - current[:, None], 0.0).sum(axis=0)
        gains[~available] = -np.inf
        j = int(np.argmax(gains))
        chosen.append(j)
        available[j] = False
        current = np.maximum(current, pool_sim[:, j])

    indices = pool[np.asarray(chosen, dtype=np.int64)]
    weights = medoid_weights(full_sim, indices)
    return indices, weights
