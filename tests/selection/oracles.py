"""The seed's selection kernels, kept as test oracles.

The fast paths in :mod:`repro.selection` must reproduce these exactly
(:func:`lazy_greedy_reference`) or to rounding
(:func:`naive_pairwise_distances`).
"""

import heapq

import numpy as np


def lazy_greedy_reference(similarity: np.ndarray, k: int) -> np.ndarray:
    """The seed one-entry-at-a-time lazy greedy.

    Kept verbatim so tests can prove ``lazy_greedy`` returns the
    identical selection order.
    """
    n = similarity.shape[0]
    if k >= n:
        return np.arange(n, dtype=np.int64)

    current_best = np.zeros(n, dtype=np.float64)
    gains = similarity.sum(axis=0)
    heap = [(-g, j, 0) for j, g in enumerate(gains)]
    heapq.heapify(heap)

    selected: list[int] = []
    while len(selected) < k and heap:
        neg_gain, j, evaluated_at = heapq.heappop(heap)
        if evaluated_at == len(selected):
            selected.append(j)
            current_best = np.maximum(current_best, similarity[:, j])
        else:
            gain = float(np.maximum(similarity[:, j] - current_best, 0.0).sum())
            heapq.heappush(heap, (-gain, j, len(selected)))
    return np.asarray(selected, dtype=np.int64)


def naive_pairwise_distances(vectors: np.ndarray) -> np.ndarray:
    """The seed ``N x N x D`` broadcast formulation."""
    vectors = np.asarray(vectors, dtype=np.float64)
    diffs = vectors[:, None, :] - vectors[None, :, :]
    return np.sqrt((diffs**2).sum(axis=2))
