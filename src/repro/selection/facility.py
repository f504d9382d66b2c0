"""Submodular facility-location maximization (paper Eq. 5).

Given pairwise similarities ``s[i, j]`` between candidates, facility
location scores a set S as ``F(S) = sum_i max_{j in S} s[i, j]``.  The set
of medoids maximizing F under a cardinality constraint upper-bounds the
gradient estimation error of training on S instead of V (paper Eq. 3-5).

Two maximizers are provided:

- :func:`lazy_greedy` — Minoux's accelerated greedy.  Exact greedy result,
  (1 - 1/e)-optimal, using a max-heap of stale marginal gains.  Every
  gain is refreshed in one vectorized pass after the first pick; later
  stale entries are re-evaluated in small vectorized batches against a
  row-contiguous copy of the similarity matrix, which is several times
  faster than per-entry strided column reads.  The selection order is
  identical to the seed's one-at-a-time discipline, which the tests keep
  as the equivalence oracle.
- :func:`stochastic_greedy` — Mirzasoleiman et al.'s "lazier than lazy
  greedy": each step evaluates a random candidate sample of size
  ``n/k * log(1/eps)``, giving (1 - 1/e - eps) in O(n log 1/eps) total
  evaluations.  This is the O(N) method the paper cites for the FPGA.

Both maximizers accept ``validate=False`` to skip the ``O(N^2)``
non-negativity scan of the input — callers that construct similarities
via :func:`similarity_from_distances` (e.g. repeated selection rounds in
:mod:`repro.selection.craig`) already guarantee it and need not re-pay
the scan every round.
"""

from __future__ import annotations

import heapq

import numpy as np

__all__ = [
    "similarity_from_distances",
    "facility_location_value",
    "lazy_greedy",
    "stochastic_greedy",
    "medoid_weights",
]


# Rows per block of lazy_greedy's one full refresh after its first pick.
_REFRESH_ROWS = 64


def similarity_from_distances(distances: np.ndarray, c0: float | None = None) -> np.ndarray:
    """Map pairwise distances to the paper's similarity ``c0 - d``.

    ``c0`` defaults to ``d.max()``, the smallest constant keeping every
    similarity non-negative (the condition below paper Eq. 5).
    """
    distances = np.asarray(distances, dtype=np.float64)
    if distances.ndim != 2 or distances.shape[0] != distances.shape[1]:
        raise ValueError("distances must be a square matrix")
    if c0 is None:
        c0 = float(distances.max())
    if c0 < distances.max():
        raise ValueError("c0 must dominate every pairwise distance")
    return c0 - distances


def facility_location_value(similarity: np.ndarray, selected: np.ndarray) -> float:
    """Evaluate ``F(S) = sum_i max_{j in S} s[i, j]``."""
    selected = np.asarray(selected, dtype=np.int64)
    if selected.size == 0:
        return 0.0
    return float(similarity[:, selected].max(axis=1).sum())


def lazy_greedy(
    similarity: np.ndarray,
    k: int,
    batch_size: int = 8,
    validate: bool = True,
) -> np.ndarray:
    """Exact greedy facility-location maximization with lazy evaluation.

    Returns the selected column indices in pick order.  The first pick is
    the best singleton.  It covers much of the pool, so nearly every
    singleton bound goes stale at once: every candidate is refreshed in
    one vectorised pass right after it.  From then on, with submodular F,
    a candidate whose stale gain already beats every other stale gain
    needs no re-evaluation.  Stale entries at the top of the heap are
    refreshed ``batch_size`` at a time in one vectorized pass; refreshing
    a few extra entries is harmless (gains only shrink under refresh, so
    the next fresh top — and hence the selection order — is unchanged;
    the equivalence tests hold it to the seed's one-at-a-time greedy).
    """
    n = _check(similarity, k, validate)
    if k >= n:
        return np.arange(n, dtype=np.int64)
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")

    # Column j of `similarity` is row j of the transpose; every refresh
    # only ever reads columns, so one O(N^2) contiguous copy up front buys
    # cache-friendly row reads for all O(N*k) refresh work.
    sim_rows = np.ascontiguousarray(similarity.T)
    # current_best[i] = max_{j in S} s[i, j].  Accumulate in the input's
    # own float dtype: a float64 buffer would silently upcast every
    # refresh pass of a float32 similarity (e.g. a float32 proxy
    # matrix's) back to double width.
    current_best = np.zeros(n, dtype=_float_dtype(similarity))
    # gain of each singleton from F(empty)=0; argmax breaks ties to the
    # lowest index, as the heap does
    first = int(np.argmax(similarity.sum(axis=0)))
    np.maximum(current_best, sim_rows[first], out=current_best)
    selected = [first]
    if k == 1:
        return np.asarray(selected, dtype=np.int64)
    # Blocks of rows keep the refresh's temporary at _REFRESH_ROWS x N.
    gains = np.concatenate([
        np.maximum(sim_rows[start : start + _REFRESH_ROWS] - current_best, 0.0).sum(axis=1)
        for start in range(0, n, _REFRESH_ROWS)
    ])
    # (neg gain, idx, round evaluated)
    heap = [(-g, j, 1) for j, g in enumerate(gains.tolist()) if j != first]
    heapq.heapify(heap)

    while len(selected) < k and heap:
        neg_gain, j, evaluated_at = heapq.heappop(heap)
        rnd = len(selected)
        if evaluated_at == rnd:
            # Gain is fresh for the current set: greedy-optimal, take it.
            selected.append(j)
            np.maximum(current_best, sim_rows[j], out=current_best)
            continue
        # Refresh a batch of stale entries, stopping early at a fresh top.
        stale = [j]
        while heap and len(stale) < batch_size and heap[0][2] != rnd:
            stale.append(heapq.heappop(heap)[1])
        idx = np.asarray(stale, dtype=np.int64)
        fresh = np.maximum(sim_rows[idx] - current_best, 0.0).sum(axis=1)
        for jj, gg in zip(stale, fresh.tolist()):
            heapq.heappush(heap, (-gg, jj, rnd))
    return np.asarray(selected, dtype=np.int64)


def stochastic_greedy(
    similarity: np.ndarray,
    k: int,
    epsilon: float = 0.1,
    *,
    rng: np.random.Generator,
    validate: bool = True,
) -> np.ndarray:
    """Stochastic ("lazier than lazy") greedy facility-location maximization.

    Each of the k steps draws ``ceil(n/k * ln(1/epsilon))`` random unselected
    candidates and takes the best marginal gain among them.  ``rng`` is
    required: selection is seeded per (class x chunk) unit, so the same
    generator state always yields the same medoids.
    """
    n = _check(similarity, k, validate)
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    if k >= n:
        return np.arange(n, dtype=np.int64)

    sample_size = int(np.ceil(n / k * np.log(1.0 / epsilon)))
    sample_size = max(1, min(sample_size, n))

    sim_rows = np.ascontiguousarray(similarity.T)
    current_best = np.zeros(n, dtype=_float_dtype(similarity))
    unselected = np.ones(n, dtype=bool)
    selected: list[int] = []
    for _ in range(k):
        pool = np.flatnonzero(unselected)
        if len(pool) == 0:
            break
        cand = rng.choice(pool, size=min(sample_size, len(pool)), replace=False)
        # Marginal gains of all candidates at once (contiguous row reads).
        gains = np.maximum(sim_rows[cand] - current_best, 0.0).sum(axis=1)
        j = int(cand[np.argmax(gains)])
        selected.append(j)
        unselected[j] = False
        np.maximum(current_best, sim_rows[j], out=current_best)
    return np.asarray(selected, dtype=np.int64)


def medoid_weights(similarity: np.ndarray, selected: np.ndarray) -> np.ndarray:
    """CRAIG per-medoid weights: the size of each medoid's cluster.

    Every point is assigned to its most-similar selected medoid; the weight
    of medoid j is the number of points assigned to it.  Training on the
    weighted subset then approximates the full-gradient sum (paper Eq. 3).
    """
    selected = np.asarray(selected, dtype=np.int64)
    if selected.size == 0:
        return np.zeros(0, dtype=np.float64)
    assignment = np.argmax(similarity[:, selected], axis=1)
    counts = np.bincount(assignment, minlength=len(selected))
    return counts.astype(np.float64)


def _float_dtype(similarity: np.ndarray) -> np.dtype:
    """The accumulator dtype matching ``similarity`` (float64 for ints).

    Keeps the maximizers dtype-preserving: float64 inputs behave
    bit-identically to before, float32 inputs stay float32 end-to-end
    instead of paying a hidden upcast.
    """
    dtype = np.asarray(similarity).dtype
    if np.issubdtype(dtype, np.floating):
        return dtype
    return np.dtype(np.float64)


def _check(similarity: np.ndarray, k: int, validate: bool = True) -> int:
    if similarity.ndim != 2 or similarity.shape[0] != similarity.shape[1]:
        raise ValueError("similarity must be a square matrix")
    if k < 1:
        raise ValueError("k must be >= 1")
    if validate and (similarity < 0).any():
        raise ValueError("similarities must be non-negative (use similarity_from_distances)")
    return similarity.shape[0]
