"""CRAIG coreset selection (Mirzasoleiman, Bilmes, Leskovec — ICML'20).

The baseline the paper builds on and compares against: per class, find the
medoids of the last-layer gradient proxies by maximizing facility location,
and weight each medoid by its cluster size so the weighted subset gradient
approximates the full gradient (paper Eqs. 3-5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.data.dataset import Dataset
from repro.selection.facility import (
    lazy_greedy,
    medoid_weights,
    similarity_from_distances,
    stochastic_greedy,  # noqa: F401 - benchmarks/e2e/shims.py patches it by name
)
from repro.selection.gradients import compute_gradient_proxies
from repro.selection.pairwise import pairwise_distances
from repro.selection.partition import chunk_pairwise_bytes, class_budgets

__all__ = ["SelectionResult", "craig_select_class", "CraigSelector"]


@dataclass
class SelectionResult:
    """Outcome of one selection round.

    ``positions`` index into the candidate dataset; ``weights`` are the
    CRAIG medoid weights (uniform for unweighted selectors);
    ``pairwise_bytes`` records how much similarity state the selection
    touched (drives the FPGA on-chip memory accounting);
    ``proxy_flops`` the forward-pass cost of proxy computation.
    """

    positions: np.ndarray
    weights: np.ndarray
    pairwise_bytes: int = 0
    proxy_flops: float = 0.0

    def __post_init__(self):
        if self.positions.shape != self.weights.shape:
            raise ValueError("positions and weights must align")


def craig_select_class(vectors: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Select ``k`` medoids from one class's proxy vectors by lazy greedy.

    Distances come from the Gram-matrix identity (one GEMM, ``O(N^2)``
    peak additional memory) rather than the ``N x N x D`` broadcast; see
    :mod:`repro.selection.pairwise`.  The similarity construction
    guarantees non-negative entries, so the maximizer skips its
    ``O(N^2)`` validation scan.

    Returns ``(local_indices, weights, pairwise_bytes)`` where
    ``pairwise_bytes`` is the fp32 similarity-tile footprint
    (:func:`~repro.selection.partition.chunk_pairwise_bytes`), i.e. what
    would have to fit in the FPGA's on-chip memory without partitioning.
    """
    n = vectors.shape[0]
    if n == 0:
        return (np.zeros(0, np.int64), np.zeros(0, np.float64), 0)
    k = min(k, n)
    # the distance matrix is freed as soon as the similarity exists
    similarity = similarity_from_distances(pairwise_distances(vectors))
    sel = lazy_greedy(similarity, k, validate=False)
    weights = medoid_weights(similarity, sel)
    return sel, weights, chunk_pairwise_bytes(n)


class CraigSelector:
    """Per-class CRAIG selection over a dataset.

    The subset budget is apportioned to classes by class size
    (:func:`~repro.selection.partition.class_budgets`), so the selected
    fraction is uniform across classes (what both CRAIG and the paper do).
    """

    name = "craig"

    def select(self, dataset: Dataset, fraction: float, model) -> SelectionResult:
        """Select ``fraction`` of ``dataset``.

        ``model`` provides the forward pass for gradient proxies — the
        live target model.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        proxy = compute_gradient_proxies(model, dataset.x, dataset.y)

        budgets = class_budgets(dataset.y, fraction)
        positions, weights, pairwise = [], [], 0
        with obs.span("chunk_select", units=len(budgets)):
            for local, k_c in budgets:
                sel, w, nbytes = craig_select_class(proxy.vectors[local], k_c)
                positions.append(local[sel])
                weights.append(w)
                pairwise = max(pairwise, nbytes)

        return SelectionResult(
            positions=np.concatenate(positions),
            weights=np.concatenate(weights),
            pairwise_bytes=pairwise,
            proxy_flops=proxy.flops,
        )
