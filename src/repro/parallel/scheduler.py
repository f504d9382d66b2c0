"""Deterministic work-unit planning for a selection round.

A NeSSA selection round is a grid of independent facility-location
problems: one per (class, partition chunk).  :func:`plan_selection_round`
flattens that grid into :class:`WorkUnit` records *before* any work
runs, deriving its one random choice (each class's chunk permutation)
from a :class:`numpy.random.SeedSequence` keyed on ``(seed, round, class
rank)`` instead of from one shared generator consumed in execution
order.  A unit's picks depend only on its rows and quota, so a unit run
alone produces *bit-identical* picks to the same unit run inside the
round — the equivalence suite in ``tests/parallel`` asserts exactly
that.

The budget goes to classes, and a class's budget to its chunks, by
:func:`repro.selection.partition.apportion`, so a round takes exactly
``min(k_total, n)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.selection.partition import apportion, partition_positions

__all__ = ["WorkUnit", "unit_rng", "plan_selection_round"]


@dataclass(frozen=True)
class WorkUnit:
    """One independent selection task: a chunk of one class's candidates.

    Attributes
    ----------
    order : assembly rank — results concatenate in this order.
    label : the class label (bookkeeping / debugging).
    positions : candidate-row indices (into the round's proxy matrix)
        belonging to this chunk, sorted ascending.
    take : how many medoids to select from this chunk.
    seed_key : ``(seed, round, class rank, chunk index)``, the unit's
        deterministic identity (its ``unit`` span key).
    """

    order: int
    label: int
    positions: np.ndarray
    take: int
    seed_key: tuple

    def __post_init__(self):
        if self.take < 0:
            raise ValueError("take must be >= 0")
        if self.take > len(self.positions):
            raise ValueError("take exceeds chunk population")


def unit_rng(seed_key: tuple) -> np.random.Generator:
    """The unit's private RNG stream (a function of the key alone)."""
    return np.random.default_rng(np.random.SeedSequence(list(seed_key)))


def plan_selection_round(
    labels: np.ndarray,
    k_total: int,
    *,
    seed: int,
    round_index: int,
    chunk_select: int | None = None,
) -> list[WorkUnit]:
    """Split one selection round into independent work units.

    ``labels`` are the candidate pool's class labels (one per proxy-matrix
    row); ``k_total`` the round's budget, apportioned by class size.
    ``chunk_select`` (*m*) enables §3.2.3 partitioning: a class with
    budget ``k_c`` gets ``ceil(k_c/m)`` near-equal chunks that apportion
    ``k_c``.  ``None`` plans one whole-class unit per class.  A class or
    chunk whose budget is 0 gets no unit.

    Returns units in assembly order (classes in ``np.unique`` order,
    chunks in partition order).
    """
    labels = np.asarray(labels)
    if len(labels) == 0:
        return []
    if k_total < 1:
        raise ValueError("k_total must be >= 1")
    if chunk_select is not None and chunk_select < 1:
        raise ValueError("chunk_select must be >= 1")

    classes, counts = np.unique(labels, return_counts=True)
    units: list[WorkUnit] = []
    order = 0
    for class_rank, (label, k_c) in enumerate(zip(classes, apportion(counts, k_total))):
        if k_c == 0:
            continue
        local = np.flatnonzero(labels == label)
        class_key = (seed, round_index, class_rank)
        if chunk_select is None:
            chunks, takes = [np.arange(len(local))], [k_c]
        else:
            num_chunks = -(-k_c // chunk_select)
            chunks = partition_positions(len(local), num_chunks, unit_rng(class_key))
            takes = apportion([len(c) for c in chunks], k_c)
        for chunk_idx, (chunk, take) in enumerate(zip(chunks, takes)):
            if take <= 0:
                continue
            units.append(
                WorkUnit(
                    order=order,
                    label=int(label),
                    positions=local[chunk],
                    take=take,
                    seed_key=class_key + (chunk_idx,),
                )
            )
            order += 1
    return units
