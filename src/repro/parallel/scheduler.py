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

It is the one place a NeSSA round's budget is split over classes and
chunks; the chunks and per-chunk quotas come from
:func:`repro.selection.partition.partition_positions` and
:func:`repro.selection.partition.plan_chunk_takes`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.selection.partition import partition_positions, plan_chunk_takes

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
    row); ``k_total`` the round's total selection budget, allocated to
    classes proportionally to class size.
    ``chunk_select`` enables §3.2.3 partitioning with *m* picks per chunk;
    ``None`` plans one whole-class unit per class.

    Returns units in assembly order (classes in ``np.unique`` order,
    chunks in partition order).
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    if n == 0:
        return []
    if k_total < 1:
        raise ValueError("k_total must be >= 1")
    if chunk_select is not None and chunk_select < 1:
        raise ValueError("chunk_select must be >= 1")

    units: list[WorkUnit] = []
    order = 0
    for class_rank, label in enumerate(np.unique(labels)):
        local = np.flatnonzero(labels == label)
        k_c = max(1, int(round(k_total * len(local) / n)))
        k_c = min(k_c, len(local))
        class_key = (seed, round_index, class_rank)

        if chunk_select is None:
            units.append(
                WorkUnit(
                    order=order,
                    label=int(label),
                    positions=local,
                    take=k_c,
                    seed_key=class_key + (0,),
                )
            )
            order += 1
            continue

        m = chunk_select
        num_chunks = max(1, int(np.ceil(k_c / m)))
        chunks = partition_positions(len(local), num_chunks, unit_rng(class_key))
        takes = plan_chunk_takes([len(c) for c in chunks], k_c, m)
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
