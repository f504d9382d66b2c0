"""The selection work-unit executor.

CRAIG-style per-class selection decomposes into independent
facility-location problems — one per (class x chunk) work unit, the
paper's §3.2.3 partitioning.  :class:`SelectionExecutor` runs a planned
round's units in-process, in :attr:`WorkUnit.order`.

The dependency runs one way: ``repro.parallel`` imports
``repro.selection``, and nothing in ``repro.selection`` imports
``repro.parallel``.

Determinism contract: a unit's result depends only on its ``(vectors
rows, take)`` — never on which units ran before it.
"""

from __future__ import annotations

import time

import numpy as np

from repro import obs
from repro.parallel.scheduler import WorkUnit
from repro.selection.craig import craig_select_class

__all__ = ["SelectionExecutor"]


class SelectionExecutor:
    """Runs a selection round's work units, one ``unit`` span each."""

    def __init__(self):
        # always None: benchmarks/e2e/shims.py reads it to count
        # ``parallel.fallbacks``
        self.fallback_reason: str | None = None

    def run_round(
        self, vectors: np.ndarray, candidates: np.ndarray, units: list[WorkUnit]
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Run a planned round inside its ``chunk_select`` span.

        ``vectors`` are the candidates' proxies, one row per entry of
        ``candidates`` (dataset positions).  Returns the selected
        dataset positions and their weights, concatenated in unit order,
        and the largest similarity tile any unit built.
        """
        with obs.span("chunk_select", units=len(units)):
            outcomes = self.run_units(vectors, units)
        positions = [candidates[u.positions[sel]] for u, (sel, _, _) in zip(units, outcomes)]
        weights = [w for _, w, _ in outcomes]
        return (
            np.concatenate(positions) if positions else np.zeros(0, np.int64),
            np.concatenate(weights) if weights else np.zeros(0, np.float64),
            max((nbytes for _, _, nbytes in outcomes), default=0),
        )

    def run_units(
        self, vectors: np.ndarray, units: list[WorkUnit]
    ) -> list[tuple[np.ndarray, np.ndarray, int]]:
        """Execute every unit; results ordered by :attr:`WorkUnit.order`.

        Each result is ``craig_select_class`` on the unit's rows of
        ``vectors`` (the round's float64 proxies): ``(unit-local
        indices, weights, pairwise_bytes)``.
        """
        results = []
        for u in units:
            start = time.perf_counter()
            result = craig_select_class(vectors[u.positions], u.take)
            self._forward_unit_span(
                u, result, start=start, dur_s=time.perf_counter() - start
            )
            results.append(result)
        return results

    @staticmethod
    def _forward_unit_span(
        unit: WorkUnit,
        result,
        start: float,
        dur_s: float,
    ) -> None:
        """Record one unit's span (a no-op without a tracer), keyed on
        its deterministic seed_key.

        ``sim_bytes`` is the unit's similarity footprint — the per-unit
        decomposition of the round's ``pairwise_bytes``; the report
        aggregator deliberately keeps it out of the data-moved total.
        """
        obs.add_completed(
            "unit",
            key=unit.seed_key,
            start=start,
            dur_s=dur_s,
            order=unit.order,
            label=unit.label,
            take=unit.take,
            rows=len(unit.positions),
            sim_bytes=int(result[2]),
        )
