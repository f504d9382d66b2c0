"""The selection work-unit executor.

CRAIG-style per-class selection decomposes into independent
facility-location problems — one per (class x chunk) work unit, the
paper's §3.2.3 partitioning.  :class:`SelectionExecutor` runs a planned
round's units in-process, in :attr:`WorkUnit.order`.

Determinism contract: a unit's result depends only on its ``(vectors
rows, take)`` — never on which units ran before it.
"""

from __future__ import annotations

import time

import numpy as np

from repro import obs
from repro.parallel.scheduler import WorkUnit

__all__ = ["SelectionExecutor", "execute_unit"]


def execute_unit(vectors: np.ndarray, unit: WorkUnit) -> tuple:
    """Run one work unit on its chunk's vectors.

    ``vectors`` are the *chunk's* rows (already gathered).  Returns
    ``(chunk-local indices, weights, pairwise_bytes)``.
    """
    from repro.selection.craig import craig_select_class

    return craig_select_class(vectors, unit.take)


class SelectionExecutor:
    """Runs a selection round's work units, one ``unit`` span each."""

    def __init__(self):
        # always None: benchmarks/e2e/shims.py reads it to count
        # ``parallel.fallbacks``
        self.fallback_reason: str | None = None

    def run_units(
        self, vectors: np.ndarray, units: list[WorkUnit]
    ) -> list[tuple[np.ndarray, np.ndarray, int]]:
        """Execute every unit; results ordered by :attr:`WorkUnit.order`.

        ``vectors`` are the round's float64 proxies.
        """
        results = []
        for u in units:
            start = time.perf_counter()
            result = execute_unit(vectors[u.positions], u)
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
