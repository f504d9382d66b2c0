"""The selection work-unit executor.

CRAIG-style per-class selection decomposes into independent
facility-location problems — one per (class x chunk) work unit, the
paper's §3.2.3 partitioning.  :class:`SelectionExecutor` runs a planned
round's units in-process, in :attr:`WorkUnit.order`.

Determinism contract: a unit's result depends only on ``(vectors rows,
take, seed_key, spec)`` — never on which units ran before it.
"""

from __future__ import annotations

import time

import numpy as np

from repro import obs
from repro.parallel.scheduler import WorkUnit, unit_rng

__all__ = ["SelectionSpec", "SelectionExecutor", "execute_unit"]


class SelectionSpec(dict):
    """Per-round selection parameters handed to every unit.

    A thin dict subclass so the call-site reads declaratively; keys
    mirror :func:`repro.selection.craig.craig_select_class` kwargs.
    """

    def __init__(
        self,
        method: str = "lazy",
        epsilon: float = 0.1,
        similarity_dtype_bytes: int = 4,
    ):
        super().__init__(
            method=method,
            epsilon=epsilon,
            similarity_dtype_bytes=similarity_dtype_bytes,
        )


def execute_unit(
    vectors: np.ndarray, unit: WorkUnit, spec: SelectionSpec
) -> tuple:
    """Run one work unit on its chunk's vectors.

    ``vectors`` are the *chunk's* rows (already gathered).  Returns
    ``(chunk-local indices, weights, pairwise_bytes)``.
    """
    from repro.selection.craig import craig_select_class

    return craig_select_class(
        vectors,
        unit.take,
        method=spec["method"],
        epsilon=spec["epsilon"],
        rng=unit_rng(unit.seed_key),
        similarity_dtype_bytes=spec["similarity_dtype_bytes"],
    )


class SelectionExecutor:
    """Runs a selection round's work units, one ``unit`` span each."""

    def __init__(self):
        # always None: benchmarks/e2e/shims.py reads it to count
        # ``parallel.fallbacks``
        self.fallback_reason: str | None = None

    def run_units(
        self,
        vectors: np.ndarray,
        units: list[WorkUnit],
        spec: SelectionSpec,
    ) -> list[tuple[np.ndarray, np.ndarray, int]]:
        """Execute every unit; results ordered by :attr:`WorkUnit.order`.

        ``vectors`` are the round's float64 proxies.
        """
        results = []
        for u in units:
            start = time.perf_counter()
            result = execute_unit(vectors[u.positions], u, spec)
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
