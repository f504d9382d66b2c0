"""The selection work-unit executor.

CRAIG-style per-class selection decomposes into independent
facility-location problems — one per (class x chunk) work unit, the
paper's §3.2.3 partitioning.  :class:`SelectionExecutor` runs a planned
round's units in-process, in :attr:`WorkUnit.order`.

Determinism contract: a unit's result depends only on ``(vectors rows,
take, seed_key, spec)`` — never on which units ran before it.
"""

from __future__ import annotations

import threading
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
        scoring: str = "off",
        qbits: int = 8,
        scales: dict | None = None,
    ):
        super().__init__(
            method=method,
            epsilon=epsilon,
            similarity_dtype_bytes=similarity_dtype_bytes,
            scoring=scoring,
            qbits=qbits,
            scales=scales,
        )


def execute_unit(
    vectors: np.ndarray, unit: WorkUnit, spec: SelectionSpec
) -> tuple:
    """Run one work unit on its chunk's vectors.

    ``vectors`` are the *chunk's* rows (already gathered).  Returns
    ``(chunk-local indices, weights, pairwise_bytes)`` — with a fourth
    per-unit stats dict appended on the quantized scoring path
    (``spec["scoring"] == "int8"``, where ``vectors`` are the int8 rows
    and ``spec["scales"]`` maps the unit's label to its dequant scale).
    """
    if spec.get("scoring") == "int8":
        from repro.selection.qscore import select_class_quantized

        return select_class_quantized(
            vectors,
            spec["scales"][unit.label],
            unit.take,
            method=spec["method"],
            epsilon=spec["epsilon"],
            rng=unit_rng(unit.seed_key),
            bits=spec["qbits"],
            similarity_dtype_bytes=spec["similarity_dtype_bytes"],
        )
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
    """Runs a selection round's work units and rolls up their accounting."""

    def __init__(self):
        # always None: benchmarks/e2e/shims.py reads it to count
        # ``parallel.fallbacks``
        self.fallback_reason: str | None = None
        self.last_qscore_stats: dict | None = None
        # stats writes go through this lock, so a reader never sees
        # a half-updated roll-up
        self._lock = threading.Lock()

    def run_units(
        self,
        vectors: np.ndarray,
        units: list[WorkUnit],
        spec: SelectionSpec,
    ) -> list[tuple[np.ndarray, np.ndarray, int]]:
        """Execute every unit; results ordered by :attr:`WorkUnit.order`.

        ``vectors`` are the round's float64 proxies, or the int8 rows
        under quantized scoring.
        """
        if not units:
            return []
        results = []
        for u in units:
            start = time.perf_counter()
            result = execute_unit(vectors[u.positions], u, spec)
            self._forward_unit_span(
                u, result, start=start, dur_s=time.perf_counter() - start
            )
            results.append(result)
        return self._note_qscore(results, spec)

    def _note_qscore(self, results: list, spec: SelectionSpec) -> list:
        """Roll the units' returned qscore hit/miss/MAC accounting up
        into the metrics registry and :attr:`last_qscore_stats`."""
        if spec.get("scoring") != "int8":
            with self._lock:
                self.last_qscore_stats = None
            return results
        hits = sum(1 for r in results if r[3]["cache_hit"])
        misses = len(results) - hits
        select_hits = sum(1 for r in results if r[3].get("select_hit"))
        macs = sum(r[3]["macs"] for r in results)
        obs.metrics().counter("qscore.block_hits").inc(hits)
        obs.metrics().counter("qscore.block_misses").inc(misses)
        obs.metrics().counter("qscore.select_hits").inc(select_hits)
        obs.metrics().counter("qscore.macs").inc(macs)
        with self._lock:
            self.last_qscore_stats = {
                "block_hits": hits,
                "block_misses": misses,
                "select_hits": select_hits,
                "blocks": len(results),
                "macs": macs,
            }
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
