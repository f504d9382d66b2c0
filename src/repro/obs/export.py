"""Prometheus text-format snapshot export for the metrics registry.

``repro.cli train ... --metrics-out prom.txt`` (also ``system``) writes
the run's final :class:`~repro.obs.metrics.MetricsRegistry` snapshot
in the Prometheus *text exposition format*
(version 0.0.4) — the format ``promtool check metrics``, node-exporter
textfile collectors and Pushgateway ingest directly.

**The metric table.**  :data:`METRIC_TABLE` is the single declaration
point for every metric name the codebase records: ``name -> (type,
help)``.  The exporter derives its ``# HELP`` / ``# TYPE`` lines from
it, and the NES011 lint rule statically enforces that every
``metrics().counter/gauge/timer(...)`` call site passes a dotted-
namespace string *literal* declared here — no f-string or concatenated
metric names, so the exported series set is knowable without running
the code.

**Mapping.**  Dotted names flatten to underscores under a ``repro_``
prefix (``proxy_cache.hits`` → ``repro_proxy_cache_hits``).  Counters
and gauges export one sample each; timers export as a Prometheus
``summary`` with ``_count`` and ``_sum`` samples under a
``_seconds``-suffixed base name (min/mean/max stay in the JSONL trace).
Output is deterministically ordered by exported metric name, so two
snapshots of the same run diff cleanly as text.  Names recorded at
runtime but missing from the table (possible only under a NES011
pragma) export as ``untyped`` with a placeholder help line.
"""

from __future__ import annotations

__all__ = [
    "METRIC_TABLE",
    "prometheus_name",
    "render_prometheus",
    "write_prometheus",
]

# The single source of truth for metric identity: every name recorded
# through repro.obs.metrics appears here (NES011-enforced).  Types:
# "counter" / "gauge" map 1:1; "timer" exports as a summary.
METRIC_TABLE: dict[str, tuple[str, str]] = {
    "nn.inference.module_fallbacks": (
        "counter",
        "Eval-mode passes (proxy or accuracy) that ran model(x) instead of the fused InferencePlan",
    ),
    "nn.layout.repacks": (
        "counter",
        "Arrays copied into the batch-innermost (C, H, W, N) memory format by F.channel_major",
    ),
    "nn.loss.zero_weight_batches": (
        "counter",
        "Weighted loss batches whose weights sum to 0 (loss 0, zero gradient)",
    ),
    "proxy_cache.hits": (
        "counter",
        "Gradient-proxy cache hits",
    ),
    "proxy_cache.misses": (
        "counter",
        "Gradient-proxy cache misses",
    ),
    "selection.rounds": (
        "counter",
        "Selection rounds executed",
    ),
    "selection.units_executed": (
        "counter",
        "(class x chunk) work units executed across selection rounds",
    ),
}


def prometheus_name(name: str, kind: str) -> str:
    """Dotted metric name → exported Prometheus metric name."""
    flat = "repro_" + name.replace(".", "_").replace("-", "_")
    if kind == "timer":
        flat += "_seconds"
    return flat


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".10g")


def render_prometheus(snapshot: dict) -> str:
    """Registry snapshot → Prometheus text exposition (deterministic)."""
    entries = []
    for section, kind in (
        ("counters", "counter"),
        ("gauges", "gauge"),
        ("timers", "timer"),
    ):
        for name, value in (snapshot.get(section) or {}).items():
            entries.append((prometheus_name(name, kind), kind, name, value))
    lines: list[str] = []
    for prom, kind, name, value in sorted(entries):
        declared = METRIC_TABLE.get(name)
        if declared is not None:
            prom_type = "summary" if declared[0] == "timer" else declared[0]
            help_text = declared[1]
        else:
            prom_type = "untyped"
            help_text = f"(undeclared metric {name})"
        lines.append(f"# HELP {prom} {help_text}")
        lines.append(f"# TYPE {prom} {prom_type}")
        if kind == "timer":
            lines.append(f"{prom}_count {_format_value(value.get('count', 0))}")
            lines.append(f"{prom}_sum {_format_value(value.get('total_s', 0.0))}")
        else:
            lines.append(f"{prom} {_format_value(value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(path, snapshot: dict) -> str:
    """Write :func:`render_prometheus` output to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(render_prometheus(snapshot))
    return str(path)
