"""repro.obs — unified run-trace + metrics layer (stdlib-only).

One import point for the observability subsystem:

- :mod:`repro.obs.tracer` — nested, timestamped spans with
  deterministic tree-path ids (``epoch#0/selection_round#0/unit@…``);
  the module-level :func:`span` helper is a zero-overhead no-op until
  :func:`set_tracer` installs a :class:`Tracer`.
- :mod:`repro.obs.metrics` — process-wide counters / gauges behind
  :func:`metrics`, null-object no-ops until :func:`set_metrics` installs
  a :class:`MetricsRegistry`; :data:`METRIC_TABLE` declares every
  metric name (what the NES011 check in ``tests/analysis`` reads).
- :mod:`repro.obs.sinks` — JSONL run-trace files (schema 2; schema-1
  traces still read), Chrome ``trace_event`` export
  (``chrome://tracing`` / Perfetto), collapsed-stack flamegraphs
  (``repro.cli report --flame``), text summary.
- :mod:`repro.obs.report` — aggregate a trace into the paper's
  headline table (``repro.cli report``).
- :mod:`repro.obs.diff` — align two traces by deterministic span id
  and emit an ``ok`` / ``regressed`` / ``structural-drift`` verdict
  (``repro.cli obsdiff``).

Instrumented call sites only ever pay for what is installed: with no
tracer and no registry, ``obs.span(...)`` returns a shared no-op
context manager and ``obs.metrics().counter(...).inc()`` hits shared
null instruments — a selection round pays under 2% for its disabled
instrumentation (``tests/obs/test_overhead.py``).
"""

from repro.obs.diff import (
    TraceDiff,
    diff_trace_files,
    diff_traces,
)
from repro.obs.metrics import (
    METRIC_TABLE,
    Counter,
    Gauge,
    MetricsRegistry,
    NullRegistry,
    metrics,
    set_metrics,
)
from repro.obs.report import aggregate_trace, render_report
from repro.obs.sinks import (
    read_trace,
    to_chrome_trace,
    to_folded_stacks,
    write_chrome_trace,
    write_folded,
    write_jsonl,
)
from repro.obs.tracer import (
    Span,
    SpanRecord,
    Tracer,
    add_completed,
    enabled,
    get_tracer,
    set_tracer,
    span,
)

__all__ = [
    "TraceDiff",
    "diff_trace_files",
    "diff_traces",
    "METRIC_TABLE",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "NullRegistry",
    "metrics",
    "set_metrics",
    "aggregate_trace",
    "render_report",
    "read_trace",
    "to_chrome_trace",
    "to_folded_stacks",
    "write_chrome_trace",
    "write_folded",
    "write_jsonl",
    "Span",
    "SpanRecord",
    "Tracer",
    "add_completed",
    "enabled",
    "get_tracer",
    "set_tracer",
    "span",
]
