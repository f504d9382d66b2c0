"""Trace sinks: JSONL run-trace files, Chrome ``trace_event`` export,
and a plain-text summary.

The JSONL format is one object per line:

- ``{"kind": "meta", "schema": 2, "run": ..., "t_unix": ...,
  "profile_mem": ..., ...}`` — exactly one, always first;
- ``{"kind": "span", "id", "name", "parent", "start_s", "dur_s",
  "attrs", "worker"}`` — one per finished span, in completion order
  (children precede parents);
- ``{"kind": "metrics", "counters", "gauges", "timers"}`` — at most
  one, last, the metrics-registry snapshot.

Schema history — readers accept every schema back to 1 and reject only
*newer* ones, so ``obsdiff`` can compare traces across schema bumps:

- **1** — meta + spans + metrics as above.
- **2** — meta gains ``profile_mem``; under ``--profile-mem``, spans
  carry ``mem_net_bytes`` / ``mem_peak_bytes`` (tracemalloc attribution
  to the innermost open span) and the explicit ``mem_pool_lease_bytes``
  / ``mem_pool_release_bytes`` credits.  The
  migration shim for schema 1 is exactly "memory attrs are absent":
  ``profile_mem`` defaults to False and no span carries ``mem_*`` keys,
  which the diff engine already treats as "not profiled on this side".

The Chrome export emits complete events (``"ph": "X"``) in the
``trace_event`` JSON-object format that ``chrome://tracing`` and
Perfetto load directly: microsecond timestamps from ``start_s``, the
span tree flattened onto tracks (a forwarded span that names a
``worker`` pid gets it as ``tid``), and span attributes under ``args``.
"""

from __future__ import annotations

import json
import time

from repro.obs.tracer import SpanRecord, Tracer

__all__ = [
    "span_records_to_dicts",
    "write_jsonl",
    "read_trace",
    "to_chrome_trace",
    "write_chrome_trace",
    "render_summary",
]

SCHEMA_VERSION = 2
MIN_SCHEMA_VERSION = 1


def _jsonable(value):
    """Coerce numpy scalars (and other duck-typed numbers) to JSON types."""
    for cast in (int, float):
        try:
            return cast(value)
        except (TypeError, ValueError):
            continue
    return str(value)


def span_records_to_dicts(records: list[SpanRecord]) -> list[dict]:
    return [r.to_dict() for r in records]


def write_jsonl(path, tracer: Tracer, registry=None) -> None:
    """Write one run's trace (meta + spans + optional metrics snapshot)."""
    meta = {
        "kind": "meta",
        "schema": SCHEMA_VERSION,
        "run": tracer.run,
        "t_unix": time.time(),
        "profile_mem": tracer.profiler is not None,
    }
    meta.update(tracer.meta)
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(meta, default=_jsonable) + "\n")
        for record in tracer.records:
            f.write(json.dumps(record.to_dict(), default=_jsonable) + "\n")
        if registry is not None:
            snapshot = registry.snapshot()
            snapshot["kind"] = "metrics"
            f.write(json.dumps(snapshot, default=_jsonable) + "\n")


def read_trace(path) -> dict:
    """Load a JSONL trace as ``{"meta": ..., "spans": [...], "metrics": ...}``.

    ``spans`` are plain dicts in file order.  Older schemas (back to
    ``MIN_SCHEMA_VERSION``) are read through a migration shim — a
    schema-1 trace simply has ``profile_mem=False`` and no ``mem_*``
    span attrs, so ``obsdiff`` can compare pre/post-profiling traces.
    Raises ``ValueError`` only on schemas *newer* than this reader (or
    otherwise malformed lines).
    """
    meta: dict = {}
    spans: list[dict] = []
    snapshot: dict | None = None
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            doc = json.loads(line)
            kind = doc.get("kind")
            if kind == "meta":
                schema = doc.get("schema")
                if type(schema) is not int or schema < MIN_SCHEMA_VERSION:
                    raise ValueError(
                        f"unsupported trace schema {schema!r}"
                    )
                if schema > SCHEMA_VERSION:
                    raise ValueError(
                        f"trace schema {schema} is newer than this reader "
                        f"(supports {MIN_SCHEMA_VERSION}..{SCHEMA_VERSION}); "
                        "upgrade repro to read it"
                    )
                if schema < SCHEMA_VERSION:
                    # Schema-1 shim: memory profiling did not exist; the
                    # absence of mem_* attrs *is* the migrated form.
                    doc.setdefault("profile_mem", False)
                meta = doc
            elif kind == "span":
                spans.append(doc)
            elif kind == "metrics":
                snapshot = doc
            else:
                raise ValueError(f"unknown trace line kind {kind!r}")
    if not meta:
        raise ValueError("trace has no meta line (not a repro.obs trace?)")
    return {"meta": meta, "spans": spans, "metrics": snapshot}


def to_chrome_trace(spans: list[dict], run: str = "run") -> dict:
    """Spans → Chrome ``trace_event`` document (Perfetto-loadable)."""
    events = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": f"repro:{run}"},
        }
    ]
    for span in spans:
        args = {k: _jsonable(v) for k, v in (span.get("attrs") or {}).items()}
        args["id"] = span["id"]
        events.append(
            {
                "name": span["name"],
                "cat": "repro",
                "ph": "X",
                "ts": span["start_s"] * 1e6,
                "dur": max(0.0, span["dur_s"]) * 1e6,
                "pid": 0,
                "tid": span.get("worker") or 0,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, spans: list[dict], run: str = "run") -> str:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(to_chrome_trace(spans, run=run), f, default=_jsonable)
        f.write("\n")
    return str(path)


def render_summary(trace: dict) -> str:
    """Terse per-phase roll-up of a loaded trace (one line per span name)."""
    from repro.obs.report import aggregate_trace

    agg = aggregate_trace(trace["spans"])
    lines = [f"run: {trace['meta'].get('run', '?')}  spans: {len(trace['spans'])}"]
    for name, phase in agg["phases"].items():
        lines.append(
            f"  {name:20s} x{phase['count']:<5d} total {phase['total_s']:9.4f}s"
        )
    return "\n".join(lines)
