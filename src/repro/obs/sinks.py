"""Trace sinks: JSONL run-trace files, Chrome ``trace_event`` export,
collapsed-stack flamegraphs and a plain-text summary.

The JSONL format is one object per line:

- ``{"kind": "meta", "schema": 2, "run": ..., "t_unix": ..., ...}`` —
  exactly one, always first;
- ``{"kind": "span", "id", "name", "parent", "start_s", "dur_s",
  "attrs"}`` — one per finished span, in completion order (children
  precede parents);
- ``{"kind": "metrics", "counters", "gauges"}`` — at most one, last,
  the metrics-registry snapshot.

Readers accept schemas 1 and 2 and reject only *newer* ones, so
``obsdiff`` can compare traces across schema bumps.  Keys a reader does
not know — in traces written by older versions of this module — are
carried along and ignored.

The Chrome export emits complete events (``"ph": "X"``) in the
``trace_event`` JSON-object format that ``chrome://tracing`` and
Perfetto load directly: microsecond timestamps from ``start_s``, every
span on track 0, and span attributes under ``args``.

The flamegraph exporter (:func:`to_folded_stacks`) renders a span list
as collapsed-stack text — ``epoch;selection_round;unit 1234`` per line —
the format ``flamegraph.pl``, speedscope and inferno all load directly.
Frame names come from the deterministic span-id path, so two runs of the
same config produce structurally identical flamegraphs.  Weights:

- ``wall`` — self wall time in microseconds (children subtracted);
- ``bytes`` — the span's own data-movement attrs (every ``*_bytes``
  attr except ``sim_bytes``, the per-unit share already counted on its
  round).
"""

from __future__ import annotations

import json
import math
import time

from repro.obs.tracer import Tracer

__all__ = [
    "write_jsonl",
    "read_trace",
    "to_chrome_trace",
    "write_chrome_trace",
    "span_frames",
    "to_folded_stacks",
    "write_folded",
    "FLAME_WEIGHTS",
]

SCHEMA_VERSION = 2
MIN_SCHEMA_VERSION = 1

# Keys every span line must carry for report/obsdiff to read it.
_SPAN_KEYS = ("id", "name", "start_s", "dur_s")

FLAME_WEIGHTS = ("wall", "bytes")


def _jsonable(value):
    """Coerce numpy scalars (and other duck-typed numbers) to JSON types."""
    for cast in (int, float):
        try:
            return cast(value)
        except (TypeError, ValueError):
            continue
    return str(value)


def write_jsonl(path, tracer: Tracer, registry=None) -> None:
    """Write one run's trace (meta + spans + optional metrics snapshot)."""
    meta = {
        "kind": "meta",
        "schema": SCHEMA_VERSION,
        "run": tracer.run,
        "t_unix": time.time(),
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

    ``spans`` are plain dicts in file order.  Raises ``ValueError``,
    naming the line number where there is one, on a schema newer than
    this reader, a line that is not a JSON object, a span missing one of
    ``id`` / ``name`` / ``start_s`` / ``dur_s``, a span time that is not a
    finite number (or a negative ``dur_s``), or a missing meta line.
    """
    meta: dict = {}
    spans: list[dict] = []
    snapshot: dict | None = None
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {lineno}: not JSON ({exc.msg})") from None
            if not isinstance(doc, dict):
                raise ValueError(f"line {lineno}: not a JSON object")
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
                meta = doc
            elif kind == "span":
                missing = [key for key in _SPAN_KEYS if key not in doc]
                if missing:
                    raise ValueError(
                        f"line {lineno}: span lacks {', '.join(missing)}"
                    )
                for key in ("start_s", "dur_s"):
                    value = doc[key]
                    if (type(value) not in (int, float) or not math.isfinite(value)
                            or (key == "dur_s" and value < 0)):
                        raise ValueError(
                            f"line {lineno}: span {key} {value!r} is not a finite"
                            f"{' non-negative' if key == 'dur_s' else ''} number"
                        )
                spans.append(doc)
            elif kind == "metrics":
                snapshot = doc
            else:
                raise ValueError(f"line {lineno}: unknown trace line kind {kind!r}")
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
                "tid": 0,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, spans: list[dict], run: str = "run") -> str:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(to_chrome_trace(spans, run=run), f, default=_jsonable)
        f.write("\n")
    return str(path)


# -- flamegraph export --------------------------------------------------------


def span_frames(span_id: str) -> list[str]:
    """Frame names along a span-id path (``#seq``/``@key`` suffixes cut).

    ``epoch#1/selection_round#0/unit@2-0-1`` →
    ``["epoch", "selection_round", "unit"]``.
    """
    frames = []
    for segment in span_id.split("/"):
        cut = len(segment)
        for sep in ("#", "@"):
            idx = segment.find(sep)
            if idx != -1:
                cut = min(cut, idx)
        frames.append(segment[:cut])
    return frames


def _span_weight(span: dict, weight: str, children_dur: dict) -> float:
    if weight == "wall":
        self_s = span["dur_s"] - children_dur.get(span["id"], 0.0)
        return max(0.0, self_s) * 1e6
    total = 0
    for key, value in (span.get("attrs") or {}).items():
        if not key.endswith("_bytes") or key == "sim_bytes" or isinstance(value, bool):
            continue
        try:
            total += int(value)
        except (TypeError, ValueError):
            continue
    return float(total)


def to_folded_stacks(spans: list[dict], weight: str = "wall") -> str:
    """Span list → collapsed-stack text (one ``stack weight`` per line).

    Identical name paths aggregate; lines come out sorted, weights are
    non-negative integers, zero-weight stacks are dropped.  ``wall``
    weights are self-time microseconds, ``bytes`` weights are bytes.
    """
    if weight not in FLAME_WEIGHTS:
        raise ValueError(f"unknown flame weight {weight!r} (one of {FLAME_WEIGHTS})")
    children_dur: dict[str, float] = {}
    if weight == "wall":
        for span in spans:
            parent = span.get("parent")
            if parent is not None:
                children_dur[parent] = children_dur.get(parent, 0.0) + span["dur_s"]
    stacks: dict[str, int] = {}
    for span in spans:
        value = int(round(_span_weight(span, weight, children_dur)))
        if value <= 0:
            continue
        stack = ";".join(span_frames(span["id"]))
        stacks[stack] = stacks.get(stack, 0) + value
    return "\n".join(f"{stack} {value}" for stack, value in sorted(stacks.items()))


def write_folded(path, spans: list[dict], weight: str = "wall") -> str:
    """Write :func:`to_folded_stacks` output to ``path``; returns the path."""
    folded = to_folded_stacks(spans, weight=weight)
    with open(path, "w", encoding="utf-8") as f:
        f.write(folded)
        if folded:
            f.write("\n")
    return str(path)
