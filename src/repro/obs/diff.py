"""Cross-run trace diff: align two JSONL run-traces by deterministic span id.

The tracer's ids are tree paths derived from (parent, name) sequence
counters and work-unit seed keys — never wall clock, thread ids or pids
— so two traces of the same config align *structurally*: span
``epoch#3/selection_round#0/unit@1-0-2-1`` in run A is the same logical
work as the identically-named span in run B.  This module exploits that
to answer "did this change make round 3 slower, or move more bytes
than the reference?" as a machine-checkable verdict
instead of a by-eye comparison of two timing logs.

**Alignment and classification.**  Spans pair by id; unpaired spans are
``added`` (only in B) or ``removed`` (only in A) and always count as
structural drift.  Value mismatches on a span present in both traces
are classified by attribute below.

**Attribute comparison.**  Two classes, by key convention:

- ``*_s`` wall times (including ``dur_s``) — compared with the
  relative tolerance, flagged only on slowdown, and skipped entirely
  when both sides sit under ``min_dur_s`` (sub-millisecond spans jitter
  multiples without meaning anything).
- everything else — bytes, MACs, counters, labels — compared
  **exactly**; any delta (or one-sided presence) is a regression.

**Metrics reconciliation.**  The final snapshot line diffs the same
way: counters exactly, gauges with tolerance.  A metric name present on
one side only is always structural drift: two runs of one configuration
record the same metric names, so there is nothing to excuse.

**Verdict.**  ``structural-drift`` (any shape difference) >
``regressed`` (any value delta) > ``ok``.  ``repro.cli obsdiff A B
--fail-on <verdict>`` exits non-zero at or above the named severity —
``tests/obs/test_reference_trace.py`` diffs a fresh trace against the
committed reference with ``--tolerance inf`` (wall times float, bytes
and counters must match exactly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.obs.sinks import read_trace

__all__ = [
    "TraceDiff",
    "diff_traces",
    "diff_trace_files",
    "VERDICTS",
]

# Severity order: index == exit-gate severity.
VERDICTS = ("ok", "regressed", "structural-drift")


_EMPTY_SNAPSHOT = {"counters": {}, "gauges": {}}


def _exceeds(a: float, b: float, tolerance: float) -> bool:
    """Is ``b`` above ``a`` by more than the relative tolerance?"""
    if math.isinf(tolerance):
        return False
    if a <= 0:
        return b > 0
    return b > a * (1.0 + tolerance)


def _ratio(a: float, b: float) -> float | None:
    return (b / a) if a > 0 else None


@dataclass
class TraceDiff:
    """Structured outcome of one A-vs-B trace comparison."""

    verdict: str = "ok"
    matched: int = 0
    added: list = field(default_factory=list)
    removed: list = field(default_factory=list)
    attr_deltas: list = field(default_factory=list)
    time_deltas: list = field(default_factory=list)
    metric_deltas: list = field(default_factory=list)
    metric_drift: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    tolerance: float = 0.25
    min_dur_s: float = 0.005

    @property
    def severity(self) -> int:
        return VERDICTS.index(self.verdict)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "matched": self.matched,
            "added": self.added,
            "removed": self.removed,
            "attr_deltas": self.attr_deltas,
            "time_deltas": self.time_deltas,
            "metric_deltas": self.metric_deltas,
            "metric_drift": self.metric_drift,
            "notes": self.notes,
            "tolerance": self.tolerance,
            "min_dur_s": self.min_dur_s,
        }

    def render(self) -> str:
        tol = "inf" if math.isinf(self.tolerance) else f"{self.tolerance:.0%}"
        lines = [
            f"verdict: {self.verdict}",
            f"spans: {self.matched} matched, {len(self.added)} added, "
            f"{len(self.removed)} removed "
            f"(wall tolerance +{tol}, floor {self.min_dur_s * 1e3:.1f}ms)",
        ]
        for note in self.notes:
            lines.append(f"note: {note}")
        if self.added:
            lines.append("added spans:")
            lines.extend(f"  + {span_id}" for span_id in self.added)
        if self.removed:
            lines.append("removed spans:")
            lines.extend(f"  - {span_id}" for span_id in self.removed)
        if self.attr_deltas:
            lines.append("attribute deltas (exact-compare class):")
            for d in self.attr_deltas:
                lines.append(
                    f"  {d['id']} {d['attr']}: {d['a']!r} -> {d['b']!r}"
                )
        if self.time_deltas:
            lines.append(f"wall-time regressions (> +{tol}):")
            for d in self.time_deltas:
                ratio = f" ({d['ratio']:.2f}x)" if d.get("ratio") else ""
                lines.append(
                    f"  {d['id']} {d['attr']}: {d['a']:.4f}s -> "
                    f"{d['b']:.4f}s{ratio}"
                )
        if self.metric_deltas:
            lines.append("metric deltas:")
            for d in self.metric_deltas:
                lines.append(
                    f"  {d['kind']} {d['name']}: {d['a']!r} -> {d['b']!r}"
                )
        if self.metric_drift:
            lines.append("metrics present on one side only:")
            for d in self.metric_drift:
                lines.append(f"  {d['side']}: {d['kind']} {d['name']}")
        if self.verdict == "ok":
            lines.append("traces are equivalent")
        return "\n".join(lines)


def _compare_span_attrs(span_id, attrs_a, attrs_b, diff: TraceDiff) -> None:
    for key in sorted(set(attrs_a) | set(attrs_b)):
        in_a, in_b = key in attrs_a, key in attrs_b
        va, vb = attrs_a.get(key), attrs_b.get(key)
        if key.endswith("_s") and isinstance(va, (int, float)) \
                and isinstance(vb, (int, float)) and in_a and in_b:
            if max(va, vb) < diff.min_dur_s:
                continue
            if _exceeds(va, vb, diff.tolerance):
                diff.time_deltas.append(
                    {"id": span_id, "attr": key, "a": float(va),
                     "b": float(vb), "ratio": _ratio(va, vb)}
                )
            continue
        if (not (in_a and in_b)) or va != vb:
            diff.attr_deltas.append(
                {"id": span_id, "attr": key,
                 "a": va if in_a else "<absent>",
                 "b": vb if in_b else "<absent>"}
            )


def _compare_metrics(ma, mb, diff: TraceDiff) -> None:
    ma = ma or _EMPTY_SNAPSHOT
    mb = mb or _EMPTY_SNAPSHOT
    for kind in ("counters", "gauges"):
        section_a = ma.get(kind) or {}
        section_b = mb.get(kind) or {}
        for name in sorted(set(section_a) | set(section_b)):
            in_a, in_b = name in section_a, name in section_b
            if not (in_a and in_b):
                diff.metric_drift.append(
                    {"kind": kind[:-1], "name": name,
                     "side": "only in A" if in_a else "only in B"}
                )
                continue
            va, vb = section_a[name], section_b[name]
            if kind == "counters":
                if va != vb:
                    diff.metric_deltas.append(
                        {"kind": "counter", "name": name, "a": va, "b": vb}
                    )
            else:
                lo, hi = min(va, vb), max(va, vb)
                if _exceeds(lo, hi, diff.tolerance):
                    diff.metric_deltas.append(
                        {"kind": "gauge", "name": name, "a": va, "b": vb}
                    )


def diff_traces(
    a: dict,
    b: dict,
    *,
    tolerance: float = 0.25,
    min_dur_s: float = 0.005,
) -> TraceDiff:
    """Diff two loaded traces (:func:`repro.obs.read_trace` output)."""
    if not tolerance >= 0:  # NaN compares False both ways
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    if not min_dur_s >= 0:  # a NaN floor would skip every span
        raise ValueError(f"min_dur_s must be >= 0, got {min_dur_s}")
    diff = TraceDiff(tolerance=float(tolerance), min_dur_s=float(min_dur_s))

    run_a = a["meta"].get("run")
    run_b = b["meta"].get("run")
    if run_a != run_b:
        diff.notes.append(f"run labels differ: {run_a!r} vs {run_b!r}")
    schema_a = a["meta"].get("schema")
    schema_b = b["meta"].get("schema")
    if schema_a != schema_b:
        diff.notes.append(f"schemas differ: {schema_a} vs {schema_b}")

    spans_a: dict[str, dict] = {}
    spans_b: dict[str, dict] = {}
    for source, table, label in ((a, spans_a, "A"), (b, spans_b, "B")):
        for span in source["spans"]:
            if span["id"] in table:
                diff.notes.append(
                    f"duplicate span id in {label}: {span['id']} (last wins)"
                )
            table[span["id"]] = span

    diff.removed = [sp["id"] for sp in a["spans"] if sp["id"] not in spans_b]
    diff.added = [sp["id"] for sp in b["spans"] if sp["id"] not in spans_a]

    for span_id, span_a in spans_a.items():
        span_b = spans_b.get(span_id)
        if span_b is None:
            continue
        diff.matched += 1
        if span_a["name"] != span_b["name"]:
            diff.attr_deltas.append(
                {"id": span_id, "attr": "name",
                 "a": span_a["name"], "b": span_b["name"]}
            )
        dur_a, dur_b = span_a["dur_s"], span_b["dur_s"]
        if max(dur_a, dur_b) >= min_dur_s and _exceeds(dur_a, dur_b, tolerance):
            diff.time_deltas.append(
                {"id": span_id, "attr": "dur_s", "a": float(dur_a),
                 "b": float(dur_b), "ratio": _ratio(dur_a, dur_b)}
            )
        _compare_span_attrs(
            span_id, span_a.get("attrs") or {}, span_b.get("attrs") or {}, diff
        )

    _compare_metrics(a.get("metrics"), b.get("metrics"), diff)

    if diff.added or diff.removed or diff.metric_drift:
        diff.verdict = "structural-drift"
    elif diff.attr_deltas or diff.time_deltas or diff.metric_deltas:
        diff.verdict = "regressed"
    else:
        diff.verdict = "ok"
    return diff


def diff_trace_files(path_a, path_b, **kwargs) -> TraceDiff:
    """Load two JSONL traces and diff them (see :func:`diff_traces`)."""
    return diff_traces(read_trace(path_a), read_trace(path_b), **kwargs)
