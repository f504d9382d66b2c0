"""Per-span memory attribution and flamegraph export (schema 2).

NeSSA's selection overhead argument is a *resource* argument, not just a
wall-clock one: the scratch buffers a round leases, the proxy arrays it
allocates and the shared-memory segments it publishes all count against
the near-storage budget.  This module attributes those bytes to the
trace's spans so ``repro.cli obsdiff`` can catch a leak the same way it
catches a slowdown.

Two mechanisms:

- :class:`SpanMemoryProfiler` — tracemalloc-driven attribution.  At
  every span boundary (enter/exit) the interval since the previous
  boundary is credited to the span that was **innermost open** during
  it: net allocation delta into ``mem_net_bytes``, the interval's peak
  excursion into ``mem_peak_bytes`` (the max over the span's own
  intervals — children account for their own).  Profiling is opt-in
  (``--profile-mem``): the tracer only instantiates a profiler when
  asked, so the <2% no-op overhead contract of the disabled path is
  untouched and a profiler-less tracer never imports :mod:`tracemalloc`.
- :func:`credit_bytes` — explicit attribution for allocations the
  tracer cannot see through tracemalloc deltas alone because they are
  pooled or live outside the Python heap: :class:`repro.nn.scratch.
  BufferPool` credits ``mem_pool_lease_bytes`` / ``mem_pool_release_
  bytes`` on lease/release.  All profiling attrs share the ``mem_``
  prefix: the report excludes them from the data-moved byte columns and
  the diff engine compares them with tolerance (and excuses their
  absence, which is how schema-1 and profiling-off traces stay
  comparable).

The flamegraph exporter (:func:`to_folded_stacks`) renders a span list
as collapsed-stack text — ``epoch;selection_round;unit 1234`` per line —
the format ``flamegraph.pl``, speedscope and inferno all load directly.
Frame names come from the deterministic span-id path, so two runs of the
same config produce structurally identical flamegraphs.  Weights:

- ``wall`` — self wall time in microseconds (children subtracted);
- ``bytes`` — the span's own data-movement attrs (every ``*_bytes``
  attr except ``sim_bytes``, the per-unit share already counted on its
  round, and the ``mem_*`` profiling attrs);
- ``allocs`` — ``mem_net_bytes`` clamped at zero (requires a
  ``--profile-mem`` trace).
"""

from __future__ import annotations

__all__ = [
    "SpanMemoryProfiler",
    "credit_bytes",
    "span_frames",
    "to_folded_stacks",
    "write_folded",
    "FLAME_WEIGHTS",
]

FLAME_WEIGHTS = ("wall", "bytes", "allocs")


class SpanMemoryProfiler:
    """tracemalloc boundary accounting for one tracer.

    Starts :mod:`tracemalloc` on construction (remembering whether it
    was already tracing, so :meth:`stop` never turns off someone else's
    session).  The tracer calls :meth:`boundary` at every span
    enter/exit and :meth:`finalize` when a span closes.
    """

    def __init__(self):
        import tracemalloc

        self._tracemalloc = tracemalloc
        self._started = not tracemalloc.is_tracing()
        if self._started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        self._last_current = tracemalloc.get_traced_memory()[0]
        # span id -> [net_bytes, peak_bytes] while the span is open
        self._live: dict[str, list[int]] = {}

    def boundary(self, span) -> None:
        """Close the current attribution interval, crediting ``span``.

        ``span`` is the span that was innermost open since the previous
        boundary (``None`` when the stack was empty — the interval is
        nobody's and only advances the baseline).
        """
        current, peak = self._tracemalloc.get_traced_memory()
        if span is not None:
            entry = self._live.setdefault(span.id, [0, 0])
            entry[0] += current - self._last_current
            entry[1] = max(entry[1], peak - self._last_current)
        self._tracemalloc.reset_peak()
        self._last_current = current

    def finalize(self, span) -> None:
        """Stamp the accumulated attribution onto the closing span."""
        net, peak = self._live.pop(span.id, (0, 0))
        attrs = span.record.attrs
        attrs["mem_net_bytes"] = int(net)
        attrs["mem_peak_bytes"] = int(max(peak, 0))

    def stop(self) -> None:
        """Stop tracemalloc if this profiler started it (idempotent)."""
        if self._started:
            self._started = False
            self._tracemalloc.stop()


def credit_bytes(attr: str, nbytes: int) -> None:
    """Add ``nbytes`` to ``attr`` on the innermost open span.

    No-op unless a tracer with an active memory profiler is installed.
    ``attr`` must carry the ``mem_`` prefix so the diff/report layers
    classify it as profiling detail.
    """
    from repro.obs import tracer as tracer_mod

    active = tracer_mod.get_tracer()
    if active is None or active.profiler is None:
        return
    stack = active._stack
    if not stack:
        return
    attrs = stack[-1].record.attrs
    attrs[attr] = attrs.get(attr, 0) + int(nbytes)


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
    attrs = span.get("attrs") or {}
    if weight == "wall":
        self_s = span["dur_s"] - children_dur.get(span["id"], 0.0)
        return max(0.0, self_s) * 1e6
    if weight == "bytes":
        total = 0
        for key, value in attrs.items():
            if not key.endswith("_bytes") or key == "sim_bytes":
                continue
            if key.startswith("mem_") or isinstance(value, bool):
                continue
            try:
                total += int(value)
            except (TypeError, ValueError):
                continue
        return float(total)
    if weight == "allocs":
        try:
            return float(max(0, int(attrs.get("mem_net_bytes", 0))))
        except (TypeError, ValueError):
            return 0.0
    raise ValueError(f"unknown flame weight {weight!r} (one of {FLAME_WEIGHTS})")


def to_folded_stacks(spans: list[dict], weight: str = "wall") -> str:
    """Span list → collapsed-stack text (one ``stack weight`` per line).

    Identical name paths aggregate; lines come out sorted, weights are
    non-negative integers, zero-weight stacks are dropped.  ``wall``
    weights are self-time microseconds, ``bytes``/``allocs`` are bytes.
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
