"""Run tracing: nested spans with deterministic identities.

A :class:`Tracer` records one run as a tree of timestamped **spans**
(``epoch``, ``selection_round``, ``proxy_compute``, ``chunk_select``,
``feedback_quantize``, ``io_replay``, per-unit spans, …), each carrying structured attributes (bytes moved, FLOPs,
cache hits, subset fractions).  Two properties matter more than the
timestamps:

- **Deterministic ids.**  A span's id is its path in the tree —
  ``epoch#3/selection_round#0/unit@1-0-2-1`` — where the ``#n`` suffix
  is a per-(parent, name) sequence number and the ``@key`` form is used
  for spans whose identity comes from a caller-supplied key (the
  selection executor keys unit spans on :attr:`WorkUnit.seed_key`).  Ids
  never involve wall clock, thread ids or pids, so traces of the same
  config align span for span.
- **Zero-overhead no-op mode.**  Instrumented code calls the
  module-level :func:`span` helper; when no tracer is installed it
  returns a shared do-nothing context manager — one global read and one
  call, no allocation.

Spans are *context managers by contract*: ``with obs.span(...) as sp``.
The NES006 lint rule enforces this (manual ``start()``/``end()`` pairs
are how spans leak open on error paths).  Spans timed outside the
tracer (per-unit spans) are forwarded as already-completed records via
:meth:`Tracer.add_completed`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = [
    "SpanRecord",
    "Span",
    "Tracer",
    "span",
    "add_completed",
    "enabled",
    "get_tracer",
    "set_tracer",
]


@dataclass
class SpanRecord:
    """One finished span.

    ``start_s`` is seconds since the tracer's construction (its epoch),
    so records serialize small and Chrome-trace timestamps are direct.
    """

    id: str
    name: str
    parent_id: str | None
    start_s: float
    dur_s: float
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": "span",
            "id": self.id,
            "name": self.name,
            "parent": self.parent_id,
            "start_s": self.start_s,
            "dur_s": self.dur_s,
            "attrs": self.attrs,
        }


class Span:
    """A live span; use only as ``with tracer.span(...) as sp``.

    ``set(**attrs)`` attaches structured attributes at any point before
    exit.  The id is assigned at creation from the tracer's current
    stack, so creating a span and entering it later (or never) would
    misattribute children — hence the NES006 ``with`` requirement.
    """

    __slots__ = ("_tracer", "record", "_entered")

    def __init__(self, tracer: "Tracer", record: SpanRecord):
        self._tracer = tracer
        self.record = record
        self._entered = False

    @property
    def id(self) -> str:
        return self.record.id

    def set(self, **attrs) -> None:
        """Attach attributes to the span (last write per key wins)."""
        self.record.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self._entered = True
        self._tracer._enter(self)
        return self

    def __exit__(self, *exc) -> bool:
        self._tracer._exit(self)
        return False


class _NoopSpan:
    """Shared do-nothing span returned when tracing is disabled."""

    __slots__ = ()
    id = ""

    def set(self, **attrs) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Collects one run's spans; see module docstring for the id scheme.

    Parameters
    ----------
    run : label recorded in the trace meta line (e.g.
        ``train-nessa-cifar10``).
    meta : extra JSON-able metadata for the trace header.
    """

    def __init__(self, run: str = "run", meta: dict | None = None):
        self.run = run
        self.meta = dict(meta or {})
        self.records: list[SpanRecord] = []
        self.t0 = time.perf_counter()
        self._stack: list[Span] = []
        self._seq: dict[tuple[str | None, str], int] = {}

    # -- id derivation -------------------------------------------------------

    def _derive_id(self, parent_id: str | None, name: str, key=None) -> str:
        if key is not None:
            suffix = f"{name}@{_render_key(key)}"
        else:
            seq = self._seq.get((parent_id, name), 0)
            self._seq[(parent_id, name)] = seq + 1
            suffix = f"{name}#{seq}"
        return suffix if parent_id is None else f"{parent_id}/{suffix}"

    @property
    def current_id(self) -> str | None:
        """Id of the innermost open span (parent for new spans)."""
        return self._stack[-1].id if self._stack else None

    # -- span lifecycle ------------------------------------------------------

    def span(self, name: str, key=None, **attrs) -> Span:
        """Create a child span of the innermost open span.

        Must be used as a context manager (``with``); NES006 enforces
        this in the source tree.
        """
        record = SpanRecord(
            id=self._derive_id(self.current_id, name, key=key),
            name=name,
            parent_id=self.current_id,
            start_s=0.0,
            dur_s=0.0,
            attrs=dict(attrs),
        )
        return Span(self, record)

    def _enter(self, sp: Span) -> None:
        self._stack.append(sp)
        sp.record.start_s = time.perf_counter() - self.t0

    def _exit(self, sp: Span) -> None:
        sp.record.dur_s = time.perf_counter() - self.t0 - sp.record.start_s
        # Tolerate exception-driven unwinding: pop through to this span.
        while self._stack:
            top = self._stack.pop()
            if top is sp:
                break
        self.records.append(sp.record)

    def add_completed(
        self,
        name: str,
        key=None,
        start: float | None = None,
        dur_s: float = 0.0,
        parent_id: str | None = None,
        **attrs,
    ) -> SpanRecord:
        """Ingest an already-finished span (timed by its forwarder).

        ``start`` is an absolute :func:`time.perf_counter` reading;
        ``None`` stamps "now".  The id is derived from ``key`` when
        given — the executor passes :attr:`WorkUnit.seed_key`, so a
        unit's span id never depends on execution order.
        """
        if parent_id is None:
            parent_id = self.current_id
        if start is None:
            start = time.perf_counter()
        record = SpanRecord(
            id=self._derive_id(parent_id, name, key=key),
            name=name,
            parent_id=parent_id,
            start_s=start - self.t0,
            dur_s=dur_s,
            attrs=dict(attrs),
        )
        self.records.append(record)
        return record


def _render_key(key) -> str:
    """Render a span key as a stable id fragment (no spaces, no commas)."""
    if isinstance(key, (tuple, list)):
        return "-".join(_render_key(k) for k in key)
    return str(key)


# -- process-wide active tracer ----------------------------------------------

_ACTIVE: Tracer | None = None


def enabled() -> bool:
    """Is a tracer installed?"""
    return _ACTIVE is not None


def get_tracer() -> Tracer | None:
    return _ACTIVE


def set_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install ``tracer`` process-wide; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    return previous


def span(name: str, key=None, **attrs):
    """A span on the active tracer, or the shared no-op when disabled.

    The returned object must be ``with``-managed by the caller, which is
    why this factory is exempt from NES006's call-site check only via
    the return position below.
    """
    if _ACTIVE is None:
        return NOOP_SPAN
    return _ACTIVE.span(name, key=key, **attrs)


def add_completed(name: str, key=None, **kwargs) -> None:
    """Forward a completed span to the active tracer (no-op when disabled)."""
    if _ACTIVE is not None:
        _ACTIVE.add_completed(name, key=key, **kwargs)
