"""Process-wide metrics registry: counters and gauges.

Instrumented code reaches the registry through :func:`metrics`; by
default that returns the shared :class:`NullRegistry`, whose
``counter()`` / ``gauge()`` hand back do-nothing singletons —
disabled-mode cost is one global read plus one no-op call, with no
allocation and no dict lookups.  ``repro.cli``'s ``--trace`` flag
installs a real :class:`MetricsRegistry` for the run and dumps its
snapshot into the trace file's final JSONL line.

Names are dotted (``selection.rounds``, ``nn.layout.repacks``);
instruments are created on first use and accumulate for the registry's
lifetime.  Everything here is stdlib-only and single-process.  Each
real instrument's read-modify-write goes through its own lock, so an
update is atomic from any thread that holds the registry.  The
null-registry fast path stays lock-free: disabled mode is still one
global read plus one no-op call.

**The metric table.**  :data:`METRIC_TABLE` is the single declaration
point for every metric name the codebase records: ``name -> (type,
help)``.  The NES011 check in ``tests/analysis`` enforces that every
``metrics().counter/gauge(...)`` call site passes a dotted-namespace
string *literal* declared here, so the set of names a trace can carry
— the keys ``report`` prints and ``obsdiff`` aligns on — is knowable
without running the code.
"""

from __future__ import annotations

import threading

__all__ = [
    "METRIC_TABLE",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "metrics",
    "set_metrics",
]

# The single source of truth for metric identity: every name recorded
# through this registry appears here (NES011-enforced).
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
    "selection.rounds": (
        "counter",
        "Selection rounds executed",
    ),
    "selection.units_executed": (
        "counter",
        "(class x chunk) work units executed across selection rounds",
    ),
}


class Counter:
    """Monotone accumulator (``inc`` by a non-negative amount)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a gauge")
        with self._lock:
            self.value += amount


class Gauge:
    """Last-write-wins sample (``set``)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)


class MetricsRegistry:
    """Named instruments, created on first use."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(name, Counter(name))
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(name, Gauge(name))
        return instrument

    def snapshot(self) -> dict:
        """JSON-able dump of every instrument's current state."""
        with self._lock:
            return {
                "counters": {n: c.value for n, c in sorted(self._counters.items())},
                "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()


class _NullCounter:
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()


class NullRegistry:
    """Disabled-mode registry: every instrument is a shared no-op."""

    def counter(self, name: str) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str) -> _NullGauge:
        return _NULL_GAUGE

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}}

    def reset(self) -> None:
        pass


NULL_REGISTRY = NullRegistry()

_REGISTRY = NULL_REGISTRY


def metrics():
    """The active registry (the shared null registry when disabled)."""
    return _REGISTRY


def set_metrics(registry) -> object:
    """Install ``registry`` process-wide (``None`` restores the null one);
    returns the previous registry."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry if registry is not None else NULL_REGISTRY
    return previous
