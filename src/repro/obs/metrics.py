"""Process-wide metrics registry: counters, gauges, histogram timers.

Instrumented code reaches the registry through :func:`metrics`; by
default that returns the shared :class:`NullRegistry`, whose
``counter()`` / ``gauge()`` / ``timer()`` hand back do-nothing
singletons — disabled-mode cost is one global read plus one no-op call,
with no allocation and no dict lookups.  ``repro.cli``'s ``--trace``
flags install a real :class:`MetricsRegistry` for the run and dump its
snapshot into the trace file's final JSONL line.

Names are dotted (``proxy_cache.hits``, ``selection.rounds``);
instruments are created on first use and accumulate for the registry's
lifetime.  Everything here is stdlib-only and single-process.  Each
real instrument's read-modify-write goes through its own lock, so an
update is atomic from any thread that holds the registry.  The
null-registry fast path stays lock-free: disabled mode is still one
global read plus one no-op call.
"""

from __future__ import annotations

import threading

__all__ = [
    "Counter",
    "Gauge",
    "Timer",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "metrics",
    "set_metrics",
]


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


class Timer:
    """Streaming histogram of durations (count / total / min / max)."""

    __slots__ = ("name", "count", "total_s", "min_s", "max_s", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("durations must be >= 0")
        with self._lock:
            self.count += 1
            self.total_s += seconds
            self.min_s = min(self.min_s, seconds)
            self.max_s = max(self.max_s, seconds)

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "mean_s": self.mean_s,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
        }


class MetricsRegistry:
    """Named instruments, created on first use."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._timers: dict[str, Timer] = {}
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

    def timer(self, name: str) -> Timer:
        instrument = self._timers.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._timers.setdefault(name, Timer(name))
        return instrument

    def snapshot(self) -> dict:
        """JSON-able dump of every instrument's current state."""
        with self._lock:
            return {
                "counters": {n: c.value for n, c in sorted(self._counters.items())},
                "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
                "timers": {n: t.to_dict() for n, t in sorted(self._timers.items())},
            }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._timers.clear()


class _NullCounter:
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullTimer:
    __slots__ = ()

    def observe(self, seconds: float) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_TIMER = _NullTimer()


class NullRegistry:
    """Disabled-mode registry: every instrument is a shared no-op."""

    def counter(self, name: str) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str) -> _NullGauge:
        return _NULL_GAUGE

    def timer(self, name: str) -> _NullTimer:
        return _NULL_TIMER

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "timers": {}}

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
