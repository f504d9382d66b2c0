"""Metrics registry: instruments, snapshots, the null no-op mode, and the
declared metric table."""

import pytest

from repro import obs
from repro.obs.metrics import METRIC_TABLE, NULL_REGISTRY


class TestInstruments:
    def test_counter_accumulates_and_rejects_negatives(self, registry):
        c = registry.counter("proxy_cache.hits")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_same_name_returns_same_instrument(self, registry):
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")

    def test_gauge_last_write_wins(self, registry):
        g = registry.gauge("subset.fraction")
        g.set(0.3)
        g.set(0.21)
        assert g.value == 0.21

    def test_snapshot_is_sorted_and_jsonable(self, registry):
        registry.counter("b").inc(2)
        registry.counter("a").inc(1)
        registry.gauge("g").set(1.5)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a", "b"]
        assert snap == {"counters": {"a": 1, "b": 2}, "gauges": {"g": 1.5}}

    def test_reset_clears_everything(self, registry):
        registry.counter("a").inc()
        registry.reset()
        assert registry.snapshot()["counters"] == {}


class TestNullMode:
    def test_default_registry_is_the_shared_null(self):
        assert obs.metrics() is NULL_REGISTRY

    def test_null_instruments_are_shared_noops(self):
        null = obs.metrics()
        assert null.counter("x") is null.counter("y")
        null.counter("x").inc(10)
        null.gauge("g").set(3.0)
        assert null.snapshot() == {"counters": {}, "gauges": {}}

    def test_set_metrics_installs_and_restores(self):
        real = obs.MetricsRegistry()
        previous = obs.set_metrics(real)
        assert previous is NULL_REGISTRY
        obs.metrics().counter("hit").inc()
        assert real.counter("hit").value == 1
        assert obs.set_metrics(None) is real
        assert obs.metrics() is NULL_REGISTRY


class TestMetricTable:
    def test_every_entry_is_dotted_with_type_and_help(self):
        for name, (kind, help_text) in METRIC_TABLE.items():
            assert "." in name, name
            assert kind in ("counter", "gauge"), name
            assert help_text and "\n" not in help_text, name

    def test_every_recorded_metric_name_is_declared(self):
        # The NES011 lint rule enforces this statically over src/; this
        # is the dynamic cross-check on one real instrumented component.
        registry = obs.MetricsRegistry()
        obs.set_metrics(registry)
        try:
            from repro.parallel.cache import ProxyCache

            assert ProxyCache().get("no-such-key") is None
        finally:
            obs.set_metrics(None)
        snap = registry.snapshot()
        for name in snap["counters"]:
            assert name in METRIC_TABLE
