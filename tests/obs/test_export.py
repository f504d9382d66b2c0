"""Prometheus text-format export and the declared metric table."""

import re

from repro import obs
from repro.obs.export import METRIC_TABLE, prometheus_name, render_prometheus

# promtool's grammar for one sample line (no labels in our export).
_SAMPLE_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]* -?[0-9.einfEINF+-]+$")


class TestMetricTable:
    def test_every_entry_is_dotted_with_type_and_help(self):
        for name, (kind, help_text) in METRIC_TABLE.items():
            assert "." in name, name
            assert kind in ("counter", "gauge", "timer"), name
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


class TestPrometheusRendering:
    SNAPSHOT = {
        "counters": {"selection.rounds": 3, "proxy_cache.misses": 4096},
        "gauges": {"phase.level": 0.875},
        "timers": {"phase.wait": {"count": 2, "total_s": 0.25, "mean_s": 0.125}},
    }

    def test_names_flatten_under_repro_prefix(self):
        assert prometheus_name("proxy_cache.hits", "counter") == \
            "repro_proxy_cache_hits"
        assert prometheus_name("phase.wait", "timer") == \
            "repro_phase_wait_seconds"

    def test_format_shape(self, monkeypatch):
        # No gauge or timer is declared in the shipped table; declare one
        # of each here so the gauge and summary renderings are exercised.
        monkeypatch.setitem(METRIC_TABLE, "phase.level", ("gauge", "Test level"))
        monkeypatch.setitem(METRIC_TABLE, "phase.wait", ("timer", "Test wait"))
        out = render_prometheus(self.SNAPSHOT)
        lines = out.splitlines()
        assert out.endswith("\n")
        assert "# HELP repro_selection_rounds Selection rounds executed" in lines
        assert "# TYPE repro_selection_rounds counter" in lines
        assert "repro_selection_rounds 3" in lines
        assert "# TYPE repro_phase_level gauge" in lines
        assert "repro_phase_level 0.875" in lines
        # timers export as summaries: _count + _sum under _seconds
        assert "# TYPE repro_phase_wait_seconds summary" in lines
        assert "repro_phase_wait_seconds_count 2" in lines
        assert "repro_phase_wait_seconds_sum 0.25" in lines
        for line in lines:
            if not line.startswith("#"):
                assert _SAMPLE_RE.match(line), line

    def test_deterministic_ordering(self):
        out = render_prometheus(self.SNAPSHOT)
        assert out == render_prometheus(dict(reversed(self.SNAPSHOT.items())))
        names = [l.split()[2] for l in out.splitlines()
                 if l.startswith("# TYPE")]
        assert names == sorted(names)

    def test_undeclared_name_exports_untyped(self):
        out = render_prometheus({"counters": {"rogue.series": 1}})
        assert "# TYPE repro_rogue_series untyped" in out
        assert "(undeclared metric rogue.series)" in out

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus({}) == ""

    def test_write_prometheus_round_trips(self, tmp_path):
        path = tmp_path / "metrics.prom"
        out = obs.write_prometheus(path, self.SNAPSHOT)
        assert out == str(path)
        assert path.read_text() == render_prometheus(self.SNAPSHOT)
