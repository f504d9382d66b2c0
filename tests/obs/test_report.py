"""Trace aggregation: the report table and its exact byte reconciliation."""

import pytest

from repro import obs
from repro.core.config import NeSSAConfig, TrainRecipe
from repro.core.trainer import NeSSATrainer
from repro.data.synthetic import SyntheticConfig, make_train_test
from repro.nn.resnet import resnet20
from repro.obs.report import aggregate_trace, render_report


def _span(name, dur_s=0.0, attrs=None):
    return {
        "kind": "span",
        "id": f"{name}#0",
        "name": name,
        "parent": None,
        "start_s": 0.0,
        "dur_s": dur_s,
        "attrs": attrs or {},
    }


class TestAggregateTrace:
    def test_phase_counts_totals_and_byte_sums(self):
        spans = [
            _span("epoch", dur_s=2.0),
            _span("epoch", dur_s=4.0),
            _span("selection_round", dur_s=1.5, attrs={"pairwise_bytes": 100}),
            _span("feedback_quantize", dur_s=0.5, attrs={"link_bytes": 40}),
            _span("feedback_quantize", dur_s=0.5, attrs={"link_bytes": 2}),
        ]
        agg = aggregate_trace(spans)
        assert agg["phases"]["epoch"]["count"] == 2
        assert agg["phases"]["epoch"]["total_s"] == pytest.approx(6.0)
        assert agg["phases"]["epoch"]["mean_s"] == pytest.approx(3.0)
        assert agg["epoch_time_s"] == pytest.approx(6.0)
        assert agg["selection_time_s"] == pytest.approx(1.5)
        assert agg["selection_overhead"] == pytest.approx(0.25)
        assert agg["link_bytes"] == 42
        assert agg["pairwise_bytes"] == 100
        assert agg["data_moved_bytes"] == 142

    def test_sim_bytes_reported_per_phase_but_not_double_counted(self):
        spans = [
            _span("selection_round", attrs={"pairwise_bytes": 100}),
            _span("unit", attrs={"sim_bytes": 60}),
            _span("unit", attrs={"sim_bytes": 40}),
        ]
        agg = aggregate_trace(spans)
        assert agg["phases"]["unit"]["bytes"] == {"sim_bytes": 100}
        assert agg["data_moved_bytes"] == 100  # pairwise only, units excluded

    def test_bool_and_non_numeric_byte_attrs_skipped(self):
        spans = [_span("x", attrs={"cached_bytes": True, "link_bytes": "nope"})]
        agg = aggregate_trace(spans)
        assert agg["phases"]["x"]["bytes"] == {}
        assert agg["data_moved_bytes"] == 0

    def test_no_epochs_means_no_overhead_figure(self):
        agg = aggregate_trace([_span("bench", dur_s=1.0)])
        assert agg["selection_overhead"] is None
        assert agg["epoch_time_s"] == 0.0


class TestDerivedPipelineLines:
    def _render(self, metrics):
        return render_report({"meta": {"run": "t"}, "spans": [],
                              "metrics": metrics})

    def test_no_pipeline_metrics_no_derived_lines(self):
        out = self._render({"counters": {"selection.rounds": 2}})
        # the snapshot ends the report as the raw dump, nothing derived
        assert out.split("\n\n")[-1].split() == ["counters:", "selection.rounds", "2"]


class TestRealRunReconciliation:
    @pytest.fixture(scope="class")
    def traced_run(self):
        train, test = make_train_test(
            SyntheticConfig(
                num_classes=4, num_samples=240, image_shape=(3, 8, 8), seed=21
            )
        )
        base = TrainRecipe().scaled(3)
        recipe = TrainRecipe(
            epochs=3,
            batch_size=48,
            lr=0.05,
            clip_grad_norm=5.0,
            lr_milestones=base.lr_milestones,
            lr_gamma_div=base.lr_gamma_div,
        )
        config = NeSSAConfig(subset_fraction=0.3, biasing_drop_period=3, seed=0)

        def factory():
            return resnet20(num_classes=4, width=4, seed=13)

        tracer = obs.Tracer(run="test-nessa")
        registry = obs.MetricsRegistry()
        obs.set_tracer(tracer)
        obs.set_metrics(registry)
        try:
            trainer = NeSSATrainer(factory(), recipe, config, factory)
            history = trainer.train(train, test)
        finally:
            obs.set_tracer(None)
            obs.set_metrics(None)
        return tracer, registry, history

    def test_data_moved_reconciles_exactly_with_history(self, traced_run):
        tracer, _, history = traced_run
        agg = aggregate_trace([r.to_dict() for r in tracer.records])
        assert agg["link_bytes"] == history.total_feedback_bytes
        assert agg["pairwise_bytes"] == history.total_selection_pairwise_bytes
        assert agg["data_moved_bytes"] == history.data_movement_bytes
        assert agg["data_moved_bytes"] > 0

    def test_epoch_spans_match_history_wall_times(self, traced_run):
        tracer, _, history = traced_run
        epochs = [r for r in tracer.records if r.name == "epoch"]
        assert len(epochs) == history.epochs
        # The epoch span covers the same region wall_time_s measures.
        for record, epoch_record in zip(epochs, history.records):
            assert record.dur_s == pytest.approx(
                epoch_record.wall_time_s, rel=0.25, abs=0.02
            )

    def test_selection_counters_land_in_registry(self, traced_run):
        tracer, registry, history = traced_run
        snap = registry.snapshot()["counters"]
        units = [r for r in tracer.records if r.name == "unit"]
        assert snap["selection.rounds"] == history.epochs
        assert snap["selection.units_executed"] == len(units) > 0

    def test_render_report_headlines(self, traced_run):
        tracer, registry, history = traced_run
        trace = {
            "meta": {"run": "test-nessa"},
            "spans": [r.to_dict() for r in tracer.records],
            "metrics": registry.snapshot(),
        }
        out = render_report(trace)
        assert "run: test-nessa" in out
        assert f"{history.data_movement_bytes:,d}" in out
        assert "selection overhead" in out
        assert "selection.units_executed" in out
