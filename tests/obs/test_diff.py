"""Cross-run trace diff: alignment, verdicts, CLI gates."""

import json
import math

import pytest

from repro import obs
from repro.cli import main
from repro.core.config import NeSSAConfig, TrainRecipe
from repro.core.trainer import NeSSATrainer
from repro.data.synthetic import SyntheticConfig, make_train_test
from repro.nn.resnet import resnet20
from repro.obs.diff import diff_traces


def _span(span_id, name=None, dur_s=0.01, attrs=None, parent=None):
    return {
        "kind": "span",
        "id": span_id,
        "name": name or span_id.rsplit("/", 1)[-1].split("#")[0].split("@")[0],
        "parent": parent,
        "start_s": 0.0,
        "dur_s": dur_s,
        "attrs": attrs or {},
    }


def _trace(spans, metrics=None, run="test", schema=2):
    return {
        "meta": {"kind": "meta", "schema": schema, "run": run},
        "spans": spans,
        "metrics": metrics,
    }


class TestAlignment:
    def test_identical_traces_are_ok(self):
        spans = [
            _span("epoch#0", dur_s=1.0, attrs={"train_loss": 2.5}),
            _span("epoch#0/feedback_quantize#0", dur_s=0.1,
                  attrs={"link_bytes": 640}, parent="epoch#0"),
        ]
        diff = diff_traces(_trace(spans), _trace(spans))
        assert diff.verdict == "ok"
        assert diff.matched == 2
        assert not (diff.added or diff.removed or diff.attr_deltas
                    or diff.time_deltas)
        assert "traces are equivalent" in diff.render()

    def test_undeclared_extra_span_is_structural_drift(self):
        a = _trace([_span("epoch#0")])
        b = _trace([_span("epoch#0"), _span("epoch#0/mystery#0")])
        diff = diff_traces(a, b)
        assert diff.verdict == "structural-drift"
        assert diff.added == ["epoch#0/mystery#0"]
        diff = diff_traces(b, a)
        assert diff.removed == ["epoch#0/mystery#0"]
        assert diff.verdict == "structural-drift"

    def test_run_label_and_schema_mismatch_are_noted(self):
        a = _trace([_span("epoch#0")], run="reference", schema=1)
        b = _trace([_span("epoch#0")], run="fresh", schema=2)
        diff = diff_traces(a, b)
        assert diff.verdict == "ok"
        assert any("run labels differ" in n for n in diff.notes)
        assert any("schemas differ" in n for n in diff.notes)


class TestValueComparison:
    def test_slowdown_beyond_tolerance_regresses(self):
        a = _trace([_span("epoch#0", dur_s=0.10)])
        b = _trace([_span("epoch#0", dur_s=0.30)])
        diff = diff_traces(a, b, tolerance=0.25)
        assert diff.verdict == "regressed"
        assert diff.time_deltas[0]["ratio"] == pytest.approx(3.0)

    def test_speedup_never_flags(self):
        a = _trace([_span("epoch#0", dur_s=0.30)])
        b = _trace([_span("epoch#0", dur_s=0.10)])
        assert diff_traces(a, b, tolerance=0.25).verdict == "ok"

    def test_sub_floor_jitter_ignored(self):
        # 4x apart, but both under the min_dur_s floor: meaningless jitter.
        a = _trace([_span("step#0", dur_s=0.001)])
        b = _trace([_span("step#0", dur_s=0.004)])
        assert diff_traces(a, b, tolerance=0.25).verdict == "ok"

    def test_infinite_tolerance_ignores_time_but_not_bytes(self):
        a = _trace([_span("epoch#0", dur_s=0.1, attrs={"link_bytes": 10})])
        b = _trace([_span("epoch#0", dur_s=9.9, attrs={"link_bytes": 20})])
        diff = diff_traces(a, b, tolerance=math.inf)
        assert diff.verdict == "regressed"
        assert not diff.time_deltas
        assert diff.attr_deltas[0]["attr"] == "link_bytes"

    def test_byte_attrs_compare_exactly(self):
        a = _trace([_span("unit@0", attrs={"sim_bytes": 1000})])
        b = _trace([_span("unit@0", attrs={"sim_bytes": 1001})])
        assert diff_traces(a, b).verdict == "regressed"

    def test_negative_tolerance_rejected(self):
        # NaN would make every wall-time comparison False: a silent "ok".
        for tolerance in (-0.1, float("nan")):
            with pytest.raises(ValueError):
                diff_traces(_trace([]), _trace([]), tolerance=tolerance)

    def test_nan_or_negative_floor_rejected(self):
        # A NaN floor would skip every span's wall time: a silent "ok".
        for min_dur_s in (-0.001, float("nan")):
            with pytest.raises(ValueError, match="min_dur_s"):
                diff_traces(_trace([]), _trace([]), min_dur_s=min_dur_s)


class TestMetricsReconciliation:
    def test_counter_delta_regresses(self):
        a = _trace([], metrics={"counters": {"selection.rounds": 3}})
        b = _trace([], metrics={"counters": {"selection.rounds": 4}})
        diff = diff_traces(a, b)
        assert diff.verdict == "regressed"
        assert diff.metric_deltas[0]["kind"] == "counter"

    def test_one_sided_undeclared_metric_is_drift(self):
        a = _trace([], metrics={"counters": {}})
        b = _trace([], metrics={"counters": {"weird.thing": 1}})
        diff = diff_traces(a, b)
        assert diff.verdict == "structural-drift"
        assert diff.metric_drift[0]["name"] == "weird.thing"

    def test_one_sided_declared_metric_is_drift_both_ways(self):
        # no metric is excused for being one-sided, declared or not
        a = _trace([], metrics={"counters": {}})
        b = _trace([], metrics={"counters": {"nn.loss.zero_weight_batches": 2}})
        for x, y, side in ((a, b, "only in B"), (b, a, "only in A")):
            diff = diff_traces(x, y, tolerance=math.inf)
            assert diff.verdict == "structural-drift"
            assert diff.metric_drift == [
                {"kind": "counter", "name": "nn.loss.zero_weight_batches",
                 "side": side}
            ]
            assert "nn.loss.zero_weight_batches" in diff.render()

    def test_gauge_compares_with_symmetric_tolerance(self):
        a = _trace([], metrics={"gauges": {"phase.level": 0.80}})
        near = _trace([], metrics={"gauges": {"phase.level": 0.85}})
        far = _trace([], metrics={"gauges": {"phase.level": 0.10}})
        assert diff_traces(a, near, tolerance=0.25).verdict == "ok"
        assert diff_traces(a, far, tolerance=0.25).verdict == "regressed"
        assert diff_traces(far, a, tolerance=0.25).verdict == "regressed"

    def test_missing_snapshot_on_both_sides_is_ok(self):
        assert diff_traces(_trace([]), _trace([])).verdict == "ok"


class TestRealRunEquivalence:
    """The headline contract: same config => traces diff clean."""

    @pytest.fixture(scope="class")
    def runs(self):
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

        def one():
            config = NeSSAConfig(subset_fraction=0.3, biasing_drop_period=3, seed=0)

            def factory():
                return resnet20(num_classes=4, width=4, seed=13)

            tracer = obs.Tracer(run="diff-test")
            registry = obs.MetricsRegistry()
            obs.set_tracer(tracer)
            obs.set_metrics(registry)
            try:
                NeSSATrainer(factory(), recipe, config, factory).train(train, test)
            finally:
                obs.set_tracer(None)
                obs.set_metrics(None)
            return _trace(
                [r.to_dict() for r in tracer.records],
                metrics=registry.snapshot(),
                run="diff-test",
            )

        return {"serial_a": one(), "serial_b": one()}

    def test_identical_serial_runs_diff_exactly_clean(self, runs):
        diff = diff_traces(runs["serial_a"], runs["serial_b"],
                           tolerance=math.inf)
        assert diff.verdict == "ok"
        assert diff.matched > 10
        assert not (diff.added or diff.removed
                    or diff.attr_deltas
                    or diff.metric_deltas or diff.metric_drift)


class TestObsdiffCLI:
    def _write(self, path, trace):
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(trace["meta"]) + "\n")
            for span in trace["spans"]:
                f.write(json.dumps(span) + "\n")
            if trace["metrics"] is not None:
                f.write(json.dumps(
                    dict(trace["metrics"], kind="metrics")) + "\n")

    @pytest.fixture
    def paths(self, tmp_path):
        base = _trace([_span("epoch#0", dur_s=0.1,
                             attrs={"link_bytes": 10})],
                      metrics={"counters": {"selection.rounds": 1}})
        a = tmp_path / "a.jsonl"
        self._write(a, base)
        return tmp_path, a, base

    def test_clean_diff_exits_zero(self, paths, capsys):
        tmp_path, a, base = paths
        b = tmp_path / "b.jsonl"
        self._write(b, base)
        assert main(["obsdiff", str(a), str(b)]) == 0
        assert "verdict: ok" in capsys.readouterr().out

    def test_regression_fails_default_gate_but_not_drift_gate(self, paths):
        tmp_path, a, base = paths
        worse = _trace([_span("epoch#0", dur_s=0.1,
                              attrs={"link_bytes": 999})],
                       metrics=base["metrics"])
        b = tmp_path / "b.jsonl"
        self._write(b, worse)
        assert main(["obsdiff", str(a), str(b)]) == 1
        assert main(["obsdiff", str(a), str(b),
                     "--fail-on", "structural-drift"]) == 0
        assert main(["obsdiff", str(a), str(b), "--fail-on", "none"]) == 0

    def test_drift_fails_the_drift_gate(self, paths):
        tmp_path, a, base = paths
        drifted = _trace(base["spans"] + [_span("epoch#0/mystery#0")],
                         metrics=base["metrics"])
        b = tmp_path / "b.jsonl"
        self._write(b, drifted)
        assert main(["obsdiff", str(a), str(b),
                     "--fail-on", "structural-drift"]) == 1

    def test_slowdown_gated_by_tolerance_flag(self, paths):
        tmp_path, a, base = paths
        slow = _trace([_span("epoch#0", dur_s=0.4,
                             attrs={"link_bytes": 10})],
                      metrics=base["metrics"])
        b = tmp_path / "b.jsonl"
        self._write(b, slow)
        assert main(["obsdiff", str(a), str(b)]) == 1
        assert main(["obsdiff", str(a), str(b), "--tolerance", "inf"]) == 0

    def test_nan_or_negative_min_dur_exits_two(self, paths, capsys):
        tmp_path, a, base = paths
        slow = _trace([_span("epoch#0", dur_s=1.0,
                             attrs={"link_bytes": 10})],
                      metrics=base["metrics"])
        b = tmp_path / "b.jsonl"
        self._write(b, slow)
        for floor in ("nan", "-1"):
            assert main(["obsdiff", str(a), str(b), "--min-dur", floor]) == 2
            assert "min_dur_s" in capsys.readouterr().out

    def test_json_format_round_trips(self, paths, capsys):
        tmp_path, a, base = paths
        b = tmp_path / "b.jsonl"
        self._write(b, base)
        assert main(["obsdiff", str(a), str(b), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "ok"
        assert doc["matched"] == 1

    def test_unreadable_trace_exits_two(self, paths, capsys):
        _, a, _ = paths
        assert main(["obsdiff", str(a), "/no/such/trace.jsonl"]) == 2
        assert "obsdiff:" in capsys.readouterr().out
