"""Sinks: JSONL round-trip fidelity, Chrome trace_event schema validity
and the collapsed-stack flamegraph exporter."""

import json

import numpy as np
import pytest

from repro import obs
from repro.obs.sinks import SCHEMA_VERSION, span_frames, to_folded_stacks


def _record_run(tracer):
    with obs.span("epoch", epoch=0) as ep:
        with obs.span("selection_round") as sel:
            sel.set(pairwise_bytes=np.int64(4096), selected=np.int32(12))
        ep.set(train_loss=np.float64(1.25))
    tracer.add_completed("unit", key=(1, 0, 0, 0), dur_s=0.5)


class TestJsonlRoundTrip:
    def test_meta_spans_metrics_round_trip(self, tmp_path, tracer, registry):
        _record_run(tracer)
        registry.counter("selection.rounds").inc(3)
        path = tmp_path / "trace.jsonl"
        obs.write_jsonl(path, tracer, registry)

        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["kind"] == "meta"
        assert lines[0]["schema"] == SCHEMA_VERSION
        assert lines[0]["run"] == "test"
        assert lines[-1]["kind"] == "metrics"

        trace = obs.read_trace(path)
        assert trace["meta"]["run"] == "test"
        assert trace["metrics"]["counters"] == {"selection.rounds": 3}
        assert [s["id"] for s in trace["spans"]] == [
            "epoch#0/selection_round#0",
            "epoch#0",
            "unit@1-0-0-0",
        ]
        sel = trace["spans"][0]
        assert sel["parent"] == "epoch#0"
        assert sel["attrs"] == {"pairwise_bytes": 4096, "selected": 12}
        assert set(trace["spans"][2]) == {
            "kind", "id", "name", "parent", "start_s", "dur_s", "attrs"
        }

    def test_numpy_attrs_serialize_to_plain_json(self, tmp_path, tracer):
        _record_run(tracer)
        path = tmp_path / "trace.jsonl"
        obs.write_jsonl(path, tracer)
        trace = obs.read_trace(path)
        epoch = trace["spans"][1]
        assert isinstance(epoch["attrs"]["train_loss"], float)
        assert trace["metrics"] is None

    def test_newer_schema_rejected_with_upgrade_hint(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "meta", "schema": 999, "run": "x"}\n')
        with pytest.raises(ValueError, match="newer than this reader"):
            obs.read_trace(path)

    def test_non_integer_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        for schema in ('"2"', "true", "null", "0"):
            path.write_text(
                '{"kind": "meta", "schema": %s, "run": "x"}\n' % schema
            )
            with pytest.raises(ValueError, match="schema"):
                obs.read_trace(path)

    def test_schema_1_trace_still_reads(self, tmp_path):
        path = tmp_path / "old.jsonl"
        path.write_text(
            '{"kind": "meta", "schema": 1, "run": "legacy"}\n'
            '{"kind": "span", "id": "epoch#0", "name": "epoch", '
            '"parent": null, "start_s": 0.0, "dur_s": 1.0, '
            '"attrs": {}, "worker": null}\n'
        )
        trace = obs.read_trace(path)
        assert trace["meta"]["schema"] == 1
        assert [s["id"] for s in trace["spans"]] == ["epoch#0"]

    @pytest.mark.parametrize("line, message", [
        ("[1, 2]", "line 2: not a JSON object"),
        ('{"kind": "span", "id": "e#0", "name": "e", "start_s": 0.0}',
         "line 2: span lacks dur_s"),
        ('{"kind": "span", "name": "e", "start_s": 0.0, "dur_s": 1.0}',
         "line 2: span lacks id"),
        ("{not json", "line 2: not JSON"),
    ])
    def test_malformed_line_rejected_naming_line_number(self, tmp_path, line, message):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"kind": "meta", "schema": %d, "run": "x"}\n%s\n'
            % (SCHEMA_VERSION, line)
        )
        with pytest.raises(ValueError, match=message):
            obs.read_trace(path)

    def test_bad_span_time_rejected_naming_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        for key, value in [("dur_s", "NaN"), ("dur_s", "-Infinity"), ("dur_s", "-0.5"),
                           ("dur_s", '"1.0"'), ("dur_s", "true"), ("dur_s", "null"),
                           ("start_s", "Infinity"), ("start_s", "[0]")]:
            times = {"start_s": "0.0", "dur_s": "1.0", key: value}
            path.write_text(
                '{"kind": "meta", "schema": %d, "run": "x"}\n'
                '{"kind": "span", "id": "e#0", "name": "e", "start_s": %s, "dur_s": %s}\n'
                % (SCHEMA_VERSION, times["start_s"], times["dur_s"])
            )
            with pytest.raises(ValueError, match=f"line 2: span {key} .* is not a finite"):
                obs.read_trace(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"kind": "meta", "schema": %d, "run": "x"}\n{"kind": "wat"}\n'
            % SCHEMA_VERSION
        )
        with pytest.raises(ValueError, match="kind"):
            obs.read_trace(path)

    def test_missing_meta_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="meta"):
            obs.read_trace(path)


class TestChromeExport:
    def test_schema_shape(self, tmp_path, tracer):
        _record_run(tracer)
        doc = obs.to_chrome_trace(
            [r.to_dict() for r in tracer.records], run="test"
        )
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert doc["displayTimeUnit"] == "ms"
        meta, *events = doc["traceEvents"]
        assert meta["ph"] == "M"
        assert meta["name"] == "process_name"
        assert meta["args"]["name"] == "repro:test"
        assert len(events) == len(tracer.records)
        for event, record in zip(events, tracer.records):
            assert event["ph"] == "X"
            assert event["cat"] == "repro"
            assert event["name"] == record.name
            assert event["ts"] == pytest.approx(record.start_s * 1e6)
            assert event["dur"] == pytest.approx(max(0.0, record.dur_s) * 1e6)
            assert event["pid"] == 0
            assert event["tid"] == 0
            assert event["args"]["id"] == record.id

    def test_written_file_is_loadable_json(self, tmp_path, tracer):
        _record_run(tracer)
        path = tmp_path / "trace.chrome.json"
        out = obs.write_chrome_trace(
            path, [r.to_dict() for r in tracer.records], run="test"
        )
        assert out == str(path)
        doc = json.loads(path.read_text())
        # every event field must already be a plain JSON type (Perfetto
        # rejects NaN/Infinity and non-numeric ts/dur)
        for event in doc["traceEvents"]:
            if event["ph"] == "X":
                assert isinstance(event["ts"], (int, float))
                assert isinstance(event["dur"], (int, float))
            json.dumps(event, allow_nan=False)


class TestFoldedStacks:
    SPANS = [
        {"id": "epoch#0", "name": "epoch", "parent": None,
         "dur_s": 1.0, "attrs": {}},
        {"id": "epoch#0/selection_round#0", "name": "selection_round",
         "parent": "epoch#0", "dur_s": 0.4,
         "attrs": {"pairwise_bytes": 640, "sim_bytes": 640}},
        {"id": "epoch#0/selection_round#0/unit@1-0-2", "name": "unit",
         "parent": "epoch#0/selection_round#0", "dur_s": 0.1,
         "attrs": {"sim_bytes": 320}},
    ]

    def test_span_frames_strip_seq_and_key_suffixes(self):
        assert span_frames("epoch#1/selection_round#0/unit@1-0-2-1") == [
            "epoch", "selection_round", "unit",
        ]

    def test_wall_weights_are_self_time_microseconds(self):
        folded = dict(
            line.rsplit(" ", 1)
            for line in to_folded_stacks(self.SPANS, weight="wall").splitlines()
        )
        assert int(folded["epoch"]) == pytest.approx(600_000, rel=0.01)
        assert int(folded["epoch;selection_round"]) == pytest.approx(
            300_000, rel=0.01
        )
        assert int(folded["epoch;selection_round;unit"]) == pytest.approx(
            100_000, rel=0.01
        )

    def test_byte_weights_skip_sim_bytes(self):
        out = to_folded_stacks(self.SPANS, weight="bytes")
        # pairwise_bytes counts; sim_bytes (per-unit share) does not —
        # the unit span drops out entirely.
        assert out == "epoch;selection_round 640"

    def test_same_stack_aggregates(self):
        spans = [
            {"id": "epoch#0", "name": "epoch", "parent": None,
             "dur_s": 1.0, "attrs": {}},
            {"id": "epoch#1", "name": "epoch", "parent": None,
             "dur_s": 2.0, "attrs": {}},
        ]
        assert to_folded_stacks(spans, weight="wall") == "epoch 3000000"

    def test_unknown_weight_rejected(self):
        with pytest.raises(ValueError):
            to_folded_stacks([], weight="calories")
