"""Span tree mechanics: nesting, ordering, deterministic ids, no-op mode."""

import pytest

from repro import obs
from repro.obs.tracer import NOOP_SPAN


class TestSpanNesting:
    def test_ids_are_tree_paths_with_sequence_numbers(self, tracer):
        with obs.span("epoch") as ep:
            with obs.span("selection_round") as sel:
                pass
            with obs.span("selection_round") as sel2:
                pass
        assert ep.id == "epoch#0"
        assert sel.id == "epoch#0/selection_round#0"
        assert sel2.id == "epoch#0/selection_round#1"

    def test_sequences_are_per_parent_and_name(self, tracer):
        for _ in range(2):
            with obs.span("epoch"):
                with obs.span("inner") as inner:
                    pass
        ids = [r.id for r in tracer.records]
        assert ids == ["epoch#0/inner#0", "epoch#0", "epoch#1/inner#0", "epoch#1"]
        assert inner.id == "epoch#1/inner#0"

    def test_records_appear_in_completion_order_children_first(self, tracer):
        with obs.span("a"):
            with obs.span("b"):
                with obs.span("c"):
                    pass
        assert [r.name for r in tracer.records] == ["c", "b", "a"]
        by_id = {r.id: r for r in tracer.records}
        assert by_id["a#0/b#0/c#0"].parent_id == "a#0/b#0"
        assert by_id["a#0/b#0"].parent_id == "a#0"
        assert by_id["a#0"].parent_id is None

    def test_key_derived_ids_use_at_form(self, tracer):
        with obs.span("round"):
            with obs.span("unit", key=(1, 0, 2, 1)):
                pass
        assert tracer.records[0].id == "round#0/unit@1-0-2-1"

    def test_attrs_at_creation_and_via_set(self, tracer):
        with obs.span("epoch", epoch=3) as ep:
            ep.set(loss=0.5, samples=120)
            ep.set(loss=0.25)  # last write wins
        record = tracer.records[0]
        assert record.attrs == {"epoch": 3, "loss": 0.25, "samples": 120}
        assert record.dur_s >= 0.0

    def test_exception_unwinds_the_stack(self, tracer):
        with pytest.raises(RuntimeError):
            with obs.span("outer"):
                with obs.span("inner"):
                    raise RuntimeError("boom")
        assert [r.name for r in tracer.records] == ["inner", "outer"]
        with obs.span("after") as sp:
            pass
        assert sp.id == "after#0"  # stack fully unwound, no phantom parent


class TestAddCompleted:
    def test_forwarded_span_keyed_and_parented(self, tracer):
        with obs.span("chunk_select"):
            obs.add_completed(
                "unit", key=(9, 0, 1, 0), start=None, dur_s=0.25, take=5
            )
        unit = tracer.records[0]
        assert unit.id == "chunk_select#0/unit@9-0-1-0"
        assert unit.parent_id == "chunk_select#0"
        assert unit.dur_s == 0.25
        assert unit.attrs == {"take": 5}

    def test_explicit_parent_overrides_stack(self, tracer):
        tracer.add_completed("unit", key=(1,), parent_id="elsewhere#0", dur_s=0.0)
        assert tracer.records[0].id == "elsewhere#0/unit@1"


class TestGlobals:
    def test_disabled_mode_returns_shared_noop(self):
        assert not obs.enabled()
        sp = obs.span("anything", x=1)
        assert sp is NOOP_SPAN
        with sp as inner:
            inner.set(y=2)  # must be a silent no-op
        obs.add_completed("unit", key=(1,), dur_s=0.0)  # silently dropped

    def test_set_tracer_returns_previous(self):
        first = obs.Tracer(run="first")
        assert obs.set_tracer(first) is None
        second = obs.Tracer(run="second")
        assert obs.set_tracer(second) is first
        assert obs.get_tracer() is second
        assert obs.set_tracer(None) is second
        assert not obs.enabled()

    def test_module_span_goes_to_active_tracer(self, tracer):
        with obs.span("epoch"):
            pass
        assert [r.name for r in tracer.records] == ["epoch"]

