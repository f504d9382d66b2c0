"""Overlapped selection: round mechanics + the overlapped schedule.

Two layers of coverage:

- :class:`AsyncSelectionRound` unit tests against a scripted selector
  (launch/join/consume lifecycle, error forwarding, strict mode);
- end-to-end: ``NeSSATrainer`` with ``overlap=True`` selects on schedule
  and its trace matches the synchronous run's modulo the overlap-only
  span names (declared carve-outs in :mod:`repro.obs.diff`).  Exact per-epoch histories of both
  schedules are pinned by ``tests/core/test_golden_history.py``.
"""

import time

import numpy as np
import pytest

from repro import obs
from repro.core.config import NeSSAConfig, TrainRecipe
from repro.core.trainer import NeSSATrainer
from repro.data.synthetic import SyntheticConfig, make_train_test
from repro.nn.resnet import resnet20
from repro.pipeline.overlap import AsyncSelectionRound
from repro.selection.craig import SelectionResult

# Spans that only one of the two schedules emits: the synchronous round
# runs selection inline (selection_round + its children), the overlapped
# round mutes those on the worker and forwards one async_selection span.
OVERLAP_ONLY_SPANS = {
    "selection_round",
    "proxy_compute",
    "chunk_select",
    "unit",
    "async_selection",
}


class ScriptedSelector:
    """Stands in for NeSSASelector: records calls, optionally slow/failing."""

    def __init__(self, delay=0.0, error=None):
        self.delay = delay
        self.error = error
        self.select_calls = []
        self.snapshots = 0

    def snapshot_candidates(self, dataset):
        self.snapshots += 1
        return ("snapshot", self.snapshots)

    def select(self, dataset, fraction, model, candidates=None):
        self.select_calls.append((float(fraction), candidates))
        if self.delay:
            time.sleep(self.delay)
        if self.error is not None:
            error, self.error = self.error, None  # fail once, then recover
            raise error
        return SelectionResult(
            np.arange(4), np.ones(4), pairwise_bytes=16, proxy_flops=2.0
        )


class TestAsyncSelectionRound:
    def test_launch_then_consume_returns_worker_result(self):
        sel = ScriptedSelector()
        with AsyncSelectionRound(sel) as round_:
            assert round_.launch("ds", 0.3, "model", for_epoch=1)
            assert sel.snapshots == 1
            result = round_.consume("ds", 0.3, "model", epoch=1)
        assert len(result.positions) == 4
        # the worker scored the snapshot taken at launch time
        assert sel.select_calls == [(0.3, ("snapshot", 1))]

    def test_only_one_round_in_flight(self):
        sel = ScriptedSelector(delay=0.05)
        with AsyncSelectionRound(sel) as round_:
            assert round_.launch("ds", 0.3, "model", for_epoch=1)
            assert round_.in_flight
            assert not round_.launch("ds", 0.3, "model", for_epoch=2)
            round_.join()
            assert not round_.in_flight

    def test_join_without_launch_is_noop(self):
        round_ = AsyncSelectionRound(ScriptedSelector())
        assert round_.join() == 0.0

    def test_worker_error_reraised_at_join(self):
        sel = ScriptedSelector(error=RuntimeError("scoring failed"))
        with AsyncSelectionRound(sel) as round_:
            round_.launch("ds", 0.3, "model", for_epoch=1)
            with pytest.raises(RuntimeError, match="scoring failed"):
                round_.join()
            # the round is reusable after the failure surfaced
            assert not round_.in_flight
            result = round_.consume("ds", 0.5, "model", epoch=1)
        assert len(result.positions) == 4

    def test_consume_joins_inflight_round_itself(self):
        sel = ScriptedSelector(delay=0.02)
        with AsyncSelectionRound(sel) as round_:
            round_.launch("ds", 0.3, "model", for_epoch=1)
            result = round_.consume("ds", 0.3, "model", epoch=1)
        assert result is not None
        assert len(sel.select_calls) == 1

    def test_strict_mode_never_defers(self):
        sel = ScriptedSelector()
        with AsyncSelectionRound(sel, strict=True) as round_:
            assert not round_.launch("ds", 0.3, "model", for_epoch=1)
            assert sel.snapshots == 0  # no speculative snapshot either
            round_.consume("ds", 0.3, "model", epoch=1)
        # synchronous path: select saw no pre-taken snapshot
        assert sel.select_calls == [(0.3, None)]

    def test_close_drops_pending_result(self):
        sel = ScriptedSelector()
        round_ = AsyncSelectionRound(sel)
        round_.launch("ds", 0.3, "model", for_epoch=1)
        round_.close()
        assert not round_.in_flight
        round_.consume("ds", 0.3, "model", epoch=1)
        assert len(sel.select_calls) == 2  # dropped result forced a re-select

    def test_join_forwards_async_selection_span(self):
        tracer = obs.Tracer(run="overlap-test")
        obs.set_tracer(tracer)
        try:
            sel = ScriptedSelector(delay=0.01)
            with AsyncSelectionRound(sel) as round_:
                round_.launch("ds", 0.3, "model", for_epoch=2)
                round_.join()
        finally:
            obs.set_tracer(None)
        spans = [r for r in tracer.records if r.name == "async_selection"]
        assert len(spans) == 1
        attrs = spans[0].attrs
        assert attrs["for_epoch"] == 2
        assert attrs["selected"] == 4
        assert attrs["pairwise_bytes"] == 16
        assert attrs["hidden_s"] >= 0.0


# -- end-to-end schedule -------------------------------------------------------


@pytest.fixture(scope="module")
def data():
    cfg = SyntheticConfig(
        num_classes=4, num_samples=240, image_shape=(3, 8, 8), seed=21
    )
    return make_train_test(cfg)


def recipe():
    return TrainRecipe(epochs=4, batch_size=32, lr=0.05, lr_milestones=())


def config(**overrides):
    defaults = dict(subset_fraction=0.4, select_every=2, seed=0)
    defaults.update(overrides)
    return NeSSAConfig(**defaults)


def train_history(cfg, data, trace_to=None):
    train_set, test_set = data
    model = resnet20(num_classes=4, width=4, seed=13)
    trainer = NeSSATrainer(
        model, recipe(), cfg, lambda: resnet20(num_classes=4, width=4, seed=13)
    )
    tracer = obs.Tracer(run="equiv") if trace_to is not None else None
    if tracer is not None:
        obs.set_tracer(tracer)
    try:
        history = trainer.train(train_set, test_set)
    finally:
        if tracer is not None:
            obs.set_tracer(None)
            trace_to.extend(tracer.records)
    return history


class TestOverlappedTrainerEquivalence:
    def test_stale_mode_trace_matches_serial_modulo_overlap_spans(self, data):
        serial_spans, stale_spans = [], []
        train_history(config(), data, trace_to=serial_spans)
        train_history(config(overlap=True), data, trace_to=stale_spans)
        stale_names = {r.name for r in stale_spans}
        assert "async_selection" in stale_names

        def skeleton(records):
            return [r.name for r in records if r.name not in OVERLAP_ONLY_SPANS]

        assert skeleton(serial_spans) == skeleton(stale_spans)

    def test_stale_mode_trains_and_selects_on_schedule(self, data):
        history = train_history(config(overlap=True), data)
        assert history.method == "nessa"
        assert [r.selection_ran for r in history.records] == [
            True, False, True, False,
        ]
        assert all(r.subset_size > 0 for r in history.records)
