"""Per-span memory attribution and the flamegraph exporter."""

import tracemalloc

import numpy as np
import pytest

from repro import obs
from repro.nn.scratch import BufferPool
from repro.obs.profile import span_frames, to_folded_stacks


def _record(tracer, name):
    return next(r for r in tracer.records if r.name == name)


class TestSpanMemoryProfiler:
    def test_off_by_default_and_leaves_tracemalloc_alone(self):
        assert not tracemalloc.is_tracing()
        t = obs.Tracer(run="plain")
        assert t.profiler is None
        obs.set_tracer(t)
        with obs.span("work"):
            pass
        assert not tracemalloc.is_tracing()
        assert "mem_net_bytes" not in t.records[0].attrs

    def test_profiled_spans_carry_mem_attrs(self):
        t = obs.Tracer(run="prof", profile_mem=True)
        obs.set_tracer(t)
        try:
            with obs.span("work"):
                blob = np.ones((256, 256), dtype=np.float32)
            del blob
        finally:
            t.profiler.stop()
        rec = _record(t, "work")
        assert rec.attrs["mem_net_bytes"] >= 256 * 256 * 4
        assert rec.attrs["mem_peak_bytes"] >= rec.attrs["mem_net_bytes"]

    def test_attribution_goes_to_innermost_open_span(self):
        t = obs.Tracer(run="prof", profile_mem=True)
        obs.set_tracer(t)
        try:
            with obs.span("outer"):
                with obs.span("inner"):
                    blob = np.ones((256, 256), dtype=np.float32)
                keep = blob  # still referenced when outer closes
        finally:
            t.profiler.stop()
        del keep
        inner = _record(t, "inner")
        outer = _record(t, "outer")
        size = 256 * 256 * 4
        # The child allocated it, the child is charged; the parent's own
        # intervals saw (almost) nothing.
        assert inner.attrs["mem_net_bytes"] >= size
        assert outer.attrs["mem_net_bytes"] < size // 2

    def test_freed_within_span_nets_out_but_peaks(self):
        t = obs.Tracer(run="prof", profile_mem=True)
        obs.set_tracer(t)
        try:
            with obs.span("churn"):
                blob = np.ones((512, 512), dtype=np.float32)
                del blob
        finally:
            t.profiler.stop()
        rec = _record(t, "churn")
        size = 512 * 512 * 4
        assert rec.attrs["mem_peak_bytes"] >= size
        assert rec.attrs["mem_net_bytes"] < size // 2

    def test_stop_respects_preexisting_tracemalloc_session(self):
        tracemalloc.start()
        try:
            t = obs.Tracer(run="prof", profile_mem=True)
            t.profiler.stop()
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()

    def test_stop_is_idempotent(self):
        t = obs.Tracer(run="prof", profile_mem=True)
        t.profiler.stop()
        t.profiler.stop()
        assert not tracemalloc.is_tracing()


class TestCreditBytes:
    def test_pool_lease_reconciles_with_buffer_pool_accounting(self):
        t = obs.Tracer(run="prof", profile_mem=True)
        obs.set_tracer(t)
        pool = BufferPool()
        try:
            with obs.span("round"):
                with pool.lease((64, 64), np.float32) as lease:
                    lease.array.fill(0)
                with pool.lease((64, 64), np.float32) as lease:
                    lease.array.fill(1)
        finally:
            t.profiler.stop()
        rec = _record(t, "round")
        nbytes = 64 * 64 * 4
        # Two leases and two releases of the same buffer: the credited
        # totals reconcile exactly with the pool's own accounting.
        assert rec.attrs["mem_pool_lease_bytes"] == 2 * nbytes
        assert rec.attrs["mem_pool_release_bytes"] == 2 * nbytes
        assert pool.stats["allocations"] == 1
        assert pool.stats["reuses"] == 1

    def test_noop_without_profiler(self):
        t = obs.Tracer(run="plain")
        obs.set_tracer(t)
        pool = BufferPool()
        with obs.span("round"):
            pool.lease((8, 8)).release()
        assert "mem_pool_lease_bytes" not in _record(t, "round").attrs

    def test_noop_without_tracer_or_open_span(self):
        obs.credit_bytes("mem_pool_lease_bytes", 123)  # no tracer: must not raise
        t = obs.Tracer(run="prof", profile_mem=True)
        obs.set_tracer(t)
        try:
            obs.credit_bytes("mem_pool_lease_bytes", 123)  # empty stack
        finally:
            t.profiler.stop()
        assert t.records == []


class TestFoldedStacks:
    SPANS = [
        {"id": "epoch#0", "name": "epoch", "parent": None,
         "dur_s": 1.0, "attrs": {"mem_net_bytes": 100}},
        {"id": "epoch#0/selection_round#0", "name": "selection_round",
         "parent": "epoch#0", "dur_s": 0.4,
         "attrs": {"pairwise_bytes": 640, "sim_bytes": 640,
                   "mem_net_bytes": 50}},
        {"id": "epoch#0/selection_round#0/unit@1-0-2", "name": "unit",
         "parent": "epoch#0/selection_round#0", "dur_s": 0.1,
         "attrs": {"sim_bytes": 320, "mem_net_bytes": -7}},
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

    def test_byte_weights_skip_sim_and_mem_attrs(self):
        out = to_folded_stacks(self.SPANS, weight="bytes")
        # pairwise_bytes counts; sim_bytes (per-unit share) and mem_*
        # (profiling detail) do not — the unit span drops out entirely.
        assert out == "epoch;selection_round 640"

    def test_alloc_weights_clamp_negative_net(self):
        out = to_folded_stacks(self.SPANS, weight="allocs")
        assert "unit" not in out
        assert "epoch 100" in out

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


class TestRealProfiledRun:
    def test_traced_profiled_selection_reconciles(self):
        from repro.core.config import NeSSAConfig
        from repro.core.selector import NeSSASelector
        from repro.data.synthetic import SyntheticConfig, make_train_test
        from repro.nn.resnet import resnet20

        train, _ = make_train_test(
            SyntheticConfig(
                num_classes=4, num_samples=160, image_shape=(3, 8, 8), seed=11
            )
        )
        model = resnet20(num_classes=4, width=4, seed=3)
        t = obs.Tracer(run="prof", profile_mem=True)
        obs.set_tracer(t)
        try:
            config = NeSSAConfig(subset_fraction=0.25, use_biasing=False, seed=5)
            NeSSASelector(config, chunk_select=16).select(train, 0.25, model)
        finally:
            obs.set_tracer(None)
            t.profiler.stop()
        assert t.records
        for rec in t.records:
            if rec.name == "unit":
                # forwarded completed records never pass enter/exit, so
                # they carry no tracemalloc attribution (the diff engine
                # excuses mem_* absence for exactly this reason)
                assert "mem_net_bytes" not in rec.attrs
                continue
            assert "mem_net_bytes" in rec.attrs
            assert rec.attrs["mem_peak_bytes"] >= 0
        # allocs flame renders from the same records without error
        folded = to_folded_stacks([r.to_dict() for r in t.records],
                                  weight="allocs")
        assert "proxy_compute" in folded
