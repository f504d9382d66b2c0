"""Disabled-mode observability must be effectively free (<2% of a round).

Direct A/B wall-clock comparisons are too noisy for CI, so the bound is
established by extrapolation: measure the per-call cost of the no-op
span/metrics path, multiply by a generous over-estimate of how many
obs operations one selection round performs in disabled mode, and
compare against the median time of that round, measured in the same
process.  The margin is around two orders of magnitude, so timing noise
cannot flip the verdict.
"""

import statistics
import time

import numpy as np

from repro import obs
from repro.obs.tracer import NOOP_SPAN
from repro.parallel.engine import SelectionExecutor
from repro.parallel.scheduler import plan_selection_round

# Worst-case obs operations in one *disabled* selection round: a handful
# of span() calls (epoch, selection_round, proxy_compute, chunk_select),
# a forwarded span per unit, two enabled() checks and a few counter increments —
# bounded far above reality.
OPS_PER_ROUND = 100


def _time_per_call(fn, iterations=20_000):
    for _ in range(iterations // 10):  # warm-up
        fn()
    t0 = time.perf_counter()
    for _ in range(iterations):
        fn()
    return (time.perf_counter() - t0) / iterations


class TestNoOpOverhead:
    def test_disabled_span_is_the_shared_noop_object(self):
        assert obs.span("a") is NOOP_SPAN
        assert obs.span("b", key=(1, 2), attrs_are="ignored") is NOOP_SPAN

    def test_noop_round_cost_under_two_percent_of_a_selection_round(self):
        assert not obs.enabled()

        def noop_span():
            with obs.span("epoch", epoch=0):
                pass

        def noop_metrics():
            obs.metrics().counter("selection.rounds").inc()

        per_op = max(_time_per_call(noop_span), _time_per_call(noop_metrics))

        # One planned round: 2000 proxies over 4 classes, k=300, m=32.
        rng = np.random.default_rng(6)
        vectors = rng.normal(size=(2000, 10))
        labels = np.sort(rng.integers(0, 4, size=2000))
        units = plan_selection_round(labels, 300, seed=0, round_index=0,
                                     chunk_select=32)
        executor = SelectionExecutor()
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            executor.run_units(vectors, units)
            times.append(time.perf_counter() - t0)
        round_median = statistics.median(times)
        overhead = OPS_PER_ROUND * per_op
        assert overhead < 0.02 * round_median, (
            f"no-op obs path costs {overhead * 1e6:.1f}us per round, "
            f">2% of the {round_median * 1e3:.2f}ms round median"
        )

    def test_disabled_engine_skips_span_forwarding(self):
        gen = np.random.default_rng(0)
        vectors = gen.normal(size=(80, 5))
        labels = gen.integers(0, 2, size=80)
        units = plan_selection_round(labels, 20, seed=0, round_index=0,
                                     chunk_select=8)
        tracer = obs.Tracer()
        SelectionExecutor().run_units(vectors, units)
        # no tracer installed -> nothing recorded anywhere
        assert tracer.records == []
        assert obs.get_tracer() is None
