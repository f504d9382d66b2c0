"""Speedup smoke tests for the hot-path kernels.

The unmarked test runs every registered bench once at tiny sizes — a
cheap end-to-end exercise of the harness.  The ``perf``-marked tests
assert the ISSUE's acceptance speedups (>= 2x vs the seed kernels) at
the default sizes; they are timing-sensitive and excluded from tier-1
(run them with ``pytest benchmarks -m perf``).
"""

import pytest

from repro.perf import bench


def test_all_benches_run_at_tiny_size():
    for name in bench.registered_benches():
        result = bench.run_bench(name, size="tiny", repeats=1, warmup=0)
        assert result.median_s > 0


@pytest.mark.perf
def test_selection_round_speedup_vs_seed():
    r = bench.run_bench("selection.selection_round", size="default", repeats=3)
    assert r.speedup_vs_seed is not None
    assert r.speedup_vs_seed >= 2.0, (
        f"selection round only {r.speedup_vs_seed:.2f}x vs seed pipeline"
    )


@pytest.mark.perf
def test_conv2d_fwd_bwd_speedup_vs_seed():
    r = bench.run_bench("nn.conv2d_fwd_bwd", size="default", repeats=5)
    assert r.speedup_vs_seed is not None
    assert r.speedup_vs_seed >= 2.0, (
        f"conv2d fwd+bwd only {r.speedup_vs_seed:.2f}x vs seed kernels"
    )


@pytest.mark.perf
def test_pairwise_distances_speedup_vs_seed():
    r = bench.run_bench("selection.pairwise_distances", size="default", repeats=3)
    assert r.speedup_vs_seed is not None
    assert r.speedup_vs_seed >= 2.0, (
        f"pairwise distances only {r.speedup_vs_seed:.2f}x vs seed broadcast"
    )
