"""Ablation: lazy greedy vs stochastic ("lazier than lazy") greedy.

The paper cites [40] (stochastic greedy) as the O(N) method making FPGA
selection tractable.  This bench checks the cost/quality trade-off on
our facility-location core: stochastic greedy's candidate evaluations
grow O(n) while it keeps ~(1 - 1/e - eps) of exact greedy's quality.
"""

import numpy as np
import pytest

from repro.selection.facility import (
    facility_location_value,
    lazy_greedy,
    similarity_from_distances,
    stochastic_greedy,
)

from benchmarks._shared import write_table


def make_similarity(n, d=10, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, d))
    dist = np.linalg.norm(v[:, None] - v[None, :], axis=2)
    return similarity_from_distances(dist)


N, K = 600, 120


def test_ablation_lazy_greedy_cost():
    s = make_similarity(N)
    sel = lazy_greedy(s, K)
    assert len(sel) == K


def test_ablation_stochastic_greedy_cost():
    s = make_similarity(N)
    rng = np.random.default_rng(1)
    sel = stochastic_greedy(s, K, 0.1, rng=rng)
    assert len(sel) == K


def test_ablation_greedy_quality_gap():
    """Stochastic greedy retains >= 95% of exact greedy's objective."""

    def quality():
        s = make_similarity(N, seed=2)
        exact = facility_location_value(s, lazy_greedy(s, K))
        stoch = facility_location_value(
            s, stochastic_greedy(s, K, epsilon=0.1, rng=np.random.default_rng(3))
        )
        return exact, stoch

    exact, stoch = quality()
    lines = [
        "Ablation: greedy maximizer quality (facility-location objective)",
        f"lazy greedy       {exact:12.2f}",
        f"stochastic greedy {stoch:12.2f}  ({100 * stoch / exact:.2f}% of exact)",
    ]
    write_table("ablation_greedy", lines)
    assert stoch >= 0.95 * exact


def test_ablation_stochastic_evaluations_scale_o_n():
    """The stochastic sample size per step is n/k*ln(1/eps) — total O(n)."""

    def count_evals():
        # Total candidate evaluations across k steps.
        out = {}
        for n in (200, 400, 800):
            k = n // 5
            sample = int(np.ceil(n / k * np.log(1 / 0.1)))
            out[n] = k * min(sample, n)
        return out

    evals = count_evals()
    # Doubling n roughly doubles total evaluations (linear, not quadratic).
    assert evals[800] / evals[200] == pytest.approx(4.0, rel=0.3)
