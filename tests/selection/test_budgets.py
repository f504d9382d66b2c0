"""One budget rule for every selector: ``subset_budget`` split by ``apportion``.

The paper and CRAIG compare methods at equal subset size, so every
selector must train exactly ``max(1, round(f·N))`` samples (NeSSA: no more
than its pool), however the classes or chunks divide it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import NeSSAConfig
from repro.core.selector import NeSSASelector
from repro.nn.resnet import resnet20
from repro.parallel.scheduler import plan_selection_round
from repro.pipeline.experiment import make_data
from repro.selection.craig import CraigSelector
from repro.selection.dynamics import (
    ForgettingEventsSelector,
    LossRankedSelector,
    UncertaintySelector,
)
from repro.selection.kcenters import KCentersSelector
from repro.selection.partition import apportion, subset_budget
from repro.selection.random_sel import RandomSelector


@given(
    sizes=st.lists(st.integers(0, 60), max_size=12),
    k=st.integers(0, 800),
)
@settings(max_examples=300, deadline=None)
def test_apportion_contract(sizes, k):
    takes = apportion(sizes, k)
    n = sum(sizes)
    live = [i for i, s in enumerate(sizes) if s > 0]
    assert sum(takes) == min(k, n)
    assert all(0 <= t <= s for t, s in zip(takes, sizes))
    k = min(k, n)
    if n and all(k * sizes[i] >= n for i in live):
        # every share k·s/n is at least one: each take is its floor or ceiling
        assert all(k * s // n <= t <= -(-k * s // n) for t, s in zip(takes, sizes))
    if k >= len(live):
        assert all(takes[i] >= 1 for i in live)
    for i in range(len(sizes)):
        for j in range(i + 1, len(sizes)):
            if sizes[i] == sizes[j]:
                # equal groups tie, and the tie goes to the lower rank
                assert takes[i] - takes[j] in (0, 1)
    assert apportion(sizes, k) == takes


@given(
    class_sizes=st.lists(st.integers(1, 400), min_size=1, max_size=6),
    k_frac=st.floats(0.01, 1.0),
    m=st.sampled_from([1, 2, 3, 5, 8, 16, 64]),
    seed=st.integers(0, 3),
)
@settings(max_examples=150, deadline=None)
def test_no_chunk_take_exceeds_m(class_sizes, k_frac, m, seed):
    labels = np.repeat(np.arange(len(class_sizes)), class_sizes)
    k_total = max(1, int(k_frac * len(labels)))
    units = plan_selection_round(labels, k_total, seed=seed, round_index=0, chunk_select=m)
    assert all(1 <= u.take <= m for u in units)
    assert sum(u.take for u in units) == k_total


@pytest.fixture(scope="module")
def tinyimagenet():
    """The Table 2 bench's tinyimagenet train set (20 classes of 72)."""
    train, _ = make_data("tinyimagenet", scale=0.6, seed=3)
    return train


SELECTORS = {
    "craig": CraigSelector,
    "random": lambda: RandomSelector(seed=1),
    "loss_ranked": LossRankedSelector,
    "forgetting": ForgettingEventsSelector,
    "uncertainty": UncertaintySelector,
    "kcenters": lambda: KCentersSelector(seed=1),
    "nessa": lambda: NeSSASelector(NeSSAConfig(subset_fraction=0.34, seed=1), chunk_select=64),
}


@pytest.mark.parametrize("name", SELECTORS)
def test_every_selector_trains_the_same_budget(name, tinyimagenet):
    # round(0.34 · 1440) = 490; per-class rounding of 24.48 gave 20 · 24 = 480
    assert subset_budget(0.34, len(tinyimagenet)) == 490
    model = resnet20(num_classes=tinyimagenet.num_classes, width=2, seed=0)
    result = SELECTORS[name]().select(tinyimagenet, 0.34, model)
    assert len(np.unique(result.positions)) == len(result.positions) == 490


def test_planner_total_is_exact_after_biasing_drops_unbalance_the_pool(tinyimagenet):
    # A random 17 % drop leaves classes of unequal size; per-class rounding
    # of the pool shares then planned 491 for a budget of 490.
    keep = np.random.default_rng(5).random(len(tinyimagenet)) >= 0.17
    labels = tinyimagenet.y[keep]
    assert len(set(np.bincount(labels))) > 1
    k_total = subset_budget(0.34, len(tinyimagenet), pool=len(labels))
    for chunk_select in (None, 8, 64):
        units = plan_selection_round(labels, k_total, seed=1, round_index=0,
                                     chunk_select=chunk_select)
        assert sum(u.take for u in units) == k_total == 490


def test_subset_budget_is_capped_at_the_pool():
    assert subset_budget(0.28, 50_000) == 14_000
    assert subset_budget(0.28, 50_000, pool=20_000) == 14_000
    assert subset_budget(0.28, 50_000, pool=5_000) == 5_000
