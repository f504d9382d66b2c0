"""Extension bench: training-dynamics baselines vs NeSSA (paper §2.1).

The paper dismisses the pure training-dynamics category ("choosing
subsets based on limited information results in large accuracy
degradation") without printing numbers.  This bench adds the missing
comparison on the CIFAR-10 stand-in: loss-ranked selection ([19]),
forgetting events ([9]), margin uncertainty, and stratified random,
against NeSSA and the full-data goal at a 30% subset.
"""

import pytest

from repro.core.trainer import SubsetTrainer
from repro.pipeline.experiment import build_model
from repro.selection.dynamics import (
    ForgettingEventsSelector,
    LossRankedSelector,
    UncertaintySelector,
)
from repro.selection.random_sel import RandomSelector

from benchmarks._shared import bench_recipe, cached_data, cached_run, per_epoch, write_table

FRACTION = 0.3


@pytest.fixture(scope="module")
def baseline_histories():
    train, test = cached_data("cifar10")
    recipe = bench_recipe()

    def factory():
        return build_model("cifar10", train.num_classes, seed=1)

    histories = {}
    for selector in (
        LossRankedSelector(),
        ForgettingEventsSelector(),
        UncertaintySelector(),
        RandomSelector(seed=1),
    ):
        trainer = SubsetTrainer(factory(), recipe, selector, FRACTION, seed=1)
        histories[selector.name] = trainer.train(train, test)

    histories["nessa"] = cached_run("cifar10", "nessa", fraction=FRACTION, seed=1).history
    histories["goal"] = cached_run("cifar10", "full", seed=1).history
    return histories


def test_ext_training_dynamics_baselines(baseline_histories, benchmark):
    histories = benchmark.pedantic(lambda: baseline_histories, rounds=1, iterations=1)
    scores = {name: h.stable_accuracy() for name, h in histories.items()}

    lines = [f"Training-dynamics baselines at a {FRACTION:.0%} subset (CIFAR-10 stand-in)"]
    lines.append(f"{'method':14s} {'acc':>7s} {'n/epoch':>8s}")
    for name, acc in sorted(scores.items(), key=lambda kv: -kv[1]):
        lines.append(f"{name:14s} {100 * acc:6.2f}% {per_epoch(histories[name]):>8s}")
    write_table("ext_baselines", lines)

    # The goal stays the ceiling (within noise).
    for name, acc in scores.items():
        assert acc <= scores["goal"] + 0.03, name
    # NeSSA is at worst a whisker behind the best dynamics heuristic —
    # the paper's coverage-based selection does not lose to cheap ranking.
    dynamics_best = max(
        scores["loss_ranked"], scores["forgetting"], scores["uncertainty"]
    )
    assert scores["nessa"] >= dynamics_best - 0.02
    # Every informed method clears chance by a wide margin.
    for name in ("loss_ranked", "forgetting", "uncertainty", "nessa"):
        assert scores[name] > 0.5
