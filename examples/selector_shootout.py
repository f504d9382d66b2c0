#!/usr/bin/env python
"""Selector shoot-out: NeSSA vs CRAIG vs K-Centers vs random at small subsets.

The scenario from the paper's Table 3: at a small subset size (here 12%),
*which* samples you pick matters enormously.  K-Centers chases outliers
and collapses; random misses small clusters; CRAIG's weighted medoids and
NeSSA's biased, feedback-driven medoids hold up.

Also prints each selector's coverage of the generator's ground-truth
clusters — a view the paper can't show because real datasets don't label
their redundancy structure.

Usage:
    python examples/selector_shootout.py
"""

from repro import NeSSAConfig, NeSSATrainer, TrainRecipe
from repro.core.trainer import FullTrainer, SubsetTrainer
from repro.data import SyntheticImageDataset, make_train_test
from repro.nn.resnet import resnet20
from repro.selection import CraigSelector, KCentersSelector, RandomSelector

FRACTION = 0.10
EPOCHS = 24
SCALE = 0.6


def cluster_coverage(generated, train_set, positions) -> float:
    """Fraction of the generator's clusters hit by the selected subset."""
    picked = set(generated.cluster_ids[train_set.ids[positions]])
    total = set(generated.cluster_ids[train_set.ids])
    return len(picked) / len(total)


def main(epochs: int = EPOCHS, scale: float = SCALE):
    # The CIFAR-10 stand-in from the benchmark suite (registry profile).
    from repro.data import scaled_experiment_config

    config = scaled_experiment_config("cifar10", scale=scale, seed=3)
    train_set, test_set = make_train_test(config)
    generated = SyntheticImageDataset(config)  # the split's ids index its metadata
    print(f"{len(train_set)} train samples, {generated.num_clusters} "
          f"ground-truth clusters, selecting {FRACTION:.0%}\n")

    base = TrainRecipe().scaled(epochs)
    recipe = TrainRecipe(
        epochs=epochs, batch_size=64, lr=0.03,
        lr_milestones=base.lr_milestones, lr_gamma_div=base.lr_gamma_div,
        clip_grad_norm=5.0,
    )

    def factory():
        return resnet20(num_classes=train_set.num_classes, width=6, seed=3)

    results = {}

    goal = FullTrainer(factory(), recipe, seed=1).train(train_set, test_set)
    results["full (goal)"] = (goal.stable_accuracy(), 1.0)

    for name, selector in [
        ("craig", CraigSelector()),
        ("kcenters", KCentersSelector(seed=1)),
        ("random", RandomSelector(seed=1)),
    ]:
        # Selection-quality snapshot with an untrained model (epoch-0 view).
        sel = selector.select(train_set, FRACTION, factory())
        coverage = cluster_coverage(generated, train_set, sel.positions)
        trainer = SubsetTrainer(factory(), recipe, selector, FRACTION, seed=1)
        history = trainer.train(train_set, test_set)
        results[name] = (history.stable_accuracy(), coverage)

    nessa_cfg = NeSSAConfig(subset_fraction=FRACTION, biasing_drop_period=8, seed=1)
    nessa = NeSSATrainer(factory(), recipe, nessa_cfg, factory)
    history = nessa.train(train_set, test_set)
    sel = nessa.selector.select(train_set, FRACTION, nessa.feedback.replica)
    coverage = cluster_coverage(generated, train_set, sel.positions)
    results["nessa"] = (history.stable_accuracy(), coverage)

    print(f"{'method':14s} {'accuracy':>9s} {'cluster coverage':>17s}")
    for name, (acc, cov) in sorted(results.items(), key=lambda kv: -kv[1][0]):
        print(f"{name:14s} {100 * acc:8.2f}% {100 * cov:16.1f}%")

    kc_acc = results["kcenters"][0]
    nessa_acc = results["nessa"][0]
    print(f"\nNeSSA's margin over K-Centers at {FRACTION:.0%}: "
          f"{100 * (nessa_acc - kc_acc):+.1f} points")
    print("(the paper's Table 3 sees +22 points at 10% on real CIFAR-10)")


if __name__ == "__main__":
    main()
