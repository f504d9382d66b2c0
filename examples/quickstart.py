#!/usr/bin/env python
"""Quickstart: train a model with NeSSA and compare against full-data training.

Runs in about a minute on a laptop CPU.  Demonstrates the core public API:

1. generate a CIFAR-10-like synthetic dataset;
2. train a ResNet-20 on ALL the data (the paper's "Goal");
3. train the same architecture with NeSSA on a 28% subset — near-storage
   selection with quantized-weight feedback, subset biasing and dataset
   partitioning;
4. report the accuracy gap and the reduction in gradient computations.

Usage:
    python examples/quickstart.py
"""

from repro import FullTrainer, NeSSAConfig, NeSSATrainer, TrainRecipe
from repro.data import SyntheticConfig, make_train_test
from repro.nn.resnet import resnet20

EPOCHS = 20
NUM_SAMPLES = 1600


def main(epochs: int = EPOCHS, num_samples: int = NUM_SAMPLES):
    # A small CIFAR-10-like problem: 10 classes, clustered with redundant
    # and hard samples — the structure subset selection exploits.
    data_config = SyntheticConfig(
        num_classes=10,
        num_samples=num_samples,
        image_shape=(3, 8, 8),
        within_cluster_noise=0.45,
        hard_fraction=0.2,
        seed=0,
    )
    train_set, test_set = make_train_test(data_config)
    print(f"dataset: {len(train_set)} train / {len(test_set)} test, "
          f"{train_set.num_classes} classes")

    # The paper's recipe (Section 4.1), compressed from 200 epochs to 20
    # and gentled for the small synthetic problem.
    base = TrainRecipe().scaled(epochs)
    recipe = TrainRecipe(
        epochs=epochs,
        batch_size=64,
        lr=0.03,
        lr_milestones=base.lr_milestones,
        lr_gamma_div=base.lr_gamma_div,
        clip_grad_norm=5.0,
    )

    def model_factory():
        return resnet20(num_classes=10, width=6, seed=7)

    # --- Goal: train on everything -------------------------------------
    print("\ntraining on the FULL dataset ...")
    full_history = FullTrainer(model_factory(), recipe, seed=1).train(train_set, test_set)
    print(f"  full-data accuracy: {100 * full_history.stable_accuracy():.2f}%")

    # --- NeSSA: train on a selected 28% subset --------------------------
    print("training with NeSSA (28% subsets) ...")
    config = NeSSAConfig(
        subset_fraction=0.28,  # the paper's CIFAR-10 subset (Table 2)
        biasing_drop_period=8,  # the 20-of-200-epoch period, scaled
        seed=1,
    )
    trainer = NeSSATrainer(model_factory(), recipe, config, model_factory)
    nessa_history = trainer.train(train_set, test_set)
    print(f"  NeSSA accuracy:     {100 * nessa_history.stable_accuracy():.2f}%")

    # --- Summary ---------------------------------------------------------
    gap = full_history.stable_accuracy() - nessa_history.stable_accuracy()
    grad_ratio = full_history.total_samples_trained / nessa_history.total_samples_trained

    print(f"\naccuracy gap:             {100 * gap:+.2f} points")
    print(f"gradient computations:    {grad_ratio:.1f}x fewer with NeSSA")
    print(f"feedback syncs:           {trainer.feedback.syncs} "
          f"({trainer.feedback.bytes_transferred / 1e3:.0f} KB total)")
    print(f"samples dropped (biased): {trainer.selector.loss_history.num_dropped}")


if __name__ == "__main__":
    main()
