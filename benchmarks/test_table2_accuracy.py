"""Table 2: NeSSA accuracy vs full-data training on all six datasets.

The paper: NeSSA trains on 15-38% subsets and lands within ~1-2 points of
the full-data model (TinyImageNet even slightly above).  We reproduce the
*relationships* on synthetic stand-ins — absolute accuracies are a
property of the real datasets.  Accuracy is the mean over the last three
epochs, averaged over two seeds (the laptop-scale runs are ~30x smaller
than the paper's, so single-epoch single-seed numbers are noisy).
"""

import numpy as np
import pytest

from repro.data.registry import DATASETS

from benchmarks._shared import cached_run, per_epoch, write_table

DATASET_NAMES = list(DATASETS)
SEEDS = (1, 2)


def _score(dataset: str, method: str, fraction=None) -> float:
    runs = [
        cached_run(dataset, method, fraction=fraction, seed=s).history.stable_accuracy()
        for s in SEEDS
    ]
    return float(np.mean(runs))


@pytest.fixture(scope="module")
def table2_scores():
    scores = {}
    for name in DATASET_NAMES:
        info = DATASETS[name]
        scores[name] = (
            _score(name, "full"),
            _score(name, "nessa", info.subset_fraction),
        )
    return scores


def test_table2_accuracy(table2_scores, benchmark):
    scores = benchmark.pedantic(lambda: table2_scores, rounds=1, iterations=1)

    lines = ["Table 2: accuracy and data ratio, NeSSA vs full dataset"]
    lines.append(
        f"{'dataset':13s} {'full(ours)':>10s} {'nessa(ours)':>11s} {'gap':>6s} "
        f"{'subset%':>8s} {'n full':>7s} {'n nessa':>8s} | "
        f"{'full(paper)':>11s} {'nessa(paper)':>12s}"
    )
    for name in DATASET_NAMES:
        info = DATASETS[name]
        full, nessa = scores[name]
        # samples trained per epoch (seed 1; the size does not depend on the seed)
        n_full = per_epoch(cached_run(name, "full", seed=SEEDS[0]).history)
        n_nessa = per_epoch(
            cached_run(name, "nessa", fraction=info.subset_fraction, seed=SEEDS[0]).history
        )
        lines.append(
            f"{name:13s} {100 * full:10.2f} {100 * nessa:11.2f} "
            f"{100 * (full - nessa):6.2f} {info.paper_subset_pct:8d} "
            f"{n_full:>7s} {n_nessa:>8s} | "
            f"{info.paper_full_acc:11.2f} {info.paper_nessa_acc:12.2f}"
        )
    write_table("table2_accuracy", lines)

    gaps = []
    for name in DATASET_NAMES:
        full, nessa = scores[name]
        gap = full - nessa
        gaps.append(gap)
        # Paper: "small accuracy degradation of approx. 1-2%".  At 1/30
        # scale we allow up to 6 points per dataset...
        assert gap < 0.06, f"{name}: NeSSA degraded {100 * gap:.1f} points"
        # ...and NeSSA must be far above chance.
        assert nessa > 3 * 1.0 / DATASETS[name].num_classes
    # ...with the cross-dataset average within 3.5 points.
    assert float(np.mean(gaps)) < 0.035


def test_table2_difficulty_ordering(table2_scores, benchmark):
    """Full-data accuracy tracks the paper's dataset ordering: SVHN is the
    easiest of the 10-class datasets, CINIC-10 the hardest; the 20-class
    TinyImageNet stand-in is the hardest overall (paper: 63.4%)."""
    acc = benchmark.pedantic(
        lambda: {name: table2_scores[name][0] for name in DATASET_NAMES},
        rounds=1, iterations=1,
    )
    assert acc["svhn"] > acc["cinic10"]
    assert acc["cifar10"] > acc["cinic10"]
    assert acc["tinyimagenet"] == min(acc.values())


def test_table2_subsets_actually_small(benchmark):
    """NeSSA trained on the Table 2 subset fractions, not on everything."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for name in DATASET_NAMES:
        info = DATASETS[name]
        run = cached_run(name, "nessa", fraction=info.subset_fraction, seed=SEEDS[0])
        assert run.history.mean_subset_fraction < 0.45
        assert run.history.mean_subset_fraction == pytest.approx(
            info.subset_fraction, abs=0.05
        )
