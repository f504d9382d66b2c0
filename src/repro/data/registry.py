"""Paper-scale dataset metadata (Tables 1 and 2) and scaled experiment configs.

Two distinct uses:

1. **Storage/timing modelling** (Figures 2, 4, 6; the 3.47x/5.37x claims)
   needs the *true* paper-scale numbers — train-set sizes and on-disk bytes
   per image — because those figures are bandwidth/byte arithmetic.  The
   :data:`DATASETS` registry records them, together with the paper's
   reported accuracies so benchmark output can print paper-vs-measured.

2. **Accuracy experiments** (Tables 2, 3; Figure 5) run on laptop-scale
   synthetic stand-ins.  :func:`scaled_experiment_config` maps each paper
   dataset to a :class:`~repro.data.synthetic.SyntheticConfig` preserving
   the aspects that drive selection behaviour (class count ratios, relative
   dataset sizes, redundancy profile) at a tractable size.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.synthetic import SyntheticConfig

__all__ = ["PaperDataset", "DATASETS", "get_dataset_info", "scaled_experiment_config"]


@dataclass(frozen=True)
class PaperDataset:
    """Metadata for one row of the paper's Table 1 (+ Table 2 results)."""

    name: str
    num_classes: int
    train_size: int
    image_shape: tuple  # (C, H, W) at paper scale
    bytes_per_image: int  # on-disk size the paper quotes / implies
    model: str  # network from Table 1
    paper_full_acc: float  # Table 2 "All Data" column
    paper_nessa_acc: float  # Table 2 "NeSSA" column
    paper_subset_pct: int  # Table 2 "Subset" column

    @property
    def total_bytes(self) -> int:
        """On-disk footprint of the full training set."""
        return self.train_size * self.bytes_per_image

    @property
    def subset_fraction(self) -> float:
        return self.paper_subset_pct / 100.0


# Table 1 + Table 2 of the paper.  bytes_per_image: the paper states
# 0.5 KB/image MNIST, 3 KB CIFAR-10/100 (Section 1), 0.003 MB CIFAR and
# 0.126 MB ImageNet-100 (Section 4.4); SVHN/CINIC-10 are CIFAR-geometry
# (32x32 -> ~3 KB) and TinyImageNet is 64x64 (~4x CIFAR bytes).
DATASETS: dict[str, PaperDataset] = {
    d.name: d
    for d in [
        PaperDataset("cifar10", 10, 50_000, (3, 32, 32), 3_000, "resnet20", 92.02, 90.17, 28),
        PaperDataset("svhn", 10, 73_000, (3, 32, 32), 3_000, "resnet18", 95.81, 95.18, 15),
        PaperDataset("cinic10", 10, 90_000, (3, 32, 32), 3_000, "resnet18", 81.49, 80.26, 30),
        PaperDataset("cifar100", 100, 50_000, (3, 32, 32), 3_000, "resnet18", 70.98, 69.23, 38),
        PaperDataset(
            "tinyimagenet", 200, 100_000, (3, 64, 64), 12_000, "resnet18", 63.40, 63.66, 34
        ),
        PaperDataset(
            "imagenet100", 100, 130_000, (3, 224, 224), 126_000, "resnet50", 84.60, 83.76, 28
        ),
    ]
}

def get_dataset_info(name: str) -> PaperDataset:
    """Look up a paper dataset by name (raises ``KeyError`` with options)."""
    try:
        return DATASETS[name]
    except KeyError:
        raise KeyError(f"unknown dataset {name!r}; options: {sorted(DATASETS)}") from None


def scaled_experiment_config(
    name: str,
    scale: float = 1.0,
    seed: int = 0,
) -> SyntheticConfig:
    """Laptop-scale synthetic stand-in for a paper dataset.

    ``scale`` multiplies the default sample budget (1.0 keeps every dataset
    trainable in tens of seconds with the narrow models used in tests; the
    examples pass larger scales for better-converged curves).  A small
    positive ``scale`` is floored at 16 samples per class; a ``scale`` <= 0
    raises ``ValueError``.

    The mapping preserves, per dataset: the class-count ordering (10-class
    CIFAR-10/SVHN/CINIC vs many-class CIFAR-100/TinyImageNet/ImageNet-100),
    the relative train-set sizes, and a redundancy profile that makes SVHN
    the most redundant (the paper selects its smallest subset, 15%, there)
    and CIFAR-100 the least (largest subset, 38%).
    """
    if not scale > 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    info = get_dataset_info(name)
    # Scaled class counts: keep 10-class datasets exact, compress the
    # many-class ones to stay trainable while preserving the ordering.
    classes = {"cifar10": 10, "svhn": 10, "cinic10": 10,
               "cifar100": 20, "tinyimagenet": 20, "imagenet100": 16}[name]
    # Relative sizes follow Table 1 (50k..130k) compressed to 1.5k..3.4k.
    samples = int(round(info.train_size / 50_000 * 1500 * scale))
    # Redundancy/difficulty: higher within-cluster noise and more (and more
    # strongly pulled) hard samples mean less redundancy and lower ceiling
    # accuracy.  Calibrated so full-data training at laptop scale lands
    # near each dataset's paper accuracy ordering: SVHN easiest/most
    # redundant (paper: 95.8%, 15% subset), TinyImageNet hardest (63.4%).
    # hard_pull stays below 0.5 for cifar10 so hard samples keep their
    # Bayes-optimal label (pull past the midpoint turns them into label
    # noise, which inverts the Goal-is-ceiling property of Table 3).
    profile = {
        "cifar10": (0.50, 0.25, 0.45),
        "svhn": (0.30, 0.14, 0.60),
        "cinic10": (0.65, 0.28, 0.70),
        "cifar100": (0.80, 0.30, 0.75),
        "tinyimagenet": (1.00, 0.35, 0.80),
        "imagenet100": (0.40, 0.15, 0.60),
    }[name]
    noise, hard, pull = profile
    return SyntheticConfig(
        num_classes=classes,
        num_samples=max(samples, classes * 16),
        image_shape=(3, 8, 8),
        clusters_per_class=4,
        within_cluster_noise=noise,
        hard_fraction=hard,
        hard_pull=pull,
        seed=seed,
    )
