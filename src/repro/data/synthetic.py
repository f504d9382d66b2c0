"""Class-structured synthetic image data with controllable redundancy.

The selection results in the paper hinge on a structural property of real
vision datasets: most examples are *redundant* (dense clusters of
near-duplicates the model learns quickly) while a minority are *rare or
hard* (small clusters, samples near class boundaries) and carry most of the
gradient signal late in training.  Coreset selection wins because a few
medoids plus weights summarize the dense clusters.

The generator reproduces that structure explicitly:

- each class owns ``clusters_per_class`` prototype images (smooth random
  fields, so convolutions have spatial structure to exploit);
- cluster populations follow a Zipf-like profile — a few big redundant
  clusters, a tail of small rare ones;
- samples are prototypes plus within-cluster noise, and a ``hard_fraction``
  of samples is additionally pulled toward another class's prototype,
  placing them near the decision boundary.

Each sample records its ground-truth ``cluster_id`` and ``difficulty`` so
tests can assert selection behaviour (e.g. "coreset covers every cluster",
"biasing drops easy samples first") against the generator's own truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import Dataset, stratified_split

__all__ = ["SyntheticConfig", "SyntheticImageDataset", "make_train_test"]


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs of the synthetic generator.

    The defaults produce a small CIFAR-like problem that a narrow ResNet
    separates to ~90% accuracy in a few epochs on a laptop CPU.
    """

    num_classes: int = 10
    num_samples: int = 2000
    image_shape: tuple = (3, 8, 8)
    clusters_per_class: int = 4
    zipf_exponent: float = 1.0
    within_cluster_noise: float = 0.35
    hard_fraction: float = 0.15
    hard_pull: float = 0.45
    prototype_smoothness: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.num_samples < self.num_classes * self.clusters_per_class:
            raise ValueError("too few samples for the requested cluster structure")
        if not 0.0 <= self.hard_fraction < 1.0:
            raise ValueError("hard_fraction must be in [0, 1)")
        if len(self.image_shape) != 3:
            raise ValueError("image_shape must be (C, H, W)")


class SyntheticImageDataset(Dataset):
    """Synthetic dataset with per-sample generation metadata.

    Extra attributes over :class:`~repro.data.dataset.Dataset`:

    - ``cluster_ids``: global id of the cluster each sample was drawn from;
    - ``difficulty``: 0.0 for pure cluster samples, the pull strength for
      boundary-pulled ("hard") samples;
    - ``config``: the generator configuration.
    """

    def __init__(self, config: SyntheticConfig):
        rng = np.random.default_rng(config.seed)
        c, h, w = config.image_shape

        prototypes = _make_prototypes(config, rng)

        # Zipf-like cluster populations within each class.  Each cluster is
        # drawn in float64 and written straight into the float32 arrays.
        per_class = _split_sizes(config.num_samples, config.num_classes)
        x = np.empty((config.num_samples, c, h, w), dtype=np.float32)
        y = np.empty(config.num_samples, dtype=np.int64)
        cluster_ids = np.empty(config.num_samples, dtype=np.int64)
        difficulty = np.zeros(config.num_samples)
        start = 0
        for label in range(config.num_classes):
            weights = 1.0 / np.arange(1, config.clusters_per_class + 1) ** config.zipf_exponent
            weights /= weights.sum()
            counts = _allocate(per_class[label], weights, rng)
            for k in range(config.clusters_per_class):
                n = counts[k]
                rows = slice(start, start + n)
                samples = rng.normal(0.0, config.within_cluster_noise, size=(n, c, h, w))
                samples += prototypes[label, k]
                diff = difficulty[rows]
                n_hard = int(round(n * config.hard_fraction))
                if n_hard:
                    hard_idx = rng.choice(n, size=n_hard, replace=False)
                    other_labels = rng.choice(
                        [l for l in range(config.num_classes) if l != label], size=n_hard
                    )
                    other_k = rng.integers(0, config.clusters_per_class, size=n_hard)
                    pull = config.hard_pull * rng.uniform(0.6, 1.0, size=n_hard)
                    for hi, ol, ok, p in zip(hard_idx, other_labels, other_k, pull):
                        samples[hi] = (1 - p) * samples[hi] + p * prototypes[ol, ok]
                        diff[hi] = p
                x[rows] = samples
                y[rows] = label
                cluster_ids[rows] = label * config.clusters_per_class + k
                start += n

        order = rng.permutation(len(y))
        super().__init__(x[order], y[order])
        self.cluster_ids = cluster_ids[order]
        self.difficulty = difficulty[order]
        self.config = config
        self.prototypes = prototypes

    @property
    def num_clusters(self) -> int:
        return self.config.num_classes * self.config.clusters_per_class


def _make_prototypes(config: SyntheticConfig, rng: np.random.Generator) -> np.ndarray:
    """Smooth random-field prototype images, one per (class, cluster).

    Low-resolution noise upsampled by ``prototype_smoothness`` gives images
    with local spatial correlation, so convolutional features are the right
    tool — plain white noise would make convs pointless.
    """
    c, h, w = config.image_shape
    s = max(1, config.prototype_smoothness)
    lh, lw = max(1, h // s), max(1, w // s)
    low = rng.normal(0.0, 1.0, size=(config.num_classes, config.clusters_per_class, c, lh, lw))
    up = np.repeat(np.repeat(low, s, axis=3), s, axis=4)[:, :, :, :h, :w]
    if up.shape[3] < h or up.shape[4] < w:
        pad_h, pad_w = h - up.shape[3], w - up.shape[4]
        up = np.pad(up, ((0, 0), (0, 0), (0, 0), (0, pad_h), (0, pad_w)), mode="edge")
    # Separate class means so the task is learnable but not trivial.
    class_shift = rng.normal(0.0, 1.2, size=(config.num_classes, 1, c, 1, 1))
    return (up + class_shift).astype(np.float32)


def _split_sizes(total: int, parts: int) -> list[int]:
    """Split ``total`` into ``parts`` near-equal integers."""
    base = total // parts
    sizes = [base] * parts
    for i in range(total - base * parts):
        sizes[i] += 1
    return sizes


def _allocate(total: int, weights: np.ndarray, rng: np.random.Generator) -> list[int]:
    """Allocate ``total`` samples over clusters ~ ``weights``, min 1 each."""
    counts = np.maximum(1, np.floor(weights * total).astype(int))
    while counts.sum() > total:
        counts[counts.argmax()] -= 1
    while counts.sum() < total:
        counts[rng.integers(0, len(counts))] += 1
    return counts.tolist()


def make_train_test(
    config: SyntheticConfig, test_fraction: float = 0.2
) -> tuple[Dataset, Dataset]:
    """Generate a dataset and return a stratified (train, test) split.

    The split reuses ``config.seed`` so experiments are fully reproducible
    from the config alone.
    """
    full = SyntheticImageDataset(config)
    train, test = stratified_split(full, test_fraction, seed=config.seed)
    return train, test
