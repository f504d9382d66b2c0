"""Random subset baseline — the floor every informed selector must beat."""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.selection.craig import SelectionResult

__all__ = ["RandomSelector"]


class RandomSelector:
    """Uniform class-stratified random subsets.

    Stratified rather than fully uniform so tiny fractions cannot drop an
    entire class (which would make the comparison to informed selectors
    unfairly noisy at 10%).
    """

    name = "random"

    def __init__(self, seed: int = 0):
        self.rng = np.random.default_rng(seed)

    def select(self, dataset: Dataset, fraction: float, model=None) -> SelectionResult:
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")

        chosen = []
        for label in np.unique(dataset.y):
            local = np.flatnonzero(dataset.y == label)
            k_c = max(1, int(round(fraction * len(local))))
            chosen.append(self.rng.choice(local, size=min(k_c, len(local)), replace=False))
        positions = np.concatenate(chosen)
        return SelectionResult(
            positions=positions,
            weights=np.ones(len(positions), dtype=np.float64),
            pairwise_bytes=0,
            proxy_flops=0.0,
        )
