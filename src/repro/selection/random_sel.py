"""Random subset baseline — the floor every informed selector must beat."""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.selection.craig import SelectionResult
from repro.selection.partition import class_budgets

__all__ = ["RandomSelector"]


class RandomSelector:
    """Uniform class-stratified random subsets.

    Stratified rather than fully uniform so tiny fractions cannot drop an
    entire class (which would make the comparison to informed selectors
    unfairly noisy at 10%).  The class budgets are CRAIG's
    (:func:`~repro.selection.partition.class_budgets`), so random trains
    subsets of the same size.
    """

    name = "random"

    def __init__(self, seed: int = 0):
        self.rng = np.random.default_rng(seed)

    def select(self, dataset: Dataset, fraction: float, model=None) -> SelectionResult:
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")

        positions = np.concatenate([
            self.rng.choice(local, size=k_c, replace=False)
            for local, k_c in class_budgets(dataset.y, fraction)
        ])
        return SelectionResult(
            positions=positions,
            weights=np.ones(len(positions), dtype=np.float64),
            pairwise_bytes=0,
            proxy_flops=0.0,
        )
