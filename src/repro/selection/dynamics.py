"""Training-dynamics selection baselines (paper §2.1, refs [9], [18], [19]).

The paper's second category of prior work infers sample importance from
training dynamics — losses, predictions, gradients from previous epochs —
instead of solving a coverage problem.  Three representatives:

- :class:`LossRankedSelector` — "focus on the biggest losers" (ref [19]):
  keep the samples with the highest current loss.
- :class:`ForgettingEventsSelector` — example forgetting (ref [9]): keep
  the samples most often *forgotten* (correct → incorrect transitions
  across epochs); rarely-forgotten samples are redundant.
- :class:`UncertaintySelector` — smallest-margin uncertainty sampling,
  the classic active-learning heuristic.

All three are class-stratified (like the paper's methods) and plug into
:class:`repro.core.trainer.SubsetTrainer` unchanged, which is how the
extended-baselines benchmark compares them against NeSSA.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.selection.biasing import checked_ids
from repro.selection.craig import SelectionResult
from repro.selection.gradients import compute_gradient_proxies
from repro.selection.partition import class_budgets

__all__ = ["LossRankedSelector", "ForgettingEventsSelector", "UncertaintySelector"]


def _stratified_top(
    dataset: Dataset, scores: np.ndarray, fraction: float, proxy_flops: float
) -> SelectionResult:
    """Per class, keep the highest-scoring samples of its subset budget, unweighted."""
    chosen = []
    for local, k in class_budgets(dataset.y, fraction):
        order = np.argsort(scores[local])[::-1]
        chosen.append(local[order[:k]])
    positions = np.concatenate(chosen)
    return SelectionResult(
        positions=positions,
        weights=np.ones(len(positions), dtype=np.float64),
        proxy_flops=proxy_flops,
    )


class LossRankedSelector:
    """Select the samples the model currently finds hardest (ref [19])."""

    name = "loss_ranked"

    def select(self, dataset: Dataset, fraction: float, model) -> SelectionResult:
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")

        proxy = compute_gradient_proxies(model, dataset.x, dataset.y)
        return _stratified_top(dataset, proxy.losses, fraction, proxy.flops)


class ForgettingEventsSelector:
    """Select the most-forgotten samples (Toneva et al., ref [9]).

    Maintains per-sample counters across its own ``select`` calls: each
    call runs a forward pass, compares correctness with the previous
    call, and counts correct→incorrect transitions.  Never-learned
    samples score ``+inf``-like (they sort first), matching the paper's
    treatment of unforgettable vs never-learned examples.

    The counters are arrays whose row is the sample id, sized by the
    first dataset handed to :meth:`select`; one selector serves one root
    dataset.
    """

    name = "forgetting"

    def __init__(self):
        self._forgets = None  # sized by the first select

    def _size(self, num_ids: int) -> None:
        """Allocate the per-sample arrays for the first dataset's root."""
        if self._forgets is None:
            self._correct = np.zeros(num_ids, dtype=bool)  # at the last observation
            self._forgets = np.zeros(num_ids, dtype=np.int64)  # correct -> incorrect so far
            self._learned = np.zeros(num_ids, dtype=bool)  # correct at any observation
        elif num_ids != len(self._forgets):
            raise ValueError("one selector serves one root dataset")

    def observe(self, ids: np.ndarray, correct: np.ndarray) -> None:
        """Update forgetting statistics from one evaluation pass (ids unique)."""
        if self._forgets is None:
            raise RuntimeError("observe before the selector saw a dataset")
        ids = checked_ids(ids, len(self._forgets), unique=True)
        correct = np.asarray(correct, dtype=bool)
        self._forgets[ids] += self._correct[ids] & ~correct
        self._correct[ids] = correct
        self._learned[ids] |= correct

    def scores(self, ids: np.ndarray) -> np.ndarray:
        """Forgetting score: count, with never-learned samples ranked first."""
        return np.where(self._learned[ids], self._forgets[ids], np.inf)

    def select(self, dataset: Dataset, fraction: float, model) -> SelectionResult:
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")

        self._size(dataset.num_ids)
        proxy = compute_gradient_proxies(model, dataset.x, dataset.y)
        # Correct iff the true-class gradient entry is the dominant one:
        # softmax(z)[y] - 1 is the y-th entry; prediction == y when that
        # entry's softmax is the max, i.e. vectors[i, y] == min entry.
        self.observe(dataset.ids, np.argmin(proxy.vectors, axis=1) == dataset.y)

        scores = self.scores(dataset.ids)
        # Tie-break equal forgetting counts by current loss.
        finite = np.isfinite(scores)
        if finite.any():
            max_loss = proxy.losses.max() or 1.0
            scores = np.where(finite, scores + proxy.losses / (10 * max_loss), scores)
        return _stratified_top(dataset, scores, fraction, proxy.flops)


class UncertaintySelector:
    """Smallest-margin uncertainty sampling (classic active learning)."""

    name = "uncertainty"

    def select(self, dataset: Dataset, fraction: float, model) -> SelectionResult:
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")

        proxy = compute_gradient_proxies(model, dataset.x, dataset.y)
        # Recover softmax probabilities from the last-layer gradient:
        # grad = p - onehot(y)  =>  p = grad + onehot(y).
        probs = proxy.vectors.copy()
        probs[np.arange(len(dataset)), dataset.y] += 1.0
        part = np.partition(probs, -2, axis=1)
        margin = part[:, -1] - part[:, -2]
        scores = -margin  # small margin = uncertain = important
        return _stratified_top(dataset, scores, fraction, proxy.flops)
