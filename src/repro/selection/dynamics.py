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
from repro.selection.craig import SelectionResult
from repro.selection.gradients import compute_gradient_proxies
from repro.selection.partition import class_budgets

__all__ = ["LossRankedSelector", "ForgettingEventsSelector", "UncertaintySelector"]


def _stratified_top(dataset: Dataset, scores: np.ndarray, fraction: float) -> np.ndarray:
    """Per class, keep the highest-scoring samples of its subset budget."""
    chosen = []
    for local, k in class_budgets(dataset.y, fraction):
        order = np.argsort(scores[local])[::-1]
        chosen.append(local[order[:k]])
    return np.concatenate(chosen)


class LossRankedSelector:
    """Select the samples the model currently finds hardest (ref [19])."""

    name = "loss_ranked"

    def select(self, dataset: Dataset, fraction: float, model) -> SelectionResult:
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")

        proxy = compute_gradient_proxies(model, dataset.x, dataset.y)
        positions = _stratified_top(dataset, proxy.losses, fraction)
        return SelectionResult(
            positions=positions,
            weights=np.ones(len(positions), dtype=np.float64),
            pairwise_bytes=0,
            proxy_flops=proxy.flops,
        )


class ForgettingEventsSelector:
    """Select the most-forgotten samples (Toneva et al., ref [9]).

    Maintains per-sample counters across its own ``select`` calls: each
    call runs a forward pass, compares correctness with the previous
    call, and counts correct→incorrect transitions.  Never-learned
    samples score ``+inf``-like (they sort first), matching the paper's
    treatment of unforgettable vs never-learned examples.
    """

    name = "forgetting"

    def __init__(self):
        self._last_correct: dict[int, bool] = {}
        self._forget_counts: dict[int, int] = {}
        self._ever_correct: dict[int, bool] = {}

    def observe(self, ids: np.ndarray, correct: np.ndarray) -> None:
        """Update forgetting statistics from one evaluation pass."""
        for sample_id, ok in zip(ids, correct):
            key = int(sample_id)
            was = self._last_correct.get(key)
            if was and not ok:
                self._forget_counts[key] = self._forget_counts.get(key, 0) + 1
            self._last_correct[key] = bool(ok)
            self._ever_correct[key] = self._ever_correct.get(key, False) or bool(ok)

    def scores(self, ids: np.ndarray) -> np.ndarray:
        """Forgetting score: count, with never-learned samples ranked first."""
        out = np.empty(len(ids), dtype=np.float64)
        for i, sample_id in enumerate(ids):
            key = int(sample_id)
            if not self._ever_correct.get(key, False):
                out[i] = np.inf  # never learned -> most important
            else:
                out[i] = self._forget_counts.get(key, 0)
        return out

    def select(self, dataset: Dataset, fraction: float, model) -> SelectionResult:
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")

        proxy = compute_gradient_proxies(model, dataset.x, dataset.y)
        # Correct iff the true-class gradient entry is the dominant one:
        # softmax(z)[y] - 1 is the y-th entry; prediction == y when that
        # entry's softmax is the max, i.e. vectors[i, y] == min entry.
        preds = np.argmin(proxy.vectors, axis=1)
        correct = preds == dataset.y
        ids = dataset.ids
        self.observe(ids, correct)

        scores = self.scores(ids)
        # Tie-break equal forgetting counts by current loss.
        finite = np.isfinite(scores)
        if finite.any():
            max_loss = proxy.losses.max() or 1.0
            scores = np.where(finite, scores + proxy.losses / (10 * max_loss), scores)
        positions = _stratified_top(dataset, scores, fraction)
        return SelectionResult(
            positions=positions,
            weights=np.ones(len(positions), dtype=np.float64),
            pairwise_bytes=0,
            proxy_flops=proxy.flops,
        )


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
        positions = _stratified_top(dataset, scores, fraction)
        return SelectionResult(
            positions=positions,
            weights=np.ones(len(positions), dtype=np.float64),
            pairwise_bytes=0,
            proxy_flops=proxy.flops,
        )
