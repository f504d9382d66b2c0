"""Cross-entropy loss exposing the quantities the selection model consumes.

NeSSA's selector needs, per training example: the loss value (for subset
biasing, Section 3.2.2) and the last-layer gradient (the CRAIG gradient
proxy, Section 3.1).  For a softmax + cross-entropy head, the gradient of
the loss with respect to the logits is exactly ``softmax(z) - onehot(y)``,
so :meth:`CrossEntropyLoss.last_layer_gradients` returns that quantity
without any backward pass — mirroring how the paper's FPGA kernel derives
it from a forward pass alone.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.nn.functional import log_softmax, softmax

__all__ = ["CrossEntropyLoss"]


class CrossEntropyLoss:
    """Softmax cross-entropy with optional per-sample weights.

    CRAIG trains on a weighted subset (each medoid stands in for its
    cluster), so the loss accepts per-sample weights; the gradient passed
    back to the network is scaled accordingly.  A batch whose weights sum
    to 0 carries no signal: its loss is ``0.0``, its gradient is zero and
    the ``nn.loss.zero_weight_batches`` counter records it, instead of a
    0/0 NaN that would poison the model for the rest of the run.
    """

    def __init__(self):
        self._cache: tuple | None = None

    def forward(
        self,
        logits: np.ndarray,
        targets: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> float:
        """Mean (weighted) cross-entropy over the batch."""
        n = logits.shape[0]
        if targets.shape[0] != n:
            raise ValueError("logits and targets batch sizes differ")
        log_probs = log_softmax(logits, axis=1)
        per_sample = -log_probs[np.arange(n), targets]
        if weights is None:
            loss = float(per_sample.mean())
        else:
            weights = np.asarray(weights, dtype=np.float64)
            total = weights.sum()
            if total == 0:
                obs.metrics().counter("nn.loss.zero_weight_batches").inc()
                loss = 0.0
            else:
                loss = float((per_sample * weights).sum() / total)
        self._cache = (logits, targets, weights)
        return loss

    __call__ = forward

    def backward(self) -> np.ndarray:
        """Gradient of the mean loss w.r.t. the logits."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        logits, targets, weights = self._cache
        self._cache = None
        n = logits.shape[0]
        grad = softmax(logits, axis=1)
        grad[np.arange(n), targets] -= 1.0
        if weights is None:
            grad /= n
        else:
            total = weights.sum()
            if total == 0:
                grad[...] = 0.0
            else:
                grad *= (weights / total)[:, None]
        return grad.astype(np.float32)

    @staticmethod
    def per_sample_losses(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Loss of each example separately (subset-biasing input)."""
        n = logits.shape[0]
        log_probs = log_softmax(logits, axis=1)
        return -log_probs[np.arange(n), targets]

    @staticmethod
    def last_layer_gradients(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Per-sample gradient w.r.t. the logits: ``softmax(z) - onehot(y)``.

        This is the gradient proxy CRAIG/NeSSA cluster on — computable from
        a forward pass only, which is what makes the FPGA offload cheap.
        """
        n = logits.shape[0]
        grad = softmax(logits, axis=1)
        grad[np.arange(n), targets] -= 1.0
        return grad
