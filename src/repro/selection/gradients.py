"""Gradient proxies: the feature space the selectors cluster in.

The full per-sample gradient is far too large to compare pairwise.  CRAIG's
key observation (inherited by NeSSA) is that for a softmax + cross-entropy
head, the gradient w.r.t. the *last layer's* input upper-bounds the
variation of the full gradient, and that gradient is ``softmax(z) -
onehot(y)`` — computable from a forward pass alone.  NeSSA computes it on
the FPGA with the quantized feedback model, and the (num_classes,)-dim
vector is the proxy.  :func:`proxies_from_logits` is the
one place the formula lives: :func:`compute_gradient_proxies` applies it to
a full forward's logits, and the NeSSA selector to its cached embeddings
through the quantized head.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.nn.inference import EVAL_BLOCK, InferencePlan
from repro.nn.loss import CrossEntropyLoss
from repro.nn.resnet import ResNet
from repro.perf.flops import model_forward_flops

__all__ = ["GradientProxy", "compute_gradient_proxies", "proxies_from_logits"]


@dataclass
class GradientProxy:
    """Per-sample selection features for one candidate pool.

    Attributes
    ----------
    vectors : ``(N, D)`` proxy vectors (the space medoids are found in).
    losses : ``(N,)`` per-sample cross-entropy (subset-biasing input).
    flops : forward-pass FLOP estimate for the computation, used by the
        FPGA timing model.
    """

    vectors: np.ndarray
    losses: np.ndarray
    flops: float = 0.0

    def __post_init__(self):
        if self.losses.shape[0] != self.vectors.shape[0]:
            raise ValueError("vectors and losses must align")


def proxies_from_logits(logits: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(softmax(z) - onehot(y), per-sample cross-entropy)`` of one logit batch."""
    return (
        CrossEntropyLoss.last_layer_gradients(logits, y),
        CrossEntropyLoss.per_sample_losses(logits, y),
    )


def compute_gradient_proxies(model: ResNet, x: np.ndarray, y: np.ndarray) -> GradientProxy:
    """Run the selection model forward and derive per-sample proxies.

    ``model`` is a ResNet: the live target model, or the
    :class:`~repro.core.feedback.FeedbackLoop` replica.  The forward is
    the fused eval-mode :class:`~repro.nn.inference.InferencePlan` (no
    caching, no BN updates, the model untouched), in blocks of
    :data:`~repro.nn.inference.EVAL_BLOCK` images.

    The ``proxy_compute`` span carries ``cache_hit=False``: this function
    always runs the forward pass.  :class:`~repro.core.selector.NeSSASelector`
    opens the same span with ``cache_hit=True`` on rounds that serve rows
    from its embedding array, and a ``forwarded`` count of the rows it
    re-forwarded; ``benchmarks/e2e/spans.py`` counts into
    ``selection.proxy_samples`` only the candidates of spans without a hit.
    """
    n = x.shape[0]
    with obs.span("proxy_compute", candidates=int(n)) as sp:
        forward = InferencePlan(model, x.shape[1:])
        vec_chunks, loss_chunks = [], []
        for start in range(0, n, EVAL_BLOCK):
            xb = x[start : start + EVAL_BLOCK]
            yb = y[start : start + EVAL_BLOCK]
            vectors, losses = proxies_from_logits(forward(xb), yb)
            vec_chunks.append(vectors)
            loss_chunks.append(losses)
        proxy = GradientProxy(
            vectors=np.concatenate(vec_chunks).astype(np.float64),
            losses=np.concatenate(loss_chunks).astype(np.float64),
            flops=model_forward_flops(model, x.shape[1:]) * n,
        )
        sp.set(cache_hit=False, flops=float(proxy.flops))
    return proxy
