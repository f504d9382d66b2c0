"""Gradient proxies: the feature space the selectors cluster in.

The full per-sample gradient is far too large to compare pairwise.  CRAIG's
key observation (inherited by NeSSA) is that for a softmax + cross-entropy
head, the gradient w.r.t. the *last layer's* input upper-bounds the
variation of the full gradient, and that gradient is ``softmax(z) -
onehot(y)`` — computable from a forward pass alone.  NeSSA runs exactly
this forward pass on the FPGA with the quantized feedback model, and the
(num_classes,)-dim vector is the proxy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.nn.inference import eval_forward
from repro.nn.loss import CrossEntropyLoss

if TYPE_CHECKING:  # pragma: no cover - annotation only, avoids an import cycle
    from repro.parallel.cache import ProxyCache

__all__ = ["GradientProxy", "compute_gradient_proxies"]


@dataclass
class GradientProxy:
    """Per-sample selection features for one candidate pool.

    Attributes
    ----------
    vectors : ``(N, D)`` proxy vectors (the space medoids are found in).
    losses : ``(N,)`` per-sample cross-entropy (subset-biasing input).
    ids : ``(N,)`` global sample ids aligned with rows.
    flops : forward-pass FLOP estimate for the computation, used by the
        FPGA timing model.
    """

    vectors: np.ndarray
    losses: np.ndarray
    ids: np.ndarray
    flops: float = 0.0

    def __post_init__(self):
        # Note: a chained `a != b != c` comparison would skip comparing
        # vectors against ids, letting misaligned ids slip through.
        n = self.vectors.shape[0]
        if self.losses.shape[0] != n or self.ids.shape[0] != n:
            raise ValueError("vectors, losses and ids must align")


def compute_gradient_proxies(
    model,
    x: np.ndarray,
    y: np.ndarray,
    ids: np.ndarray | None = None,
    batch_size: int = 256,
    cache: ProxyCache | None = None,
) -> GradientProxy:
    """Run the selection model forward and derive per-sample proxies.

    ``model`` is any callable with torch-like ``__call__`` (logits) — in
    practice either the live target model or its
    :class:`~repro.nn.quantize.QuantizedModel` snapshot.  Runs in eval
    mode semantics (no caching, no BN updates); a ResNet goes through the
    fused :class:`~repro.nn.inference.InferencePlan`.

    ``cache`` is an optional :class:`~repro.parallel.cache.ProxyCache`:
    when the digest of the model's weights and the candidate-pool ids
    matches a cached round (nothing changed between biasing drops), the
    forward pass is skipped entirely and the cached proxy returned.
    Models whose weights cannot be digested bypass the cache.
    """
    n = x.shape[0]
    if ids is None:
        ids = np.arange(n, dtype=np.int64)

    with obs.span("proxy_compute", candidates=int(n)) as sp:
        cache_key = cache.key(model, ids) if cache is not None else None
        if cache_key is not None:
            cached = cache.get(cache_key)
            if cached is not None:
                sp.set(cache_hit=True, flops=float(cached.flops))
                return cached
        proxy, engine = _forward_proxies(model, x, y, ids, n, batch_size)
        sp.set(cache_hit=False, flops=float(proxy.flops), engine=engine)
    if cache is not None:
        cache.put(cache_key, proxy)
    return proxy


def _forward_proxies(model, x, y, ids, n, batch_size) -> tuple[GradientProxy, str]:
    """The uncached forward pass: the proxy and the engine (``eval_forward``) that ran it."""
    inner = getattr(model, "model", model)
    vec_chunks, loss_chunks = [], []
    with eval_forward(model, x.shape[1:]) as (forward, engine):
        for start in range(0, n, batch_size):
            xb = x[start : start + batch_size]
            yb = y[start : start + batch_size]
            logits = forward(xb)
            vec_chunks.append(CrossEntropyLoss.last_layer_gradients(logits, yb))
            loss_chunks.append(CrossEntropyLoss.per_sample_losses(logits, yb))

    vectors = np.concatenate(vec_chunks).astype(np.float64)
    losses = np.concatenate(loss_chunks).astype(np.float64)
    flops = _forward_flops(inner, x.shape) * n
    return GradientProxy(vectors=vectors, losses=losses, ids=np.asarray(ids), flops=flops), engine


def _forward_flops(model, x_shape: tuple) -> float:
    """Per-sample forward FLOPs; delegated to repro.perf when available."""
    try:
        from repro.perf.flops import model_forward_flops

        return model_forward_flops(model, x_shape[1:])
    except (ImportError, TypeError, ValueError, AttributeError):
        # The perf model raises TypeError for module types it cannot walk
        # and ValueError for non-(C,H,W) shapes — i.e. exotic models, for
        # which we charge the generic 2 FLOPs/param instead.  Anything
        # else (a bug in the walker) must surface, not be absorbed here.
        num_params = getattr(model, "num_parameters", lambda: 0)()
        return 2.0 * num_params
