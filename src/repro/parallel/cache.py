"""Proxy-reuse cache: skip the selection forward pass when nothing changed.

Between §3.2.2 biasing drops, consecutive selection rounds can see the
exact same (weights, candidate pool) pair — e.g. when the feedback loop
is disabled (ablation arm), or when a round is re-run for analysis.  A
full gradient-proxy forward pass is a pure function of the weights and
the candidate rows; :class:`ProxyCache` memoizes it under a digest of
both, so an unchanged pair costs one hash instead of one forward pass.
The NeSSA selector does not use it: it keeps the pool's penultimate
embeddings and scores them with the current head, re-forwarding each
row once every ``NeSSAConfig.refresh_period`` rounds.

Invalidation is structural, not temporal: any weight update (the digest
covers every parameter and buffer byte of the replica) or any pool
mutation (the digest covers the candidate id array) produces a
different key.  ``tests/parallel`` property-tests both invalidation axes.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

import numpy as np

from repro.obs.metrics import metrics

__all__ = ["ProxyCache", "model_weights_digest"]


def model_weights_digest(model) -> str | None:
    """Hex digest of every parameter/buffer byte of ``model``.

    Accepts the quantized replica (:class:`~repro.nn.quantize.QuantizedModel`)
    or a bare :class:`~repro.nn.modules.Module`.  Returns ``None`` for
    models without introspectable state (plain callables) — callers must
    then bypass the cache, since staleness cannot be detected.
    """
    inner = getattr(model, "model", model)
    named_parameters = getattr(inner, "named_parameters", None)
    if named_parameters is None:
        return None
    h = hashlib.blake2b(digest_size=16)
    try:
        for name, param in named_parameters():
            h.update(name.encode())
            h.update(np.ascontiguousarray(param.data).tobytes())
        named_buffers = getattr(inner, "named_buffers", None)
        if named_buffers is not None:
            for name, buf in named_buffers():
                h.update(name.encode())
                h.update(np.ascontiguousarray(buf).tobytes())
    except (TypeError, ValueError, AttributeError):
        # Duck-typed models whose parameters are not array-convertible
        # (or whose iterators have the wrong shape) cannot be digested —
        # the caller then bypasses the cache.  Genuine errors in *our*
        # models must propagate rather than silently disable caching.
        return None
    return h.hexdigest()


class ProxyCache:
    """Small LRU over :class:`~repro.selection.gradients.GradientProxy` results.

    ``max_entries`` bounds memory: each entry holds one candidate pool's
    ``(N, D)`` proxy matrix, so a handful suffices (the common hit
    pattern alternates between at most two pools around a biasing drop).
    """

    def __init__(self, max_entries: int = 4):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[str, object] = OrderedDict()
        # LRU reordering and the hit/miss counters are not atomic;
        # every mutation takes the lock, so a lookup is one atomic step
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def key(self, model, ids: np.ndarray) -> str | None:
        """Cache key for (feedback weights, candidate pool).

        The replica's quantization bit width is part of the digest:
        results produced for replicas quantized at different widths must
        never collide under one key, even when their dequantized weight
        bytes happen to agree.
        """
        weights = model_weights_digest(model)
        if weights is None:
            return None
        h = hashlib.blake2b(digest_size=16)
        h.update(weights.encode())
        h.update(repr(getattr(model, "bits", None)).encode())
        h.update(np.ascontiguousarray(np.asarray(ids)).tobytes())
        return h.hexdigest()

    def get(self, key: str | None):
        """The cached proxy for ``key``, or ``None`` (counts hit/miss).

        Every lookup lands in the per-cache :attr:`hits`/:attr:`misses`
        fields *and* the process-wide metrics registry
        (``proxy_cache.hits`` / ``proxy_cache.misses``) — a no-op until
        a run installs a real registry.
        """
        if key is None:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
        if entry is None:
            metrics().counter("proxy_cache.misses").inc()
            return None
        metrics().counter("proxy_cache.hits").inc()
        return entry

    @property
    def stats(self) -> dict:
        """Hit/miss accounting for this cache instance."""
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "lookups": lookups,
            "hit_rate": self.hits / lookups if lookups else 0.0,
            "entries": len(self._entries),
        }

    def put(self, key: str | None, proxy) -> None:
        if key is None:
            return
        with self._lock:
            self._entries[key] = proxy
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
