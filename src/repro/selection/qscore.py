"""Int8 quantized scoring engine (the Table 4 kernel, executed on the host).

The paper's selection kernel never sees fp32: proxies come out of an int8
systolic array and the similarity lanes consume them as int8 MACs.  The
host reproduction previously *modeled* that (byte accounting, cycle
counts) while scoring in fp32/fp64.  This module executes it:

1. **Per-class symmetric quantization** — each class bucket of gradient
   proxies is quantized to int8 with one symmetric scale per class
   (:func:`quantize_class_rows`, built on
   :func:`repro.nn.quantize.quantize_tensor`).  Facility location is
   shift-invariant per class, so per-class scales lose far less precision
   than one global scale without complicating the similarity algebra.
2. **Int8 GEMM with int32 accumulation** — squared distances are computed
   entirely in integer arithmetic via the Gram identity
   (``d2 = |qi|^2 + |qj|^2 - 2 qi.qj``) and the one dequantization the
   math needs is a single rescale at the end
   (``dist = scale * sqrt(d2)``).  No float64 intermediate ever exists
   (NES008 enforces this statically).  The GEMM itself runs through the
   float32 BLAS with the inner dimension segmented so every partial dot
   product stays below 2**24 — float32 holds such integers exactly, so
   the result is bit-equal to true int32 accumulation at BLAS speed.
3. **Cross-round incremental rescore cache** — every (class, chunk)
   similarity block is keyed by a blake2b digest of its *quantized*
   bucket (:func:`bucket_digest`).  Quantized feedback changes coarsely:
   in late epochs a round's int8 weights often round to the previous
   round's, so the quantized proxies — and hence the digests — repeat,
   and the whole block is served from :class:`SimilarityBlockCache`
   instead of recomputed.  The cache is content-addressed, so a hit is
   bit-identical to a recompute by construction.

Distances here are *exactly* the Euclidean distances of the dequantized
proxies (integer math + one f32 rescale), so the only quality loss versus
the fp32 path is the proxy quantization itself — which is precisely the
error the FPGA kernel incurs.  The equivalence suite
(``tests/selection/test_qscore.py``) bounds it: facility-location value
within 1% and top-k overlap >= 95% of the fp32 selection.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.nn.quantize import quantize_tensor
from repro.selection.facility import lazy_greedy, medoid_weights, stochastic_greedy

__all__ = [
    "QuantizedProxySet",
    "quantize_proxies",
    "quantize_class_rows",
    "bucket_digest",
    "int8_similarity",
    "SimilarityBlockCache",
    "default_block_cache",
    "reset_default_block_cache",
    "select_class_quantized",
]

INT8_BITS = 8
# float32 represents integers exactly up to 2**24; inner-dimension
# segments are sized so every partial dot product stays under it.
_F32_EXACT_LIMIT = 2**24


def _qmax(bits: int) -> int:
    if not 2 <= bits <= 8:
        raise ValueError("quantized scoring supports 2..8 bit proxies")
    return 2 ** (bits - 1) - 1


def quantize_class_rows(
    vectors: np.ndarray, bits: int = INT8_BITS
) -> tuple[np.ndarray, float, float]:
    """Quantize one class bucket of proxy rows with a symmetric scale.

    Returns ``(q, scale, dequant_error)`` where ``q`` is int8,
    ``vectors ~ q * scale``, and ``dequant_error`` is the max absolute
    round-trip error (the ``qscore.dequant_error`` gauge input).
    """
    _qmax(bits)
    vectors = np.ascontiguousarray(vectors)
    q32, scale = quantize_tensor(vectors, bits=bits, per_channel=False)
    q = q32.astype(np.int8)
    if vectors.size:
        rebuilt = q.astype(np.float32) * np.float32(scale)
        err = float(np.max(np.abs(rebuilt - vectors.astype(np.float32))))
    else:
        err = 0.0
    return q, float(scale), err


def bucket_digest(q: np.ndarray, scale: float, bits: int = INT8_BITS) -> str:
    """Content digest of a quantized bucket (the rescore-cache key).

    Covers the int8 payload, its shape, the dequantization scale and the
    bit width — everything the similarity block is a pure function of.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(str(q.shape).encode())
    h.update(np.int64(bits).tobytes())
    h.update(np.float32(scale).tobytes())
    h.update(np.ascontiguousarray(q).tobytes())
    return h.hexdigest()


@dataclass
class QuantizedProxySet:
    """One round's proxies, quantized per class and digest-indexed.

    ``q`` aligns row-for-row with the source proxy matrix; ``scales`` /
    ``digests`` map class label to that bucket's dequant scale and
    content digest.  ``perm_entropy`` feeds
    :func:`repro.parallel.scheduler.plan_selection_round`: deriving the
    chunk permutation from the bucket digest (instead of the round index)
    keeps chunk membership stable across rounds whose quantized feedback
    did not change — the precondition for cross-round block-cache hits.
    """

    q: np.ndarray
    labels: np.ndarray
    scales: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    bits: int = INT8_BITS
    dequant_error: float = 0.0

    @property
    def perm_entropy(self) -> dict:
        """Per-class permutation entropy ints derived from the digests."""
        return {
            label: int.from_bytes(bytes.fromhex(digest)[:8], "big")
            for label, digest in self.digests.items()
        }


def quantize_proxies(
    vectors: np.ndarray, labels: np.ndarray, bits: int = INT8_BITS
) -> QuantizedProxySet:
    """Quantize a round's proxy matrix class-by-class (symmetric scales)."""
    vectors = np.asarray(vectors)
    labels = np.asarray(labels)
    if vectors.ndim != 2:
        raise ValueError("vectors must be a 2-D (N, D) array")
    if labels.shape[0] != vectors.shape[0]:
        raise ValueError("labels must align with proxy rows")
    q = np.zeros(vectors.shape, dtype=np.int8)
    scales: dict = {}
    digests: dict = {}
    err = 0.0
    for label in np.unique(labels):
        local = np.flatnonzero(labels == label)
        qc, scale, class_err = quantize_class_rows(vectors[local], bits=bits)
        q[local] = qc
        scales[int(label)] = scale
        digests[int(label)] = bucket_digest(qc, scale, bits)
        err = max(err, class_err)
    return QuantizedProxySet(
        q=q, labels=labels, scales=scales, digests=digests, bits=bits,
        dequant_error=err,
    )


def _gram_tile(a: np.ndarray, b: np.ndarray, d_seg: int) -> np.ndarray:
    """Exact int32 gram tile of two int8 operand views (as float32).

    Each inner-dimension segment's partial products are integers below
    2**24, so the float32 BLAS computes them exactly; the int32
    accumulation across segments is then exact by construction.
    """
    d = a.shape[1]
    if d <= d_seg:
        return (a @ b.T).astype(np.int32)
    acc = np.zeros((a.shape[0], b.shape[0]), dtype=np.int32)
    for s0 in range(0, d, d_seg):
        acc += (a[:, s0 : s0 + d_seg] @ b[:, s0 : s0 + d_seg].T).astype(np.int32)
    return acc


def _squared_int_distances(q: np.ndarray, qmax: int) -> np.ndarray:
    """All-pairs squared distances of int8 rows, exactly, in int32."""
    n, d = q.shape
    if 4 * d * qmax * qmax >= 2**31:
        raise ValueError(
            f"proxy dimension {d} overflows int32 distance accumulation"
        )
    qf = q.astype(np.float32)
    qi = q.astype(np.int32)
    sq = (qi * qi).sum(axis=1, dtype=np.int32)
    d_seg = max(1, _F32_EXACT_LIMIT // (qmax * qmax))
    d2 = _gram_tile(qf, qf, d_seg)
    d2 *= -2
    d2 += sq[:, None]
    d2 += sq[None, :]
    return d2


def int8_similarity(
    q: np.ndarray,
    scale: float,
    bits: int = INT8_BITS,
) -> tuple[np.ndarray, int]:
    """Facility-location similarities of one quantized bucket.

    Integer Gram-identity distances, one dequant rescale, then the
    paper's ``c0 - d`` map with ``c0 = d.max()`` — all in float32; the
    distances are exactly those of the dequantized proxies.  Returns
    ``(similarity, macs)`` where ``macs`` counts the pairwise GEMM
    multiply-accumulates (``n^2 * d``, what the kernel's similarity
    lanes execute — see :meth:`repro.smartssd.kernel.SelectionKernel.similarity_macs`).
    """
    qmax = _qmax(bits)
    q = np.ascontiguousarray(q)
    if q.ndim != 2:
        raise ValueError("q must be a 2-D (N, D) array")
    if not np.issubdtype(q.dtype, np.integer):
        raise TypeError("q must be an integer array (use quantize_class_rows)")
    n, d = q.shape
    if n == 0:
        return np.zeros((0, 0), dtype=np.float32), 0
    d2 = _squared_int_distances(q.astype(np.int8, copy=False), qmax)
    dist = np.sqrt(d2.astype(np.float32))
    dist *= np.float32(scale)
    c0 = np.float32(dist.max())
    np.subtract(c0, dist, out=dist)
    return dist, n * n * d


class _BlockEntry:
    """One cached bucket: its similarity block plus memoized selections."""

    __slots__ = ("similarity", "selections")

    def __init__(self, similarity: np.ndarray):
        self.similarity = similarity
        # (k, method) -> (local indices, weights).  Lazy greedy and
        # medoid weights are pure functions of the similarity block, so
        # for a repeated digest the whole maximizer run can be skipped,
        # not just the GEMM.
        self.selections: dict = {}


class SimilarityBlockCache:
    """Content-addressed LRU of computed similarity blocks.

    Keys are :func:`bucket_digest` strings, so hits are bit-identical to
    recomputes by construction and invalidation is automatic (any change
    to the quantized bucket changes the digest).  Entries also memoize
    deterministic greedy results per ``(k, method)`` — a repeated digest
    in a late epoch skips the maximizer as well as the GEMM.
    Thread-safe: every lookup and insert on the process-default
    instance runs under its lock.  Cached arrays are returned as-is and
    must be treated read-only (the greedy maximizers never write into
    their similarity input).
    """

    def __init__(self, max_entries: int = 256):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.select_hits = 0
        self.select_misses = 0
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, _BlockEntry] = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, digest: str) -> np.ndarray | None:
        with self._lock:
            entry = self._entries.get(digest)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(digest)
            self.hits += 1
            return entry.similarity

    def put(self, digest: str, similarity: np.ndarray) -> None:
        with self._lock:
            entry = self._entries.get(digest)
            if entry is None:
                self._entries[digest] = _BlockEntry(similarity)
            else:
                entry.similarity = similarity
            self._entries.move_to_end(digest)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def get_selection(
        self, digest: str, k: int, method: str
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Memoized ``(indices, weights)`` for a digest, or ``None``.

        Only deterministic maximizers may be memoized (the caller gates
        on ``method == "lazy"``); copies are returned so callers can
        never corrupt the cached arrays.
        """
        with self._lock:
            entry = self._entries.get(digest)
            cached = entry.selections.get((k, method)) if entry else None
            if cached is None:
                self.select_misses += 1
                return None
            self.select_hits += 1
            return cached[0].copy(), cached[1].copy()

    def put_selection(
        self,
        digest: str,
        k: int,
        method: str,
        sel: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        with self._lock:
            entry = self._entries.get(digest)
            if entry is not None:
                entry.selections[(k, method)] = (sel.copy(), weights.copy())

    @property
    def bytes_cached(self) -> int:
        with self._lock:
            return sum(int(e.similarity.nbytes) for e in self._entries.values())

    @property
    def stats(self) -> dict:
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "lookups": lookups,
            "hit_rate": self.hits / lookups if lookups else 0.0,
            "select_hits": self.select_hits,
            "select_misses": self.select_misses,
            "entries": len(self),
            "bytes_cached": self.bytes_cached,
        }


# The process-default cache: every selection round in the process
# scores through this instance, which is what serves cross-round hits.
_DEFAULT_CACHE = SimilarityBlockCache()


def default_block_cache() -> SimilarityBlockCache:
    """The process-wide rescore cache (what ``cache=None`` resolves to)."""
    return _DEFAULT_CACHE


def reset_default_block_cache(max_entries: int = 256) -> SimilarityBlockCache:
    """Swap in a fresh default cache (tests/benches isolate rounds with this)."""
    global _DEFAULT_CACHE
    _DEFAULT_CACHE = SimilarityBlockCache(max_entries)
    return _DEFAULT_CACHE


def select_class_quantized(
    q: np.ndarray,
    scale: float,
    k: int,
    method: str = "lazy",
    epsilon: float = 0.1,
    rng: np.random.Generator | None = None,
    bits: int = INT8_BITS,
    similarity_dtype_bytes: int = 1,
    cache: SimilarityBlockCache | None = None,
) -> tuple[np.ndarray, np.ndarray, int, dict]:
    """Quantized twin of :func:`repro.selection.craig.craig_select_class`.

    ``q`` holds one bucket's int8 rows and ``scale`` its symmetric
    dequant scale.  The similarity block is served from ``cache``
    (default: the process-wide :func:`default_block_cache`) when the
    bucket's digest was scored before — the cross-round fast path.  For
    the deterministic ``lazy`` maximizer the greedy result itself is
    memoized per ``(digest, k)``, so a fully repeated bucket skips the
    maximizer too; ``stochastic`` depends on the caller's rng stream and
    only reuses the similarity block.

    Returns ``(local_indices, weights, pairwise_bytes, stats)``; ``stats``
    reports the digest, whether the block / greedy result were cache
    hits, the pairwise MACs actually executed (0 on a hit) and the
    block's byte size.
    """
    if similarity_dtype_bytes < 1:
        raise ValueError("similarity_dtype_bytes must be >= 1")
    if method not in ("lazy", "stochastic"):
        raise ValueError(f"unknown method {method!r} (use 'lazy' or 'stochastic')")
    n = q.shape[0]
    if n == 0:
        empty_stats = {
            "digest": None, "cache_hit": False, "select_hit": False,
            "macs": 0, "sim_bytes": 0,
        }
        return (  # lint: allow-upcast(empty weights vector honors medoid_weights' float64 contract; no quantized buffer involved)
            np.zeros(0, np.int64), np.zeros(0, np.float64), 0, empty_stats
        )
    k = min(k, n)
    if cache is None:
        cache = default_block_cache()
    digest = bucket_digest(q, scale, bits)
    pairwise_bytes = n * n * similarity_dtype_bytes
    similarity = cache.get(digest)
    macs = 0
    cache_hit = similarity is not None
    select_hit = False
    if cache_hit and method == "lazy":
        memo = cache.get_selection(digest, k, method)
        if memo is not None:
            sel, weights = memo
            stats = {
                "digest": digest, "cache_hit": True, "select_hit": True,
                "macs": 0, "sim_bytes": int(similarity.nbytes),
            }
            return sel, weights, pairwise_bytes, stats
    if similarity is None:
        similarity, macs = int8_similarity(q, scale, bits=bits)
        cache.put(digest, similarity)
    if method == "lazy":
        sel = lazy_greedy(similarity, k, validate=False)
    else:
        sel = stochastic_greedy(similarity, k, epsilon=epsilon, rng=rng, validate=False)
    weights = medoid_weights(similarity, sel)
    if method == "lazy":
        cache.put_selection(digest, k, method, sel, weights)
    stats = {
        "digest": digest,
        "cache_hit": cache_hit,
        "select_hit": select_hit,
        "macs": macs,
        "sim_bytes": int(similarity.nbytes),
    }
    return sel, weights, pairwise_bytes, stats
