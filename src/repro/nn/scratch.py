"""Reusable scratch buffers: lease/return instead of allocate/collect.

The steady-state training loop allocates the same large arrays every
batch — the conv layers' im2col column matrices and the loader's
gathered ``x``/``y`` batch pair — and immediately drops them, so the
allocator churns through hundreds of megabytes per epoch for buffers
whose shapes never change.  :class:`BufferPool` is a small keyed arena
for exactly that pattern: :meth:`~BufferPool.lease` hands out an array
of the requested ``(shape, dtype)`` from a free list (allocating only on
a miss) and :meth:`BufferLease.release` returns it for reuse.  After one
warm-up epoch every lease is served from the pool and the per-epoch
allocation count for pooled buffers drops to zero
(``tests/nn/test_scratch.py`` asserts this against the serial path).

Leases must be ``with``-managed, released in a ``try/finally``, or
ownership-transferred (bound to an attribute / returned) — the NES007
lint rule enforces it.  A leaked lease is not a correctness bug (the
array is simply garbage-collected and the pool re-allocates), but it
silently re-introduces the churn the pool exists to remove.

The pool is thread-safe: a lease may be taken on one thread and
released on another.

``scratch_pool()`` returns the process-wide default pool used by
:class:`repro.nn.modules.Conv2d` for its column buffers; pass
``None`` to :func:`set_scratch_pool` to disable pooling globally
(every lease then allocates, exactly the pre-pool behavior).
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["BufferLease", "BufferPool", "scratch_pool", "set_scratch_pool"]


class BufferLease:
    """One checked-out buffer; give it back with :meth:`release`.

    ``array`` is the leased ndarray (C-contiguous, uninitialized
    contents — the lessee overwrites it).  Releasing twice is a no-op,
    so ``with`` blocks compose with explicit early release.
    """

    __slots__ = ("array", "_pool", "_key")

    def __init__(self, array: np.ndarray, pool: "BufferPool | None", key):
        self.array = array
        self._pool = pool
        self._key = key

    def release(self) -> None:
        """Return the buffer to its pool (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool._return(self._key, self.array)

    @property
    def released(self) -> bool:
        return self._pool is None

    def __enter__(self) -> "BufferLease":
        return self

    def __exit__(self, *exc) -> bool:
        self.release()
        return False


class BufferPool:
    """Keyed free-list arena for fixed-shape scratch arrays.

    Parameters
    ----------
    max_free_per_key : free buffers retained per ``(shape, dtype)`` key;
        releases beyond that are dropped to the allocator so a burst of
        odd shapes (e.g. a partial tail batch) cannot pin memory.
    """

    def __init__(self, max_free_per_key: int = 8):
        if max_free_per_key < 1:
            raise ValueError("max_free_per_key must be >= 1")
        self.max_free_per_key = max_free_per_key
        self._free: dict[tuple, list[np.ndarray]] = {}
        self._lock = threading.Lock()
        self.allocations = 0
        self.reuses = 0
        self.outstanding = 0

    @staticmethod
    def _key(shape, dtype) -> tuple:
        return (tuple(int(s) for s in shape), np.dtype(dtype).str)

    def lease(self, shape, dtype=np.float32) -> BufferLease:
        """Check a ``(shape, dtype)`` buffer out of the pool.

        Contents are arbitrary (whatever the previous lessee left); the
        caller is expected to overwrite.  Release via the lease's
        ``with`` block or ``release()`` (NES007).
        """
        key = self._key(shape, dtype)
        with self._lock:
            stack = self._free.get(key)
            array = stack.pop() if stack else None
            if array is not None:
                self.reuses += 1
            else:
                self.allocations += 1
            self.outstanding += 1
        if array is None:
            array = np.empty(key[0], dtype=np.dtype(dtype))
        return BufferLease(array, self, key)

    def _return(self, key, array: np.ndarray) -> None:
        with self._lock:
            self.outstanding -= 1
            stack = self._free.setdefault(key, [])
            if len(stack) < self.max_free_per_key:
                stack.append(array)

    @property
    def stats(self) -> dict:
        """Allocation/reuse accounting (``allocations`` flat == steady state)."""
        with self._lock:
            free = sum(len(s) for s in self._free.values())
            return {
                "allocations": self.allocations,
                "reuses": self.reuses,
                "outstanding": self.outstanding,
                "free": free,
                "keys": len(self._free),
            }

    def clear(self) -> None:
        """Drop every free buffer (outstanding leases are unaffected)."""
        with self._lock:
            self._free.clear()


# -- process-wide default pool (conv scratch) --------------------------------

_SCRATCH: BufferPool | None = BufferPool()


def scratch_pool() -> BufferPool | None:
    """The process-wide scratch pool, or ``None`` when pooling is disabled."""
    return _SCRATCH


def set_scratch_pool(pool: BufferPool | None) -> BufferPool | None:
    """Install ``pool`` as the process-wide scratch arena; returns the old one."""
    global _SCRATCH
    previous = _SCRATCH
    _SCRATCH = pool
    return previous
