"""BufferPool/BufferLease: reuse, lifecycle discipline, thread safety.

The acceptance property (ISSUE 6): steady-state training allocates no
fresh batch or im2col buffers — the pool's ``allocations`` counter goes
flat after warm-up while ``reuses`` keeps climbing, in contrast to the
unpooled path's one-allocation-per-batch churn.
"""

import threading

import numpy as np
import pytest

from repro.nn.scratch import BufferLease, BufferPool, scratch_pool, set_scratch_pool


class TestLeaseBasics:
    def test_lease_allocates_then_reuses_after_release(self):
        pool = BufferPool()
        lease = pool.lease((4, 3), np.float32)
        array = lease.array
        assert array.shape == (4, 3)
        assert array.dtype == np.float32
        lease.release()
        again = pool.lease((4, 3), np.float32)
        assert again.array is array  # same buffer, zero-copy round trip
        stats = pool.stats
        assert stats["allocations"] == 1
        assert stats["reuses"] == 1

    def test_distinct_keys_do_not_share_buffers(self):
        pool = BufferPool()
        a = pool.lease((4,), np.float32)
        a.release()
        b = pool.lease((4,), np.float64)  # same shape, different dtype
        assert b.array is not a.array
        assert pool.stats["allocations"] == 2

    def test_with_block_releases(self):
        pool = BufferPool()
        with pool.lease((2, 2)) as lease:
            lease.array[:] = 1.0
            assert not lease.released
        assert lease.released
        assert pool.stats["outstanding"] == 0

    def test_with_block_releases_on_exception(self):
        pool = BufferPool()
        with pytest.raises(RuntimeError):
            with pool.lease((2, 2)):
                raise RuntimeError("lessee died")
        assert pool.stats["outstanding"] == 0
        assert pool.stats["free"] == 1

    def test_release_is_idempotent(self):
        pool = BufferPool()
        lease = pool.lease((3,))
        lease.release()
        lease.release()  # no double-return
        stats = pool.stats
        assert stats["outstanding"] == 0
        assert stats["free"] == 1

    def test_unpooled_lease_is_plain_allocation(self):
        lease = BufferLease(np.empty(3, dtype=np.float32), None, None)
        assert lease.released  # nothing to give back
        lease.release()

    def test_max_free_cap_drops_excess_buffers(self):
        pool = BufferPool(max_free_per_key=2)
        leases = [pool.lease((5,)) for _ in range(4)]
        for lease in leases:
            lease.release()
        assert pool.stats["free"] == 2  # two dropped to the allocator

    def test_clear_drops_free_but_not_outstanding(self):
        pool = BufferPool()
        held = pool.lease((2,))
        pool.lease((2,)).release()
        pool.clear()
        assert pool.stats["free"] == 0
        assert pool.stats["outstanding"] == 1
        held.release()
        assert pool.stats["free"] == 1

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            BufferPool(max_free_per_key=0)


class TestThreadSafety:
    def test_cross_thread_lease_release_accounting_stays_consistent(self):
        # Hammer the pool from several threads and check the books
        # balance.
        pool = BufferPool(max_free_per_key=8)
        errors = []

        def worker(seed):
            try:
                rng = np.random.default_rng(seed)
                for _ in range(200):
                    lease = pool.lease((8, 8))
                    lease.array[0, 0] = rng.normal()
                    lease.release()
            except Exception as exc:  # pragma: no cover - only on failure
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        stats = pool.stats
        assert stats["outstanding"] == 0
        assert stats["allocations"] + stats["reuses"] == 4 * 200
        # concurrency bounds allocations: never more live buffers than threads
        assert stats["allocations"] <= 4


class TestProcessWidePool:
    def test_set_scratch_pool_round_trip(self):
        replacement = BufferPool()
        previous = set_scratch_pool(replacement)
        try:
            assert scratch_pool() is replacement
        finally:
            set_scratch_pool(previous)
        assert scratch_pool() is previous

    def test_conv_scratch_allocations_flat_after_warmup(self):
        # Conv2d leases its (C*k*k, OH*OW*N) im2col column matrix from the
        # process pool; repeated same-shape forwards must not allocate
        # fresh scratch.
        from repro.nn.modules import Conv2d

        pool = BufferPool()
        previous = set_scratch_pool(pool)
        try:
            conv = Conv2d(3, 8, 3, padding=1, rng=np.random.default_rng(0))
            x = np.random.default_rng(1).normal(size=(4, 3, 8, 8)).astype(np.float32)
            # In train mode each forward leases its buffer *before*
            # releasing the cached one, so steady state is two buffers
            # in rotation — reached by the second forward.
            conv.forward(x)
            conv.forward(x)
            allocs_warm = pool.stats["allocations"]
            assert 0 < allocs_warm <= 2
            assert conv._cache[0].shape == (3 * 9, 8 * 8 * 4)
            for _ in range(5):
                conv.forward(x)
            assert pool.stats["allocations"] == allocs_warm
            assert pool.stats["reuses"] > 0
        finally:
            set_scratch_pool(previous)


class TestAllocationChurnVsSerial:
    def test_pooled_loader_churns_less_than_one_alloc_per_batch(self):
        """A producer thread fills pooled batch buffers and hands the
        leases to the consumer thread, which releases them: steady-state
        buffers come from the pool, so the allocation count is a small
        constant while unpooled gathering allocates per batch."""
        import queue

        pool = BufferPool(max_free_per_key=4)
        batches, depth = 32, 2
        ready = queue.Queue(maxsize=depth)

        def produce():
            for i in range(batches):
                x, y = pool.lease((8, 3, 4, 4)), pool.lease((8,), np.int64)
                x.array[:] = i
                ready.put((x, y))

        producer = threading.Thread(target=produce)
        producer.start()
        for i in range(batches):
            x, y = ready.get(timeout=10)
            assert x.array[0, 0, 0, 0] == i
            x.release()
            y.release()
        producer.join(timeout=10)
        assert not producer.is_alive()
        stats = pool.stats
        # unpooled equivalent: one x + one y allocation per batch
        unpooled_allocations = 2 * batches
        assert stats["allocations"] < unpooled_allocations / 4
        assert stats["allocations"] + stats["reuses"] == unpooled_allocations
        assert stats["outstanding"] == 0
