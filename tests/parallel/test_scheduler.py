"""Tests for the deterministic work-unit scheduler."""

import numpy as np
import pytest

from repro.parallel.engine import SelectionExecutor
from repro.parallel.scheduler import WorkUnit, plan_selection_round, unit_rng
from repro.selection.partition import apportion, chunk_pairwise_bytes


def _labels(rng, n=120, classes=4):
    return rng.integers(0, classes, size=n)


class TestPlanSelectionRound:
    def test_units_partition_the_pool_per_class(self, rng):
        labels = _labels(rng)
        units = plan_selection_round(labels, 40, seed=0, round_index=0, chunk_select=8)
        for label in np.unique(labels):
            covered = np.concatenate(
                [u.positions for u in units if u.label == label]
            )
            local = np.flatnonzero(labels == label)
            # Chunks are disjoint and drawn only from the class's rows.
            assert len(np.unique(covered)) == len(covered)
            assert set(covered) <= set(local)

    def test_takes_sum_matches_serial_accounting(self, rng):
        # Every budget, not one lucky one: the classes apportion k_total by
        # class size and the round takes exactly k_total.
        labels = _labels(rng)
        counts = np.bincount(labels)
        for k_total in range(1, len(labels) + 1):
            units = plan_selection_round(labels, k_total, seed=0, round_index=0,
                                         chunk_select=8)
            got = [sum(u.take for u in units if u.label == c) for c in range(len(counts))]
            assert got == apportion(counts, k_total)
            assert sum(got) == k_total

    def test_orders_are_contiguous_and_sorted(self, rng):
        units = plan_selection_round(_labels(rng), 30, seed=1, round_index=2,
                                     chunk_select=8)
        assert [u.order for u in units] == list(range(len(units)))

    def test_seed_keys_are_unique(self, rng):
        units = plan_selection_round(_labels(rng), 40, seed=3, round_index=1,
                                     chunk_select=8)
        keys = {u.seed_key for u in units}
        assert len(keys) == len(units)

    def test_plan_is_pure_function_of_inputs(self, rng):
        labels = _labels(rng)
        a = plan_selection_round(labels, 40, seed=5, round_index=7, chunk_select=8)
        b = plan_selection_round(labels, 40, seed=5, round_index=7, chunk_select=8)
        assert len(a) == len(b)
        for ua, ub in zip(a, b):
            assert ua.seed_key == ub.seed_key
            assert np.array_equal(ua.positions, ub.positions)
            assert ua.take == ub.take

    def test_round_index_changes_the_partition(self, rng):
        labels = _labels(rng, n=200)
        a = plan_selection_round(labels, 60, seed=5, round_index=0, chunk_select=8)
        b = plan_selection_round(labels, 60, seed=5, round_index=1, chunk_select=8)
        assert any(
            not np.array_equal(ua.positions, ub.positions) for ua, ub in zip(a, b)
        )

    def test_no_partitioning_yields_one_unit_per_class(self, rng):
        labels = _labels(rng)
        units = plan_selection_round(labels, 40, seed=0, round_index=0)
        assert len(units) == len(np.unique(labels))

    def test_empty_pool_yields_no_units(self):
        assert plan_selection_round(np.zeros(0, np.int64), 10, seed=0,
                                    round_index=0) == []

    def test_invalid_budgets_rejected(self, rng):
        labels = _labels(rng)
        with pytest.raises(ValueError):
            plan_selection_round(labels, 0, seed=0, round_index=0)
        with pytest.raises(ValueError):
            plan_selection_round(labels, 10, seed=0, round_index=0, chunk_select=0)

    def test_unit_validation(self):
        with pytest.raises(ValueError):
            WorkUnit(order=0, label=0, positions=np.arange(3), take=4,
                     seed_key=(0, 0, 0, 0))
        with pytest.raises(ValueError):
            WorkUnit(order=0, label=0, positions=np.arange(3), take=-1,
                     seed_key=(0, 0, 0, 0))


def _select_one_pool(vectors, k, chunk_select, seed=0):
    """Plan and run one round over a single-class pool of ``vectors``."""
    n = vectors.shape[0]
    units = plan_selection_round(np.zeros(n, np.int64), k, seed=seed,
                                 round_index=0, chunk_select=chunk_select)
    return SelectionExecutor().run_round(vectors, np.arange(n), units)


class TestSelectionRoundOnOnePool:
    """The §3.2.3 chunked selection of one class, planned and run."""

    def test_selects_exactly_k(self):
        v = np.random.default_rng(3).normal(size=(120, 5))
        sel, _, _ = _select_one_pool(v, 30, chunk_select=10, seed=3)
        assert len(sel) == 30
        assert len(np.unique(sel)) == 30

    def test_chunk_memory_bounded(self):
        """Paper §3.2.3: only a chunk's similarity matrix is materialized."""
        v = np.random.default_rng(4).normal(size=(200, 5))
        _, _, max_bytes = _select_one_pool(v, 40, chunk_select=10, seed=4)
        # 40/10 = 4 chunks of 50 -> tile is 50x50x4 bytes, not 200x200x4.
        assert max_bytes <= chunk_pairwise_bytes(51)
        assert max_bytes < chunk_pairwise_bytes(200)

    def test_paper_chunk_convention(self):
        """k/m chunks with m selected per chunk (paper's formula)."""
        v = np.random.default_rng(5).normal(size=(400, 4))
        k, m = 64, 16
        units = plan_selection_round(np.zeros(400, np.int64), k, seed=5,
                                     round_index=0, chunk_select=m)
        assert [u.take for u in units] == [m] * (k // m)
        sel, _, _ = SelectionExecutor().run_round(v, np.arange(400), units)
        assert len(sel) == k

    def test_weights_conserve_chunk_populations(self):
        v = np.random.default_rng(6).normal(size=(90, 4))
        _, w, _ = _select_one_pool(v, 18, chunk_select=6, seed=6)
        # Each chunk's weights sum to its chunk size; totals sum to n.
        assert w.sum() == pytest.approx(90)

    def test_empty_input(self):
        sel, w, b = _select_one_pool(np.zeros((0, 3)), 5, chunk_select=5)
        assert sel.size == 0 and w.size == 0 and b == 0

    def test_k_larger_than_n_clamped(self):
        v = np.random.default_rng(7).normal(size=(10, 3))
        sel, _, _ = _select_one_pool(v, 50, chunk_select=4, seed=7)
        assert len(sel) == 10


class TestUnitRng:
    def test_same_key_same_stream(self):
        a = unit_rng((1, 2, 3, 4)).random(8)
        b = unit_rng((1, 2, 3, 4)).random(8)
        assert np.array_equal(a, b)

    def test_different_keys_differ(self):
        a = unit_rng((1, 2, 3, 4)).random(8)
        b = unit_rng((1, 2, 3, 5)).random(8)
        assert not np.array_equal(a, b)


class TestPlanChunkTakes:
    """A class's chunks share its budget by ``apportion``, as classes do."""

    def test_exact_total_when_k_not_divisible(self):
        # k=10 over three chunks of 6: shares 3.33 each, the first chunk
        # takes the one seat left over.
        takes = apportion([6, 6, 6], 10)
        assert takes == [4, 3, 3]

    def test_short_chunks_respread_deterministically(self):
        # A one-row chunk (biasing drops) can supply at most its row; the
        # rest lands on the full chunks, the same way every time.
        takes = apportion([5, 1, 5], 9)
        assert takes == [4, 1, 4]
        assert apportion([5, 1, 5], 9) == takes

    def test_pathological_uneven_sizes(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            sizes = list(rng.integers(0, 12, size=rng.integers(1, 8)))
            total = int(sum(sizes))
            k = int(rng.integers(1, max(2, 2 * total)))
            takes = apportion(sizes, k)
            assert sum(takes) == min(k, total)
            assert all(0 <= t <= s for t, s in zip(takes, sizes))

    def test_k_larger_than_population_clamps(self):
        assert apportion([3, 2], 99) == [3, 2]

    def test_zero_k_and_empty_chunks(self):
        assert apportion([4, 4], 0) == [0, 0]
        assert apportion([], 5) == []

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            apportion([-1], 2)
