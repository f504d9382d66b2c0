"""The executor's determinism contract: a round equals its units, run alone."""

import numpy as np
import pytest

from repro import obs
from repro.core.config import NeSSAConfig
from repro.core.selector import NeSSASelector
from repro.parallel.engine import SelectionExecutor
from repro.parallel.scheduler import plan_selection_round
from repro.selection.craig import craig_select_class
from repro.selection.partition import chunk_pairwise_bytes


def _planned_round(seed):
    gen = np.random.default_rng(seed)
    vectors = gen.normal(size=(160, 6))
    labels = gen.integers(0, 4, size=160)
    units = plan_selection_round(labels, 48, seed=seed, round_index=0,
                                 chunk_select=8)
    return vectors, labels, units


def _run_units(vectors, units, traced):
    if not traced:
        return SelectionExecutor().run_units(vectors, units), None
    tracer = obs.Tracer(run="equivalence")
    previous = obs.set_tracer(tracer)
    try:
        return SelectionExecutor().run_units(vectors, units), tracer
    finally:
        obs.set_tracer(previous)


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("seed", [0, 7, 21])
class TestEngineEquivalence:
    """``run_units`` is exactly the per-unit kernel on the unit's rows,
    assembled in ``WorkUnit.order``."""

    def test_run_units_equals_per_unit_craig(self, seed, traced):
        vectors, labels, units = _planned_round(seed)
        got, tracer = _run_units(vectors, units, traced)
        assert [u.order for u in units] == list(range(len(units)))
        assert len(got) == len(units)
        class_weight = dict.fromkeys(np.unique(labels).tolist(), 0.0)
        for unit, (sel, w, nbytes) in zip(units, got):
            ref_sel, ref_w, ref_bytes = craig_select_class(
                vectors[unit.positions], unit.take
            )
            assert np.array_equal(sel, ref_sel)
            assert np.array_equal(w, ref_w)  # bitwise, not approx
            assert nbytes == ref_bytes
            # §3.2.3: a unit builds only its chunk's tile, never the class's
            assert nbytes == chunk_pairwise_bytes(len(unit.positions))
            assert nbytes < chunk_pairwise_bytes(int((labels == unit.label).sum()))
            class_weight[unit.label] += w.sum()
        # the chunks' CRAIG weights add up to each class's pool size
        assert class_weight == {
            c: float((labels == c).sum()) for c in class_weight
        }
        if traced:
            # one span per unit, in order, identified by the unit's seed
            # key and carrying its structure
            assert [
                (r.id, r.attrs["order"], r.attrs["label"],
                 r.attrs["take"], r.attrs["rows"], r.attrs["sim_bytes"])
                for r in tracer.records
            ] == [
                ("unit@" + "-".join(map(str, u.seed_key)), u.order,
                 u.label, u.take, len(u.positions), out[2])
                for u, out in zip(units, got)
            ]


class TestSelectorEquivalence:
    def test_rounds_differ_from_each_other(self, train_test_split, tiny_model):
        # Round indices advance the unit seed keys, so consecutive rounds
        # pick differently.  chunk_select must be well below the
        # per-class budget so each class has several chunks and the
        # round-keyed permutation can change what lands where.
        train, _ = train_test_split
        config = NeSSAConfig(subset_fraction=0.3, use_biasing=False, seed=4)
        selector = NeSSASelector(config, chunk_select=4)
        a = selector.select(train, 0.3, tiny_model)
        b = selector.select(train, 0.3, tiny_model)
        assert not np.array_equal(a.positions, b.positions)
