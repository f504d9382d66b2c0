"""Tests for the feedback loop and the NeSSA selector."""

import numpy as np
import pytest

from repro import obs
from repro.core import feedback
from repro.core.config import NeSSAConfig, TrainRecipe
from repro.core.feedback import FeedbackLoop
from repro.core.selector import NeSSASelector
from repro.core.trainer import NeSSATrainer
from repro.data.dataset import Dataset
from repro.data.synthetic import SyntheticConfig, SyntheticImageDataset
from repro.nn.inference import InferencePlan
from repro.nn.modules import GlobalAvgPool2d, Linear, Sequential
from repro.nn.quantize import quantized_state_bytes
from repro.nn.resnet import resnet20
from repro.selection.gradients import GradientProxy, compute_gradient_proxies
from repro.selection.partition import subset_budget


def factory():
    return resnet20(num_classes=4, width=4, seed=99)


class TestFeedbackLoop:
    def test_sync_transfers_quantized_weights(self):
        src = resnet20(num_classes=4, width=4, seed=1)
        loop = FeedbackLoop(factory, bits=8)
        payload = loop.sync(src)
        assert payload > 0
        assert loop.syncs == 1
        assert loop.bytes_transferred == payload
        src_w = dict(src.named_parameters())["fc.weight"].data
        rep_w = dict(loop.replica.named_parameters())["fc.weight"].data
        assert np.abs(src_w - rep_w).max() < 0.1

    def test_payload_scales_with_bits(self):
        src = resnet20(num_classes=4, width=4, seed=1)
        p8 = FeedbackLoop(factory, bits=8).sync(src)
        p4 = FeedbackLoop(factory, bits=4).sync(src)
        assert p4 < p8

    def test_payload_is_counted_once_at_construction(self, monkeypatch):
        src = resnet20(num_classes=4, width=4, seed=1)
        loop = FeedbackLoop(factory, bits=8)
        assert loop.payload_bytes == quantized_state_bytes(src, 8)

        def walk(*_):
            raise AssertionError("sync walked the model for its payload")

        monkeypatch.setattr(feedback, "quantized_state_bytes", walk)
        assert loop.sync(src) == loop.sync(src) == loop.payload_bytes
        assert loop.bytes_transferred == 2 * loop.payload_bytes

    def test_repeated_syncs_track_source(self):
        src = resnet20(num_classes=4, width=4, seed=1)
        loop = FeedbackLoop(factory, bits=8)
        loop.sync(src)
        dict(src.named_parameters())["fc.weight"].data[:] = 0.5
        loop.sync(src)
        rep_w = dict(loop.replica.named_parameters())["fc.weight"].data
        assert np.allclose(rep_w, 0.5, atol=0.01)
        assert loop.syncs == 2


class TestNeSSASelector:
    def _selector(self, **overrides):
        defaults = dict(subset_fraction=0.25, seed=0)
        defaults.update(overrides)
        return NeSSASelector(NeSSAConfig(**defaults), chunk_select=32)

    def test_selects_fraction_with_weights(self, train_test_split, tiny_model):
        train, _ = train_test_split
        sel = self._selector()
        res = sel.select(train, 0.25, tiny_model)
        assert abs(len(res.positions) - 0.25 * len(train)) <= train.num_classes
        assert res.weights.sum() == pytest.approx(len(train), rel=0.05)
        assert len(np.unique(res.positions)) == len(res.positions)

    def test_partitioning_bounds_pairwise_bytes(self, train_test_split, tiny_model):
        train, _ = train_test_split
        with_pa = self._selector(use_partitioning=True)
        without = self._selector(use_partitioning=False)
        b_pa = with_pa.select(train, 0.25, tiny_model).pairwise_bytes
        b_full = without.select(train, 0.25, tiny_model).pairwise_bytes
        assert b_pa <= b_full

    def test_biasing_excludes_dropped_samples(self, train_test_split, tiny_model):
        train, _ = train_test_split
        sel = self._selector(use_biasing=True, biasing_drop_period=1)
        # Feed loss history: first half of the ids have tiny loss.
        ids = train.ids
        losses = np.where(np.arange(len(ids)) < len(ids) // 2, 0.001, 3.0)
        sel.snapshot_candidates(train)  # sizes the per-sample arrays
        for _ in range(5):
            sel.record_epoch_losses(ids, losses)
        dropped = sel.maybe_drop_learned(train, epoch=1)
        assert dropped > 0
        res = sel.select(train, 0.25, tiny_model)
        dropped_ids = {int(i) for i in ids if sel.loss_history.dropped[i]}
        chosen_ids = set(int(i) for i in train.ids[res.positions])
        assert not chosen_ids & dropped_ids

    def test_drop_respects_schedule(self, train_test_split, tiny_model):
        train, _ = train_test_split
        sel = self._selector(biasing_drop_period=20)
        sel.snapshot_candidates(train)
        sel.record_epoch_losses(train.ids, np.zeros(len(train)))
        assert sel.maybe_drop_learned(train, epoch=5) == 0  # not a drop epoch
        assert sel.maybe_drop_learned(train, epoch=0) == 0  # never at 0

    def test_drop_keeps_pool_large_enough(self, train_test_split, tiny_model):
        """Even aggressive dropping must leave >= 2x subset size candidates."""
        train, _ = train_test_split
        sel = self._selector(biasing_drop_period=1, biasing_drop_quantile=0.95)
        sel.snapshot_candidates(train)
        for _ in range(5):
            sel.record_epoch_losses(train.ids, np.zeros(len(train)))
        sel.maybe_drop_learned(train, epoch=1)
        remaining = len(train) - sel.loss_history.num_dropped
        assert remaining >= 2 * subset_budget(0.25, len(train))

    def test_pool_floor_is_twice_the_subset_budget(self):
        """At N = 192, f = 0.4 the subset is round(76.8) = 77, so 154 stay."""
        train = SyntheticImageDataset(
            SyntheticConfig(num_classes=4, num_samples=192, image_shape=(3, 8, 8), seed=0)
        )
        sel = self._selector(subset_fraction=0.4, biasing_drop_period=1,
                             biasing_drop_quantile=0.95)
        sel.snapshot_candidates(train)
        for _ in range(5):
            sel.record_epoch_losses(train.ids, np.zeros(len(train)))
        assert sel.maybe_drop_learned(train, epoch=1) == 192 - 154

    def test_floor_drops_the_lowest_losses_first(self, train_test_split):
        """When the pool floor binds, the best-learned marked samples go."""
        train, _ = train_test_split
        sel = self._selector(biasing_drop_period=1, biasing_drop_quantile=0.95)
        # Loss falls along the candidate order, so keeping the first
        # marked candidates would drop the worst-learned ones.
        losses = np.linspace(3.0, 0.01, len(train))
        sel.snapshot_candidates(train)
        for _ in range(5):
            sel.record_epoch_losses(train.ids, losses)
        dropped = sel.maybe_drop_learned(train, epoch=1)
        assert 0 < dropped < 0.9 * len(train)  # the floor bound
        lowest = train.ids[np.argsort(losses)[:dropped]]
        assert set(np.flatnonzero(sel.loss_history.dropped)) == {int(i) for i in lowest}

    def test_losses_before_any_dataset_are_refused(self, train_test_split):
        """The per-sample arrays are sized by the first dataset handed in."""
        train, _ = train_test_split
        sel = self._selector()
        with pytest.raises(RuntimeError, match="before the selector saw a dataset"):
            sel.record_epoch_losses(train.ids, np.zeros(len(train)))
        sel.maybe_drop_learned(train, epoch=0)
        sel.record_epoch_losses(train.ids, np.zeros(len(train)))
        assert sel.loss_history.num_tracked == len(train)

    def test_dataset_of_another_root_is_refused(self, train_test_split):
        """Ids index the arrays directly, so a second root would share rows."""
        train, _ = train_test_split
        sel = self._selector()
        sel.snapshot_candidates(train)
        sel.snapshot_candidates(train.subset(np.arange(10)))  # same root
        with pytest.raises(ValueError, match="one root dataset"):
            sel.snapshot_candidates(Dataset(train.x[:40], train.y[:40]))

    def test_biasing_disabled_keeps_everything(self, train_test_split, tiny_model):
        train, _ = train_test_split
        sel = self._selector(use_biasing=False)
        sel.record_epoch_losses(train.ids, np.zeros(len(train)))
        assert sel.maybe_drop_learned(train, epoch=20) == 0

    def test_selection_with_quantized_model(self, train_test_split):
        train, _ = train_test_split
        loop = FeedbackLoop(lambda: resnet20(num_classes=4, width=4, seed=7), bits=8)
        loop.sync(resnet20(num_classes=4, width=4, seed=7))
        sel = self._selector()
        res = sel.select(train, 0.2, loop.replica)
        assert len(res.positions) > 0

    def test_rejects_bad_fraction(self, train_test_split, tiny_model):
        train, _ = train_test_split
        with pytest.raises(ValueError):
            self._selector().select(train, 1.5, tiny_model)

    def test_rejects_a_model_without_resnet_embeddings(self, train_test_split):
        train, _ = train_test_split
        mlp = Sequential(GlobalAvgPool2d(), Linear(3, 4, rng=np.random.default_rng(0)))
        with pytest.raises(TypeError, match="ResNet"):
            self._selector().select(train, 0.25, mlp)


PERIOD = 3


def _softmax(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class TestEmbeddingRefresh:
    """Each row re-forwarded once every ``refresh_period`` rounds, staggered
    by id; every round scores all rows with the current head."""

    def _selector(self, **overrides):
        defaults = dict(subset_fraction=0.25, refresh_period=PERIOD, seed=0)
        defaults.update(overrides)
        return NeSSASelector(NeSSAConfig(**defaults), chunk_select=32)

    @pytest.fixture()
    def forwarded(self, train_test_split, monkeypatch):
        """Ids of the samples each ``InferencePlan.features`` call forwards."""
        train, _ = train_test_split
        id_of = {row.tobytes(): i for row, i in zip(train.x, train.ids)}
        calls = []
        original = InferencePlan.features

        def features(plan, x):
            calls.extend(id_of[row.tobytes()] for row in x)
            return original(plan, x)

        monkeypatch.setattr(InferencePlan, "features", features)
        return calls

    def test_each_row_is_forwarded_once_every_period(
        self, train_test_split, tiny_model, forwarded
    ):
        train, _ = train_test_split
        sel = self._selector()
        per_round = []
        for _ in range(2 * PERIOD + 1):
            forwarded.clear()
            sel.select(train, 0.25, tiny_model)
            per_round.append(sorted(forwarded))
        assert per_round[0] == sorted(train.ids)  # round 0 fills the array
        for r in range(1, 2 * PERIOD + 1):
            assert per_round[r] == sorted(train.ids[train.ids % PERIOD == r % PERIOD])
        # Over any PERIOD consecutive rounds, every id is forwarded exactly once.
        for r in range(1, PERIOD + 2):
            assert sorted(sum(per_round[r : r + PERIOD], [])) == sorted(train.ids)

    def test_unknown_candidate_id_forces_a_full_forward(
        self, train_test_split, tiny_model, forwarded
    ):
        train, _ = train_test_split
        sel = self._selector()
        sel.select(train.subset(np.arange(len(train) // 2)), 0.25, tiny_model)
        forwarded.clear()
        sel.select(train, 0.25, tiny_model)  # round 1: half the ids are new
        assert sorted(forwarded) == sorted(train.ids)
        forwarded.clear()
        sel.select(train, 0.25, tiny_model)  # round 2: every id is known
        assert sorted(forwarded) == sorted(train.ids[train.ids % PERIOD == 2])

    def test_rows_not_due_score_their_last_forward_with_current_head(
        self, train_test_split, monkeypatch
    ):
        train, _ = train_test_split
        loop = FeedbackLoop(factory, bits=8)
        loop.sync(resnet20(num_classes=4, width=4, seed=1))
        replica = loop.replica
        sel = self._selector(biasing_drop_period=1)
        sel.select(train, 0.25, loop.replica)  # round 0 forwards every row
        old = InferencePlan(replica, train.image_shape).features(train.x)

        # Drop the low-loss half as learned, then ship new weights.
        losses = np.where(np.arange(len(train)) < len(train) // 2, 0.001, 3.0)
        for _ in range(5):
            sel.record_epoch_losses(train.ids, losses)
        assert sel.maybe_drop_learned(train, epoch=1) > 0
        trained = resnet20(num_classes=4, width=4, seed=2)
        trained.fc.bias.data[:] = [0.5, -0.25, 0.0, 1.0]
        loop.sync(trained)
        new = InferencePlan(replica, train.image_shape).features(train.x)

        seen = {}
        run_round = sel.executor.run_round

        def capture(vectors, candidates, units):
            seen.update(vectors=vectors, pool=candidates)
            return run_round(vectors, candidates, units)

        monkeypatch.setattr(sel.executor, "run_round", capture)
        sel.select(train, 0.25, loop.replica)  # round 1
        pool = seen["pool"]
        assert 0 < len(pool) < len(train)
        due = train.ids[pool] % PERIOD == 1
        assert due.any() and not due.all()
        emb = np.where(due[:, None], new[pool], old[pool])
        logits = emb @ replica.fc.weight.data.T + replica.fc.bias.data
        expected = _softmax(logits) - np.eye(train.num_classes)[train.y[pool]]
        np.testing.assert_allclose(seen["vectors"], expected, rtol=1e-5, atol=1e-6)
        # A fresh forward of every row would score the rows not due differently.
        fresh = compute_gradient_proxies(loop.replica, train.x[pool], train.y[pool])
        np.testing.assert_allclose(
            seen["vectors"][due], fresh.vectors[due], rtol=1e-5, atol=1e-6
        )
        assert not np.allclose(seen["vectors"][~due], fresh.vectors[~due], atol=1e-3)

    def test_one_proxy_span_per_round_carries_the_post_drop_pool(self, train_test_split):
        train, test = train_test_split
        epochs = 2 * PERIOD
        recipe = TrainRecipe(epochs=epochs, batch_size=32, lr=0.05, lr_milestones=(),
                             clip_grad_norm=5.0)
        config = NeSSAConfig(subset_fraction=0.3, biasing_window=2, biasing_drop_period=2,
                             refresh_period=PERIOD, seed=0)
        trainer = NeSSATrainer(factory(), recipe, config, factory)
        tracer = obs.Tracer(run="proxy-contract")
        previous = obs.set_tracer(tracer)
        try:
            history = trainer.train(train, test)
        finally:
            obs.set_tracer(previous)
        rounds = [sp for sp in tracer.records if sp.name == "selection_round"]
        proxies = [sp for sp in tracer.records if sp.name == "proxy_compute"]
        assert len(rounds) == epochs
        assert [sp.parent_id for sp in proxies] == [sp.id for sp in rounds]
        dropped = [r.dropped_samples for r in history.records]
        assert any(dropped)
        pools = (len(train) - np.cumsum(dropped)).tolist()
        assert [sp.attrs["candidates"] for sp in proxies] == pools
        assert [sp.attrs["cache_hit"] for sp in proxies] == [r > 0 for r in range(epochs)]
        assert proxies[0].attrs["forwarded"] == pools[0]
        assert all(0 < sp.attrs["forwarded"] < sp.attrs["candidates"] for sp in proxies[1:])


def _reachable(root, types):
    """Instances of ``types`` reachable from ``root`` through attributes,
    containers and mappings."""
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (np.ndarray, str, bytes, int, float)):
            continue
        seen.add(id(obj))
        if isinstance(obj, types):
            found.append(obj)
        if isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return found


class TestResidentState:
    """Between rounds the selection side keeps only what the next one reads."""

    def test_three_rounds_hold_no_proxies_and_no_replica_grads(self, train_test_split):
        train, test = train_test_split
        recipe = TrainRecipe(epochs=3, batch_size=32, lr=0.05, lr_milestones=(),
                             clip_grad_norm=5.0)
        config = NeSSAConfig(subset_fraction=0.3, biasing_drop_period=2, seed=0)
        trainer = NeSSATrainer(factory(), recipe, config, factory)
        history = trainer.train(train, test)
        assert [r.selection_ran for r in history.records] == [True] * 3
        assert _reachable(trainer.selector, GradientProxy) == []
        replica = trainer.feedback.replica
        assert all(p.grad is None for p in replica.parameters())
        # The live model still trains on its own gradient buffers.
        assert all(p.grad is not None for p in trainer.model.parameters())
