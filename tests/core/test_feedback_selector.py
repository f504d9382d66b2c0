"""Tests for the feedback loop and the NeSSA selector."""

import numpy as np
import pytest

from repro.core.config import NeSSAConfig
from repro.core.feedback import FeedbackLoop
from repro.core.selector import NeSSASelector
from repro.nn.resnet import resnet20


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
        rep_w = dict(loop.replica.model.named_parameters())["fc.weight"].data
        assert np.abs(src_w - rep_w).max() < 0.1

    def test_disabled_loop_keeps_initial_weights(self):
        src = resnet20(num_classes=4, width=4, seed=1)
        loop = FeedbackLoop(factory, enabled=False)
        before = dict(loop.replica.model.named_parameters())["fc.weight"].data.copy()
        assert loop.sync(src) == 0
        after = dict(loop.replica.model.named_parameters())["fc.weight"].data
        assert np.array_equal(before, after)
        assert loop.syncs == 0

    def test_payload_scales_with_bits(self):
        src = resnet20(num_classes=4, width=4, seed=1)
        p8 = FeedbackLoop(factory, bits=8).sync(src)
        p4 = FeedbackLoop(factory, bits=4).sync(src)
        assert p4 < p8

    def test_repeated_syncs_track_source(self):
        src = resnet20(num_classes=4, width=4, seed=1)
        loop = FeedbackLoop(factory, bits=8)
        loop.sync(src)
        dict(src.named_parameters())["fc.weight"].data[:] = 0.5
        loop.sync(src)
        rep_w = dict(loop.replica.model.named_parameters())["fc.weight"].data
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
        for _ in range(5):
            sel.record_epoch_losses(ids, losses)
        dropped = sel.maybe_drop_learned(train, epoch=1)
        assert dropped > 0
        res = sel.select(train, 0.25, tiny_model)
        dropped_ids = {
            int(i) for i in ids if int(i) in sel.loss_history._dropped
        }
        chosen_ids = set(int(i) for i in train.ids[res.positions])
        assert not chosen_ids & dropped_ids

    def test_drop_respects_schedule(self, train_test_split, tiny_model):
        train, _ = train_test_split
        sel = self._selector(biasing_drop_period=20)
        sel.record_epoch_losses(train.ids, np.zeros(len(train)))
        assert sel.maybe_drop_learned(train, epoch=5) == 0  # not a drop epoch
        assert sel.maybe_drop_learned(train, epoch=0) == 0  # never at 0

    def test_drop_keeps_pool_large_enough(self, train_test_split, tiny_model):
        """Even aggressive dropping must leave >= 2x subset size candidates."""
        train, _ = train_test_split
        sel = self._selector(biasing_drop_period=1, biasing_drop_quantile=0.95)
        for _ in range(5):
            sel.record_epoch_losses(train.ids, np.zeros(len(train)))
        sel.maybe_drop_learned(train, epoch=1)
        remaining = len(train) - sel.loss_history.num_dropped
        assert remaining >= 2 * int(0.25 * len(train))

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
        res = sel.select(train, 0.2, loop.selection_model)
        assert len(res.positions) > 0

    def test_rejects_bad_fraction(self, train_test_split, tiny_model):
        train, _ = train_test_split
        with pytest.raises(ValueError):
            self._selector().select(train, 1.5, tiny_model)
