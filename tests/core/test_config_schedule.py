"""Tests for NeSSAConfig, TrainRecipe and the dynamic subset schedule."""

import pytest

from repro.core.config import NeSSAConfig, TrainRecipe
from repro.core.schedule import SubsetSizeSchedule


class TestTrainRecipe:
    def test_paper_defaults(self):
        """Section 4.1: 200 epochs, batch 128, LR 0.1 /5 at 60/120/160, wd 5e-4."""
        r = TrainRecipe()
        assert r.epochs == 200
        assert r.batch_size == 128
        assert r.lr == 0.1
        assert r.lr_milestones == (60, 120, 160)
        assert r.lr_gamma_div == 5.0
        assert r.weight_decay == 5e-4
        assert r.momentum == 0.9
        assert r.nesterov

    def test_scaled_compresses_milestones(self):
        r = TrainRecipe().scaled(20)
        assert r.epochs == 20
        assert r.lr_milestones == (6, 12, 16)

    def test_scaled_drops_out_of_range_milestones(self):
        r = TrainRecipe().scaled(2)
        assert all(m < 2 for m in r.lr_milestones)

    def test_rejects_milestone_past_epochs(self):
        with pytest.raises(ValueError):
            TrainRecipe(epochs=50, lr_milestones=(60,))

    def test_rejects_bad_epochs(self):
        with pytest.raises(ValueError):
            TrainRecipe(epochs=0)


class TestNeSSAConfig:
    def test_paper_defaults(self):
        c = NeSSAConfig()
        assert c.feedback_bits == 8
        assert c.biasing_window == 5  # losses from most recent five epochs
        assert c.biasing_drop_period == 20  # drop every twenty epochs
        assert c.use_feedback and c.use_biasing and c.use_partitioning

    def test_vanilla_strips_sb_and_pa(self):
        c = NeSSAConfig().vanilla()
        assert not c.use_biasing and not c.use_partitioning
        assert c.use_feedback  # feedback is part of all Table 3 variants

    def test_sb_only(self):
        c = NeSSAConfig().with_only_biasing()
        assert c.use_biasing and not c.use_partitioning

    def test_pa_only(self):
        c = NeSSAConfig().with_only_partitioning()
        assert not c.use_biasing and c.use_partitioning

    def test_validation(self):
        with pytest.raises(ValueError):
            NeSSAConfig(subset_fraction=0.0)
        with pytest.raises(ValueError):
            NeSSAConfig(feedback_bits=1)
        with pytest.raises(ValueError):
            NeSSAConfig(subset_fraction=0.2, min_subset_fraction=0.5, dynamic_subset=True)

    def test_fraction_below_the_dynamic_floor_without_the_schedule(self):
        # min_subset_fraction is the dynamic schedule's floor; with the
        # schedule off it must not cap how small a fixed subset can be
        assert NeSSAConfig(subset_fraction=0.05).subset_fraction == 0.05


class TestSubsetSizeSchedule:
    def test_no_shrink_while_improving(self):
        s = SubsetSizeSchedule(0.3, threshold=0.02, patience=2)
        for loss in [2.0, 1.8, 1.6, 1.4, 1.2]:
            frac = s.update(loss)
        assert frac == pytest.approx(0.3)
        assert not s.shrink_events

    def test_shrinks_on_plateau(self):
        s = SubsetSizeSchedule(0.3, threshold=0.02, shrink=0.9, patience=2)
        for loss in [2.0, 2.0, 2.0, 2.0]:
            frac = s.update(loss)
        assert frac == pytest.approx(0.27)
        assert s.shrink_events

    def test_floor_respected(self):
        s = SubsetSizeSchedule(0.3, min_fraction=0.25, shrink=0.5, patience=1)
        for _ in range(10):
            frac = s.update(1.0)
        assert frac == pytest.approx(0.25)

    def test_disabled_schedule_ignores_the_floor(self):
        s = SubsetSizeSchedule(0.05, enabled=False)
        assert s.update(1.0) == pytest.approx(0.05)

    def test_disabled_schedule_is_constant(self):
        s = SubsetSizeSchedule(0.3, enabled=False)
        for _ in range(10):
            frac = s.update(1.0)
        assert frac == pytest.approx(0.3)

    def test_recovery_resets_stall_counter(self):
        s = SubsetSizeSchedule(0.3, threshold=0.02, patience=2)
        s.update(2.0)
        s.update(2.0)  # stall 1
        s.update(1.0)  # big improvement resets
        s.update(1.0)  # stall 1 again
        assert s.fraction == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            SubsetSizeSchedule(0.3, min_fraction=0.5)
        with pytest.raises(ValueError):
            SubsetSizeSchedule(0.3, shrink=1.0)
        with pytest.raises(ValueError):
            SubsetSizeSchedule(0.3, patience=0)
