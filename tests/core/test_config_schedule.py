"""Tests for NeSSAConfig and TrainRecipe (with its LR milestone schedule)."""

import pytest

from repro.core.config import NeSSAConfig, TrainRecipe


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

    def test_accepts_fraction_below_a_tenth(self):
        # nothing caps how small a subset can be short of 0
        assert NeSSAConfig(subset_fraction=0.05).subset_fraction == 0.05
        assert NeSSAConfig(subset_fraction=0.001).subset_fraction == 0.001

