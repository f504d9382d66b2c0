"""Integration tests for the trainers (full / baseline subset / NeSSA)."""

import numpy as np
import pytest

from repro.core.config import NeSSAConfig, TrainRecipe
from repro.core.metrics import evaluate_accuracy
from repro.core.trainer import FullTrainer, NeSSATrainer, SubsetTrainer
from repro.data.synthetic import SyntheticConfig, make_train_test
from repro.nn.resnet import resnet20
from repro.selection.craig import CraigSelector
from repro.selection.random_sel import RandomSelector


@pytest.fixture(scope="module")
def data():
    cfg = SyntheticConfig(num_classes=4, num_samples=360, image_shape=(3, 8, 8), seed=21)
    return make_train_test(cfg)


def recipe(epochs=6):
    base = TrainRecipe().scaled(epochs)
    return TrainRecipe(
        epochs=base.epochs,
        batch_size=48,
        lr=0.05,
        clip_grad_norm=5.0,
        lr_milestones=base.lr_milestones,
        lr_gamma_div=base.lr_gamma_div,
        momentum=base.momentum,
        weight_decay=base.weight_decay,
        nesterov=base.nesterov,
    )


def factory():
    return resnet20(num_classes=4, width=4, seed=13)


class TestFullTrainer:
    def test_learns_above_chance(self, data):
        train, test = data
        history = FullTrainer(factory(), recipe(), seed=0).train(train, test)
        assert history.final_accuracy > 0.5  # 4 classes, chance = 0.25
        assert history.epochs == 6

    def test_records_full_subset_every_epoch(self, data):
        train, test = data
        history = FullTrainer(factory(), recipe(3), seed=0).train(train, test)
        for rec in history.records:
            assert rec.subset_fraction == 1.0
            assert rec.samples_trained == len(train)

    def test_loss_decreases(self, data):
        train, test = data
        history = FullTrainer(factory(), recipe(), seed=0).train(train, test)
        losses = history.loss_curve()
        assert losses[-1] < losses[0]

    def test_lr_schedule_recorded(self, data):
        train, test = data
        history = FullTrainer(factory(), recipe(), seed=0).train(train, test)
        lrs = [r.lr for r in history.records]
        assert lrs[0] == pytest.approx(0.05)
        assert lrs[-1] < lrs[0]


class TestSubsetTrainer:
    def test_trains_on_fraction(self, data):
        train, test = data
        t = SubsetTrainer(factory(), recipe(), RandomSelector(seed=0), 0.3, seed=0)
        history = t.train(train, test)
        for rec in history.records:
            assert rec.subset_fraction == pytest.approx(0.3, abs=0.05)

    def test_select_every_amortizes(self, data):
        train, test = data
        t = SubsetTrainer(
            factory(), recipe(), CraigSelector(), 0.3, select_every=3, seed=0
        )
        history = t.train(train, test)
        ran = [r.selection_ran for r in history.records]
        assert ran == [True, False, False, True, False, False]

    def test_craig_weights_reach_loader(self, data):
        train, test = data
        t = SubsetTrainer(factory(), recipe(3), CraigSelector(), 0.3, seed=0)
        history = t.train(train, test)
        assert history.method == "craig"
        assert history.records[0].selection_proxy_flops > 0

    def test_rejects_bad_fraction(self, data):
        with pytest.raises(ValueError):
            SubsetTrainer(factory(), recipe(), RandomSelector(), 0.0)


class TestNeSSATrainer:
    def _config(self, **overrides):
        defaults = dict(
            subset_fraction=0.3,
            biasing_drop_period=3,
            biasing_window=2,
            seed=0,
        )
        defaults.update(overrides)
        return NeSSAConfig(**defaults)

    def test_end_to_end_learns(self, data):
        train, test = data
        trainer = NeSSATrainer(factory(), recipe(), self._config(), factory)
        history = trainer.train(train, test)
        assert history.final_accuracy > 0.5
        assert history.method == "nessa"

    def test_feedback_happens_every_epoch(self, data):
        train, test = data
        trainer = NeSSATrainer(factory(), recipe(4), self._config(), factory)
        history = trainer.train(train, test)
        # initial sync + one per epoch
        assert trainer.feedback.syncs == 1 + 4
        assert all(r.feedback_bytes > 0 for r in history.records)

    def test_biasing_drops_samples_mid_training(self, data):
        train, test = data
        trainer = NeSSATrainer(factory(), recipe(8), self._config(), factory)
        history = trainer.train(train, test)
        assert sum(r.dropped_samples for r in history.records) > 0

    def test_trains_at_a_fraction_below_a_tenth(self, data):
        train, test = data
        trainer = NeSSATrainer(factory(), recipe(2), self._config(subset_fraction=0.05), factory)
        history = trainer.train(train, test)
        assert all(0.0 < r.subset_fraction < 0.1 for r in history.records)
        assert history.total_samples_trained > 0

    def test_no_feedback_ablation_runs(self, data):
        train, test = data
        config = self._config(use_feedback=False)
        trainer = NeSSATrainer(factory(), recipe(3), config, factory)
        history = trainer.train(train, test)
        assert all(r.feedback_bytes == 0 for r in history.records)

    def test_quantized_replica_stays_close_to_target(self, data):
        train, test = data
        trainer = NeSSATrainer(factory(), recipe(3), self._config(), factory)
        trainer.train(train, test)
        target_acc = evaluate_accuracy(trainer.model, test)
        replica_acc = evaluate_accuracy(trainer.feedback.replica.model, test)
        assert abs(target_acc - replica_acc) < 0.15

    def test_deterministic_given_seed(self, data):
        train, test = data
        h1 = NeSSATrainer(factory(), recipe(3), self._config(), factory).train(train, test)
        h2 = NeSSATrainer(factory(), recipe(3), self._config(), factory).train(train, test)
        assert h1.accuracy_curve().tolist() == h2.accuracy_curve().tolist()
