"""Tests for the training-dynamics baselines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import Dataset
from repro.selection.dynamics import (
    ForgettingEventsSelector,
    LossRankedSelector,
    UncertaintySelector,
)
from tests.selection.oracles import ForgettingEventsReference


class TestDynamicsSelectors:
    @pytest.mark.parametrize(
        "selector_cls", [LossRankedSelector, ForgettingEventsSelector, UncertaintySelector]
    )
    def test_interface_contract(self, selector_cls, train_test_split, tiny_model):
        train, _ = train_test_split
        res = selector_cls().select(train, 0.2, tiny_model)
        assert len(np.unique(res.positions)) == len(res.positions)
        assert abs(len(res.positions) - 0.2 * len(train)) <= train.num_classes
        # Class-stratified: every class present.
        assert set(train.y[res.positions]) == set(range(train.num_classes))

    def test_loss_ranked_picks_high_loss(self, train_test_split, tiny_model):
        from repro.selection.gradients import compute_gradient_proxies

        train, _ = train_test_split
        res = LossRankedSelector().select(train, 0.2, tiny_model)
        proxy = compute_gradient_proxies(tiny_model, train.x, train.y)
        picked = np.zeros(len(train), dtype=bool)
        picked[res.positions] = True
        # Per class, mean loss of picked >= mean loss of unpicked.
        for c in range(train.num_classes):
            mask = train.y == c
            assert proxy.losses[mask & picked].mean() >= proxy.losses[mask & ~picked].mean()

    def test_forgetting_counts_transitions(self):
        sel = ForgettingEventsSelector()
        sel._size(4)
        ids = np.array([1, 2, 3])
        sel.observe(ids, np.array([True, True, False]))
        sel.observe(ids, np.array([False, True, False]))  # 1 forgotten
        sel.observe(ids, np.array([True, False, False]))  # 2 forgotten
        scores = sel.scores(ids)
        assert scores[0] == 1
        assert scores[1] == 1
        assert np.isinf(scores[2])  # never learned ranks first

    def test_forgetting_selector_prefers_forgotten(self, train_test_split, tiny_model):
        train, _ = train_test_split
        sel = ForgettingEventsSelector()
        # First call seeds the history; second call uses it.
        sel.select(train, 0.2, tiny_model)
        res = sel.select(train, 0.2, tiny_model)
        assert len(res.positions) > 0

    def test_uncertainty_probabilities_recovered(self, train_test_split, tiny_model):
        """The margin computation must recover valid softmax rows."""
        from repro.selection.gradients import compute_gradient_proxies

        train, _ = train_test_split
        proxy = compute_gradient_proxies(tiny_model, train.x[:16], train.y[:16])
        probs = proxy.vectors.copy()
        probs[np.arange(16), train.y[:16]] += 1.0
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-5)
        assert (probs > -1e-6).all()

    def test_bad_fraction_rejected(self, train_test_split, tiny_model):
        train, _ = train_test_split
        for cls in (LossRankedSelector, ForgettingEventsSelector, UncertaintySelector):
            with pytest.raises(ValueError):
                cls().select(train, 0.0, tiny_model)

    def test_pluggable_into_subset_trainer(self, train_test_split):
        from repro.core.config import TrainRecipe
        from repro.core.trainer import SubsetTrainer
        from repro.nn.resnet import resnet20

        train, test = train_test_split
        recipe = TrainRecipe(epochs=2, batch_size=64, lr=0.05, lr_milestones=(),
                             clip_grad_norm=5.0)
        model = resnet20(num_classes=train.num_classes, width=4, seed=0)
        trainer = SubsetTrainer(model, recipe, LossRankedSelector(), 0.3, seed=0)
        history = trainer.train(train, test)
        assert history.epochs == 2


@st.composite
def _observations(draw):
    """A root size and a run of passes, each over distinct ids of it."""
    num_ids = draw(st.integers(1, 40))
    passes = []
    for _ in range(draw(st.integers(0, 10))):
        ids = draw(st.lists(st.integers(0, num_ids - 1), unique=True, max_size=num_ids))
        correct = draw(st.lists(st.booleans(), min_size=len(ids), max_size=len(ids)))
        passes.append((np.asarray(ids, dtype=np.int64), np.asarray(correct, dtype=bool)))
    return num_ids, passes


class TestForgettingArraysMatchDicts:
    @given(case=_observations())
    @settings(max_examples=60, deadline=None)
    def test_scores_match_the_dict_oracle(self, case):
        num_ids, passes = case
        arrays, oracle = ForgettingEventsSelector(), ForgettingEventsReference()
        arrays._size(num_ids)
        every_id = np.arange(num_ids)
        for ids, correct in passes:
            arrays.observe(ids, correct)
            oracle.observe(ids, correct)
            # Never-observed and never-learned ids score inf; ties stay ties.
            np.testing.assert_array_equal(arrays.scores(every_id), oracle.scores(every_id))
        np.testing.assert_array_equal(arrays.scores(every_id), oracle.scores(every_id))

    @pytest.mark.parametrize("ids", [[-1], [4], [1, 1]])
    def test_ids_off_the_rows_or_repeated_are_refused(self, ids):
        """A negative id would wrap round; a repeated one would count once."""
        sel = ForgettingEventsSelector()
        sel._size(4)
        with pytest.raises(ValueError):
            sel.observe(np.array(ids), np.zeros(len(ids), dtype=bool))
        np.testing.assert_array_equal(sel.scores(np.arange(4)), np.full(4, np.inf))

    def test_observe_before_any_dataset_is_refused(self):
        with pytest.raises(RuntimeError, match="before the selector saw a dataset"):
            ForgettingEventsSelector().observe(np.array([0]), np.array([True]))

    def test_dataset_of_another_root_is_refused(self, train_test_split, tiny_model):
        train, _ = train_test_split
        sel = ForgettingEventsSelector()
        sel.select(train, 0.2, tiny_model)
        with pytest.raises(ValueError, match="one root dataset"):
            sel.select(Dataset(train.x[:40], train.y[:40]), 0.2, tiny_model)
