"""Golden per-epoch histories: the one epoch loop against recorded runs.

``golden_history.json`` was recorded at the last commit that still had
four hand-written epoch loops (``python tests/core/test_golden_history.py``
rewrites it from whatever trainer is checked out).  Every deterministic
``EpochRecord`` field must match exactly — floats are compared through
``float.hex`` — for the full-data loop, the three live-model baselines
and NeSSA at two embedding refresh periods: the default, and
``refresh_period=1``, whose record is the one NeSSA had when every round
forwarded every candidate.
"""

import json
from pathlib import Path

import pytest

from repro.core.config import NeSSAConfig, TrainRecipe
from repro.core.trainer import FullTrainer, NeSSATrainer, SubsetTrainer
from repro.data.synthetic import SyntheticConfig, make_train_test
from repro.nn.resnet import resnet20
from repro.selection.craig import CraigSelector
from repro.selection.kcenters import KCentersSelector
from repro.selection.random_sel import RandomSelector

FIXTURE = Path(__file__).with_name("golden_history.json")

FIELDS = (
    "train_loss", "test_accuracy", "subset_size", "samples_trained",
    "selection_ran", "selection_pairwise_bytes", "feedback_bytes",
    "dropped_samples", "lr",
)

SELECTORS = {
    "random": lambda: RandomSelector(seed=3),
    "craig": CraigSelector,
    "kcenters": lambda: KCentersSelector(seed=3),
}

# Drop period 2 so the biasing drop fires inside a 5-epoch run.
NESSA_CASES = {
    "nessa": {},
    "nessa-refresh1": {"refresh_period": 1},
}

CASES = ("full", *SELECTORS, *NESSA_CASES)


def exact(value):
    return value.hex() if isinstance(value, float) else value


def model():
    return resnet20(num_classes=4, width=4, seed=13)


def run_case(name):
    train_set, test_set = make_train_test(
        SyntheticConfig(num_classes=4, num_samples=240, image_shape=(3, 8, 8), seed=21)
    )
    recipe = TrainRecipe(
        epochs=5, batch_size=32, lr=0.05, lr_milestones=(3,), clip_grad_norm=5.0
    )
    if name == "full":
        history = FullTrainer(model(), recipe, seed=3).train(train_set, test_set)
    elif name in SELECTORS:
        trainer = SubsetTrainer(
            model(), recipe, SELECTORS[name](), subset_fraction=0.4, seed=3
        )
        history = trainer.train(train_set, test_set)
    else:
        config = NeSSAConfig(
            subset_fraction=0.4, biasing_window=2, biasing_drop_period=2, seed=3,
            **NESSA_CASES[name],
        )
        history = NeSSATrainer(model(), recipe, config, model).train(train_set, test_set)
    return [{f: exact(getattr(r, f)) for f in FIELDS} for r in history.records]


@pytest.mark.parametrize("name", CASES)
def test_history_matches_recording(name):
    golden = json.loads(FIXTURE.read_text())
    assert run_case(name) == golden[name]


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps({name: run_case(name) for name in CASES}, indent=1) + "\n"
    )
