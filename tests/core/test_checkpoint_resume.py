"""Integration: a trained model survives a checkpoint round trip and keeps
training from it."""

import pytest

from repro.core.config import TrainRecipe
from repro.core.metrics import evaluate_accuracy
from repro.core.trainer import FullTrainer
from repro.data.synthetic import SyntheticConfig, make_train_test
from repro.nn.resnet import resnet20
from repro.nn.serialize import load_model, save_model


@pytest.fixture(scope="module")
def data():
    cfg = SyntheticConfig(num_classes=4, num_samples=320, image_shape=(3, 8, 8), seed=31)
    return make_train_test(cfg)


def recipe(epochs=4):
    base = TrainRecipe().scaled(epochs) if epochs > 3 else TrainRecipe(
        epochs=epochs, lr_milestones=()
    )
    return TrainRecipe(
        epochs=epochs,
        batch_size=48,
        lr=0.05,
        lr_milestones=tuple(m for m in (base.lr_milestones or ()) if m < epochs),
        clip_grad_norm=5.0,
    )


def factory():
    return resnet20(num_classes=4, width=4, seed=17)


class TestCheckpointResume:
    def test_training_resumes_from_checkpoint(self, data, tmp_path):
        train, test = data
        trainer = FullTrainer(factory(), recipe(3), seed=0)
        trainer.train(train, test)
        acc_before = evaluate_accuracy(trainer.model, test)
        save_model(trainer.model, tmp_path / "ckpt.npz")

        resumed = factory()
        load_model(resumed, tmp_path / "ckpt.npz")
        assert evaluate_accuracy(resumed, test) == pytest.approx(acc_before)

        # Continue training the restored model — it should not regress.
        cont = FullTrainer(resumed, recipe(3), seed=1)
        history = cont.train(train, test)
        assert history.final_accuracy >= acc_before - 0.1

