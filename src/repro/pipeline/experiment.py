"""Experiment glue shared by examples and the benchmark harness.

Standardizes how a (dataset name, method, subset fraction) triple becomes
a trained model + history, so Table 2 / Table 3 / Figure 5 benches and
the examples all run through one code path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.config import NeSSAConfig, TrainRecipe
from repro.core.metrics import TrainingHistory
from repro.core.trainer import FullTrainer, NeSSATrainer, SubsetTrainer
from repro.data.dataset import Dataset
from repro.data.registry import get_dataset_info, scaled_experiment_config
from repro.data.synthetic import make_train_test
from repro.nn.resnet import resnet18, resnet20, resnet50
from repro.selection.craig import CraigSelector
from repro.selection.kcenters import KCentersSelector
from repro.selection.random_sel import RandomSelector

__all__ = ["ExperimentResult", "build_model", "scaled_recipe", "run_method", "make_data"]

# Narrow widths keep laptop-scale runs in seconds while preserving each
# network's block structure.
_MODEL_BUILDERS = {
    "resnet20": lambda classes, seed: resnet20(classes, width=6, seed=seed),
    "resnet18": lambda classes, seed: resnet18(classes, width=6, seed=seed),
    "resnet50": lambda classes, seed: resnet50(classes, width=4, seed=seed),
}


@dataclass
class ExperimentResult:
    """One (dataset, method) accuracy run."""

    dataset: str
    method: str
    subset_fraction: float
    history: TrainingHistory

    @property
    def final_accuracy(self) -> float:
        return self.history.final_accuracy

    @property
    def best_accuracy(self) -> float:
        return self.history.best_accuracy


def build_model(dataset_name: str, num_classes: int, seed: int = 0):
    """The Table 1 network for a dataset, at laptop width."""
    info = get_dataset_info(dataset_name)
    return _MODEL_BUILDERS[info.model](num_classes, seed)


def scaled_recipe(epochs: int, batch_size: int = 64) -> TrainRecipe:
    """The paper recipe compressed to ``epochs`` with a small-batch default."""
    return replace(TrainRecipe().scaled(epochs), batch_size=batch_size)


def make_data(dataset_name: str, scale: float = 1.0, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Synthetic (train, test) stand-in for a paper dataset."""
    config = scaled_experiment_config(dataset_name, scale=scale, seed=seed)
    return make_train_test(config)


def run_method(
    dataset_name: str,
    method: str,
    train_set: Dataset,
    test_set: Dataset,
    recipe: TrainRecipe,
    subset_fraction: float | None = None,
    nessa_config: NeSSAConfig | None = None,
    seed: int = 0,
) -> ExperimentResult:
    """Train one method and return its history.

    ``method`` is one of ``full | nessa | nessa-vanilla | nessa-sb |
    nessa-pa | craig | kcenters | random``; the nessa-* variants are the
    Table 3 ablation arms.
    """
    info = get_dataset_info(dataset_name)
    fraction = subset_fraction if subset_fraction is not None else info.subset_fraction
    num_classes = train_set.num_classes

    def factory():
        return build_model(dataset_name, num_classes, seed=seed)

    if method == "full":
        trainer = FullTrainer(factory(), recipe, seed=seed)
        history = trainer.train(train_set, test_set)
        return ExperimentResult(dataset_name, method, 1.0, history)

    if method.startswith("nessa"):
        if nessa_config is not None and subset_fraction not in (None, nessa_config.subset_fraction):
            raise ValueError(
                f"subset_fraction={subset_fraction} differs from "
                f"nessa_config.subset_fraction={nessa_config.subset_fraction}"
            )
        base = nessa_config or NeSSAConfig(subset_fraction=fraction, seed=seed)
        variants = {
            "nessa": base,
            "nessa-vanilla": base.vanilla(),
            "nessa-sb": base.with_only_biasing(),
            "nessa-pa": base.with_only_partitioning(),
        }
        if method not in variants:
            raise ValueError(f"unknown NeSSA variant {method!r}")
        config = variants[method]
        trainer = NeSSATrainer(factory(), recipe, config, factory)
        history = trainer.train(train_set, test_set)
        history.method = method
        return ExperimentResult(dataset_name, method, config.subset_fraction, history)

    selectors = {
        "craig": CraigSelector,
        "kcenters": lambda: KCentersSelector(seed=seed),
        "random": lambda: RandomSelector(seed=seed),
    }
    if method not in selectors:
        raise ValueError(f"unknown method {method!r}")
    trainer = SubsetTrainer(
        factory(), recipe, selectors[method](), fraction, seed=seed
    )
    history = trainer.train(train_set, test_set)
    return ExperimentResult(dataset_name, method, fraction, history)
