"""Tests for the experiment runner glue used by benchmarks and examples."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.core.config import NeSSAConfig
from repro.pipeline.experiment import (
    ExperimentResult,
    build_model,
    make_data,
    run_method,
    scaled_recipe,
)


@pytest.fixture(scope="module")
def tiny_data():
    # Small scale so each run is ~a second.
    return make_data("cifar10", scale=0.15, seed=7)


RECIPE = scaled_recipe(epochs=2, batch_size=64)


class TestHelpers:
    def test_scaled_recipe_carries_paper_shape(self):
        recipe = scaled_recipe(epochs=20)
        assert recipe.epochs == 20
        assert recipe.lr_milestones == (6, 12, 16)
        assert recipe.momentum == 0.9
        assert recipe.weight_decay == 5e-4

    def test_make_data_uses_registry_profile(self):
        train, test = make_data("svhn", scale=0.2, seed=1)
        assert train.num_classes == 10
        assert len(train) > len(test)

    @pytest.mark.parametrize("name,digest", [
        ("cifar10", "d2f51d130be94669cda32ba65e1fe6450ae6de06bcb3d46e06e5ce347ad1e5a6"),
        ("cifar100", "722ff93cbf324cbb32801b09da1d63e0d71f5ff5539000852340254fc73f9974"),
    ])
    def test_make_data_bytes_are_pinned(self, name, digest):
        """A drift here is the generator's, not the trainer's (golden histories)."""
        h = hashlib.sha256()
        for part in make_data(name, scale=2.0, seed=1001):
            for array in (part.x, part.y, part.ids):
                h.update(array.tobytes())
        assert h.hexdigest() == digest

    def test_make_data_peak_is_near_the_images_it_returns(self):
        """Clusters are written straight into the float32 images; the parent is freed."""
        make_data("cifar10", scale=0.2, seed=1001)  # imports and one-off setup
        tracemalloc.start()
        try:
            train, test = make_data("cifar10", scale=2.0, seed=1001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * (train.x.nbytes + test.x.nbytes)

    def test_build_model_matches_table1(self):
        m20 = build_model("cifar10", 10)
        m18 = build_model("svhn", 10)
        m50 = build_model("imagenet100", 16)
        assert [len(s) for s in m20.stages] == [3, 3, 3]
        assert [len(s) for s in m18.stages] == [2, 2, 2, 2]
        assert [len(s) for s in m50.stages] == [3, 4, 6, 3]

    def test_build_model_deterministic(self):
        a = build_model("cifar10", 10, seed=3)
        b = build_model("cifar10", 10, seed=3)
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert np.array_equal(pa.data, pb.data)


class TestRunMethod:
    @pytest.mark.parametrize(
        "method", ["full", "nessa", "nessa-vanilla", "nessa-sb", "nessa-pa",
                   "craig", "kcenters", "random"]
    )
    def test_every_method_runs(self, tiny_data, method):
        train, test = tiny_data
        result = run_method("cifar10", method, train, test, RECIPE,
                            subset_fraction=0.3, seed=0)
        assert isinstance(result, ExperimentResult)
        assert result.history.epochs == 2
        assert 0.0 <= result.final_accuracy <= 1.0
        assert result.method == method

    @pytest.mark.parametrize("dataset", ["cifar10", "cifar100"])
    def test_kcenters_survives_points_on_their_centers(self, dataset):
        """At this size k-centers exhausts the distinct proxies; its subset
        must still hold distinct samples."""
        result = run_method(dataset, "kcenters",
                            *make_data(dataset, scale=0.2, seed=1),
                            scaled_recipe(3, batch_size=32), seed=1)
        assert result.history.epochs == 3

    def test_full_ignores_fraction(self, tiny_data):
        train, test = tiny_data
        result = run_method("cifar10", "full", train, test, RECIPE, seed=0)
        assert result.subset_fraction == 1.0
        assert result.history.records[0].samples_trained == len(train)

    def test_default_fraction_from_registry(self, tiny_data):
        train, test = tiny_data
        result = run_method("cifar10", "random", train, test, RECIPE, seed=0)
        assert result.subset_fraction == pytest.approx(0.28)

    def test_custom_nessa_config_respected(self, tiny_data):
        train, test = tiny_data
        config = NeSSAConfig(subset_fraction=0.5, refresh_period=1, seed=0)
        result = run_method(
            "cifar10", "nessa", train, test, RECIPE,
            subset_fraction=0.5, nessa_config=config, seed=0,
        )
        # Period 1 re-forwards the whole pool every round; the default 5
        # would forward about a fifth of it on the second.
        first, second = result.history.records
        assert second.selection_proxy_flops == first.selection_proxy_flops > 0

    def test_nessa_config_fraction_is_recorded(self, tiny_data):
        train, test = tiny_data
        config = NeSSAConfig(subset_fraction=0.5, seed=0)
        result = run_method("cifar10", "nessa", train, test, RECIPE, nessa_config=config, seed=0)
        assert result.subset_fraction == 0.5
        k = result.history.records[0].samples_trained
        assert k / len(train) == pytest.approx(0.5, abs=0.05)

    def test_conflicting_fractions_raise(self, tiny_data):
        train, test = tiny_data
        config = NeSSAConfig(subset_fraction=0.5, seed=0)
        with pytest.raises(ValueError, match="subset_fraction"):
            run_method(
                "cifar10", "nessa", train, test, RECIPE,
                subset_fraction=0.3, nessa_config=config, seed=0,
            )

    def test_unknown_method_raises(self, tiny_data):
        train, test = tiny_data
        with pytest.raises(ValueError):
            run_method("cifar10", "telepathy", train, test, RECIPE)
        with pytest.raises(ValueError):
            run_method("cifar10", "nessa-bogus", train, test, RECIPE)

    def test_best_accuracy_property(self, tiny_data):
        train, test = tiny_data
        result = run_method("cifar10", "random", train, test, RECIPE, seed=0)
        assert result.best_accuracy >= result.final_accuracy - 1e-9
