"""Tests pinning the paper-scale registry to Tables 1 and 2."""

import pytest

from repro.data.registry import (
    DATASETS,
    get_dataset_info,
    scaled_experiment_config,
)


class TestTable1Contents:
    """The registry must match the paper's Table 1 exactly."""

    @pytest.mark.parametrize(
        "name,classes,train,model",
        [
            ("cifar10", 10, 50_000, "resnet20"),
            ("svhn", 10, 73_000, "resnet18"),
            ("cinic10", 10, 90_000, "resnet18"),
            ("cifar100", 100, 50_000, "resnet18"),
            ("tinyimagenet", 200, 100_000, "resnet18"),
            ("imagenet100", 100, 130_000, "resnet50"),
        ],
    )
    def test_table1_row(self, name, classes, train, model):
        info = get_dataset_info(name)
        assert info.num_classes == classes
        assert info.train_size == train
        assert info.model == model

    def test_six_datasets(self):
        assert len(DATASETS) == 6


class TestTable2Contents:
    """Paper Table 2 accuracies and subset percentages."""

    @pytest.mark.parametrize(
        "name,full_acc,nessa_acc,subset",
        [
            ("cifar10", 92.02, 90.17, 28),
            ("svhn", 95.81, 95.18, 15),
            ("cinic10", 81.49, 80.26, 30),
            ("cifar100", 70.98, 69.23, 38),
            ("tinyimagenet", 63.40, 63.66, 34),
            ("imagenet100", 84.60, 83.76, 28),
        ],
    )
    def test_table2_row(self, name, full_acc, nessa_acc, subset):
        info = get_dataset_info(name)
        assert info.paper_full_acc == pytest.approx(full_acc)
        assert info.paper_nessa_acc == pytest.approx(nessa_acc)
        assert info.paper_subset_pct == subset

    def test_nessa_within_two_points_of_full_except_tinyimagenet(self):
        """The paper's 1-2% accuracy-loss claim (TinyImageNet actually wins)."""
        for info in DATASETS.values():
            gap = info.paper_full_acc - info.paper_nessa_acc
            assert gap <= 2.0


class TestByteMetadata:
    def test_cifar_image_is_3kb(self):
        """Section 1 quotes 3 KB/image for CIFAR-10/100."""
        assert get_dataset_info("cifar10").bytes_per_image == 3000

    def test_imagenet100_image_is_126kb(self):
        """Section 4.4 quotes 0.126 MB/image for ImageNet-100."""
        assert get_dataset_info("imagenet100").bytes_per_image == 126_000

    def test_total_bytes(self):
        info = get_dataset_info("cifar10")
        assert info.total_bytes == 50_000 * 3_000

    def test_unknown_dataset_raises_with_options(self):
        with pytest.raises(KeyError, match="cifar10"):
            get_dataset_info("nope")


class TestScaledConfigs:
    def test_all_datasets_have_configs(self):
        for name in DATASETS:
            cfg = scaled_experiment_config(name)
            assert cfg.num_samples >= cfg.num_classes * 16

    def test_relative_sizes_preserved(self):
        """ImageNet-100 (130k) stays bigger than CIFAR-10 (50k) when scaled."""
        small = scaled_experiment_config("cifar10").num_samples
        big = scaled_experiment_config("imagenet100").num_samples
        assert big > small

    def test_svhn_most_redundant(self):
        """SVHN gets the lowest noise/hard profile (paper: smallest subset)."""
        svhn = scaled_experiment_config("svhn")
        cifar100 = scaled_experiment_config("cifar100")
        assert svhn.within_cluster_noise < cifar100.within_cluster_noise
        assert svhn.hard_fraction < cifar100.hard_fraction

    def test_scale_multiplies_samples(self):
        base = scaled_experiment_config("cifar10", scale=1.0).num_samples
        double = scaled_experiment_config("cifar10", scale=2.0).num_samples
        assert double == pytest.approx(2 * base, rel=0.05)

    @pytest.mark.parametrize("scale", [0.0, -1.0])
    def test_non_positive_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="scale"):
            scaled_experiment_config("cifar10", scale=scale)

    def test_seed_passes_through(self):
        assert scaled_experiment_config("cifar10", seed=5).seed == 5
