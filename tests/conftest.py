"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.data.synthetic import SyntheticConfig, SyntheticImageDataset, make_train_test
from repro.nn.resnet import resnet20


@pytest.fixture(scope="session")
def small_dataset():
    """A tiny 4-class synthetic dataset shared across read-only tests."""
    config = SyntheticConfig(num_classes=4, num_samples=240, image_shape=(3, 8, 8), seed=11)
    return SyntheticImageDataset(config)


@pytest.fixture(scope="session")
def split_config():
    """The generator config of :func:`train_test_split`."""
    return SyntheticConfig(num_classes=4, num_samples=320, image_shape=(3, 8, 8), seed=7)


@pytest.fixture(scope="session")
def train_test_split(split_config):
    """Train/test split of a 4-class problem for selection tests."""
    return make_train_test(split_config)


@pytest.fixture()
def tiny_model():
    """A narrow ResNet-20 that runs forward/backward in milliseconds."""
    return resnet20(num_classes=4, width=4, seed=3)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
