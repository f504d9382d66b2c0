"""Datasets: synthetic image-classification generators + paper-scale registry.

The evaluation datasets of the paper (Table 1) cannot ship with this repo,
so :mod:`repro.data.synthetic` generates class-structured synthetic image
data whose redundancy profile exercises the same selection behaviour, and
:mod:`repro.data.registry` carries the true paper-scale metadata (class
counts, train sizes, bytes per image) that the storage and timing models
consume.
"""

from repro.data.dataset import Dataset, Subset, stratified_split
from repro.data.loader import DataLoader
from repro.data.registry import (
    DATASETS,
    PaperDataset,
    get_dataset_info,
    scaled_experiment_config,
)
from repro.data.synthetic import SyntheticConfig, SyntheticImageDataset, make_train_test

__all__ = [
    "Dataset",
    "Subset",
    "stratified_split",
    "DataLoader",
    "SyntheticConfig",
    "SyntheticImageDataset",
    "make_train_test",
    "PaperDataset",
    "DATASETS",
    "get_dataset_info",
    "scaled_experiment_config",
]
