"""The NeSSA contribution: selector, feedback loop and trainers.

This package implements Section 3 of the paper: the selection model
(CRAIG facility location) adapted to near-storage execution with the three
accuracy optimizations — quantized-weight feedback (§3.2.1), subset
biasing (§3.2.2) and dataset partitioning (§3.2.3).
"""

from repro.core.config import NeSSAConfig, TrainRecipe
from repro.core.feedback import FeedbackLoop
from repro.core.metrics import EpochRecord, TrainingHistory, evaluate_accuracy
from repro.core.selector import NeSSASelector
from repro.core.trainer import FullTrainer, NeSSATrainer, SubsetTrainer

__all__ = [
    "NeSSAConfig",
    "TrainRecipe",
    "NeSSASelector",
    "FeedbackLoop",
    "NeSSATrainer",
    "FullTrainer",
    "SubsetTrainer",
    "EpochRecord",
    "TrainingHistory",
    "evaluate_accuracy",
]
