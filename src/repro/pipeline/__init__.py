"""End-to-end simulated training systems.

:mod:`repro.pipeline.system` composes the SmartSSD device model, the GPU
compute model and the host ingest model into per-epoch timing and
data-movement ledgers for each training strategy (full-data, CRAIG,
k-centers, NeSSA) — the machinery behind Figure 4 and the paper's
3.47x / 5.37x / 2.14x headline numbers.

:mod:`repro.pipeline.experiment` is the glue the benchmarks use to run
accuracy experiments (trainers over synthetic data) with consistent
configuration and reporting.
"""

from repro.pipeline.cosim import CosimResult, cosimulate
from repro.pipeline.experiment import (
    ExperimentResult,
    build_model,
    run_method,
    scaled_recipe,
)
from repro.pipeline.multidevice import MultiDeviceSystem, ScalingPoint
from repro.pipeline.system import (
    EpochTiming,
    SystemModel,
    average_speedups,
    data_movement_summary,
)

__all__ = [
    "SystemModel",
    "EpochTiming",
    "average_speedups",
    "data_movement_summary",
    "ExperimentResult",
    "run_method",
    "build_model",
    "scaled_recipe",
    "MultiDeviceSystem",
    "ScalingPoint",
    "cosimulate",
    "CosimResult",
]
