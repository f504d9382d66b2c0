"""Performance models: GPU throughput, FLOP counting, epoch-time breakdown.

The paper's timing figures are measurements on V100/A100 testbeds; this
package recomputes them from first principles — per-model FLOP counts,
device throughput envelopes with a small-model utilization penalty, and a
host data-ingest model (storage read + decode + collate) — calibrated
against the figures' published anchor points (Figure 2's 5.4%/40.4%
data-movement shares, Figure 6's link throughputs).
"""

from repro.perf.flops import (
    MODEL_ZOO,
    ZooModel,
    conv2d_flops,
    linear_flops,
    model_forward_flops,
    train_step_flops,
)
from repro.perf.gpus import GPUSpec, a100, k1200, v100
from repro.perf.suitability import SuitabilityReport, analyze_selection_workload
from repro.perf.timemodel import (
    EpochBreakdown,
    GPUComputeModel,
    HostIngestModel,
    epoch_time_breakdown,
)

__all__ = [
    "GPUSpec",
    "v100",
    "a100",
    "k1200",
    "conv2d_flops",
    "linear_flops",
    "model_forward_flops",
    "train_step_flops",
    "MODEL_ZOO",
    "ZooModel",
    "GPUComputeModel",
    "HostIngestModel",
    "EpochBreakdown",
    "epoch_time_breakdown",
    "SuitabilityReport",
    "analyze_selection_workload",
]
