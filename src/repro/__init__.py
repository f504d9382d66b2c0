"""NeSSA reproduction: near-storage data selection for accelerated ML training.

This package reimplements, in pure Python + numpy, the complete system from
"NeSSA: Near-Storage Data Selection for Accelerated Machine Learning
Training" (Prakriya et al., HotStorage '23):

- ``repro.nn`` — a from-scratch neural-network training substrate
  (conv/batchnorm/linear layers, SGD with Nesterov momentum, LR schedules,
  int8 quantization).
- ``repro.data`` — synthetic image-classification datasets mirroring the six
  datasets the paper evaluates, plus the paper-scale metadata registry used
  for storage modelling.
- ``repro.selection`` — coreset selection: facility-location submodular
  maximization (lazy greedy and stochastic greedy), the CRAIG baseline, the
  greedy k-centers baseline, and the per-chunk/partitioned variants.
- ``repro.core`` — the NeSSA contribution: the selector with quantized-weight
  feedback, subset biasing, and dataset partitioning, plus the trainers.
- ``repro.parallel`` — selection work units: deterministic (class x chunk)
  scheduler, the in-process executor, and the proxy-reuse cache.
- ``repro.smartssd`` — closed-form models of the Samsung SmartSSD (NAND
  flash, KU15P FPGA resource model, P2P and host PCIe links) and the
  access patterns a NeSSA epoch issues to it.
- ``repro.perf`` — GPU throughput catalogue and epoch-time decomposition used
  to regenerate the paper's timing figures.
- ``repro.pipeline`` — the end-to-end simulated SmartSSD+GPU training system.
"""

from repro.core.config import NeSSAConfig, TrainRecipe
from repro.core.selector import NeSSASelector
from repro.core.trainer import FullTrainer, NeSSATrainer, SubsetTrainer

__version__ = "1.0.0"

__all__ = [
    "NeSSAConfig",
    "TrainRecipe",
    "NeSSASelector",
    "NeSSATrainer",
    "FullTrainer",
    "SubsetTrainer",
    "__version__",
]
