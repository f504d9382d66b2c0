"""GPU device catalogue.

The paper names three devices: the NVIDIA V100 (the Figure 2 profiling
GPU), the A100 (Figure 1), and the K1200 (the 45 W energy comparison in
Section 2.2; the A100 is quoted at 250 W there).  Effective training
throughput uses a utilization curve that penalizes small models — tiny
CIFAR networks keep a V100 a few percent busy, which is what real
per-epoch measurements show.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GPUSpec", "v100", "a100", "k1200"]

TFLOP = 1e12


@dataclass(frozen=True)
class GPUSpec:
    """Peak envelopes of one GPU."""

    name: str
    fp32_tflops: float
    tensor_tflops: float  # mixed-precision tensor-core peak (0 if none)
    memory_bandwidth_gbps: float
    power_watts: float
    max_utilization: float = 0.35  # sustained fraction of peak in training
    small_model_flops: float = 30e6  # forward FLOPs where utilization halves

    def __post_init__(self):
        if self.fp32_tflops <= 0:
            raise ValueError("fp32 peak must be positive")
        if not 0 < self.max_utilization <= 1:
            raise ValueError("max_utilization must be in (0, 1]")

    def utilization(self, forward_flops_per_image: float) -> float:
        """Achievable fraction of peak for a model of the given size.

        Small models are launch/latency bound: utilization follows
        ``u_max * f / (f + f0)``, halving at ``small_model_flops``.
        """
        if forward_flops_per_image <= 0:
            raise ValueError("forward FLOPs must be positive")
        f = forward_flops_per_image
        return self.max_utilization * f / (f + self.small_model_flops)

    def effective_tflops(self, forward_flops_per_image: float, mixed_precision: bool = False) -> float:
        """Sustained TFLOP/s for training a model of the given size."""
        peak = self.tensor_tflops if (mixed_precision and self.tensor_tflops) else self.fp32_tflops
        return peak * self.utilization(forward_flops_per_image)


def v100() -> GPUSpec:
    """NVIDIA V100 (the paper's Figure 2 profiling device)."""
    return GPUSpec("v100", fp32_tflops=14.0, tensor_tflops=112.0,
                   memory_bandwidth_gbps=900.0, power_watts=300.0)


def a100() -> GPUSpec:
    """NVIDIA A100 (Figure 1's device; 250 W per the paper's Section 2.2)."""
    return GPUSpec("a100", fp32_tflops=19.5, tensor_tflops=312.0,
                   memory_bandwidth_gbps=1555.0, power_watts=250.0)


def k1200() -> GPUSpec:
    """NVIDIA K1200 (the 45 W low-power comparison point in Section 2.2)."""
    return GPUSpec("k1200", fp32_tflops=1.1, tensor_tflops=0.0,
                   memory_bandwidth_gbps=80.0, power_watts=45.0)
