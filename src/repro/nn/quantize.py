"""Weight quantization for the FPGA feedback loop (paper Sections 3 and 3.2.1).

After the GPU trains on a subset, the target model's weights are quantized
and shipped back to the SmartSSD's FPGA, where the selection model runs
forward passes with them.  We implement symmetric integer quantization
at a configurable bit width (the paper's kernel uses int8; the bit-width
ablation bench sweeps 4/8/16/32).  Weight tensors get one scale per
output channel (axis 0), and :func:`quantized_state_bytes` charges one
fp32 scale per output channel; 1-D tensors (biases, batchnorm affine
parameters) get one scale for the whole tensor.

:class:`~repro.core.feedback.FeedbackLoop` round-trips every parameter of
the target model through these two functions into its replica, so the
selection model's forward passes see the FPGA's rounding error.
"""

from __future__ import annotations

import numpy as np

from repro.nn.modules import Module

__all__ = ["quantize_tensor", "dequantize_tensor", "quantized_state_bytes"]


def quantize_tensor(x: np.ndarray, bits: int = 8) -> tuple[np.ndarray, np.ndarray | float]:
    """Symmetric quantization to ``bits``-wide signed integers.

    Multi-dimensional tensors get per-output-channel scales (axis 0), the
    standard scheme for int8 inference kernels — per-tensor scales lose
    too much precision on small channels; 1-D tensors get one scale.
    Returns ``(q, scale)`` with ``x ≈ q * scale`` (scale broadcast over
    axis 0 when per-channel).  ``bits == 32`` is the identity passthrough (fp32
    feedback, the no-quantization ablation arm).
    """
    if bits < 2 or bits > 32:
        raise ValueError(f"unsupported bit width: {bits}")
    if bits == 32:
        return x.astype(np.float32), 1.0
    if x.size == 0:
        # Degenerate but legal (an empty class bucket, a zero-channel
        # layer): nothing to scale, and ``np.abs(x).max()`` would raise.
        # The identity scale keeps the round trip well defined.
        return np.zeros(x.shape, dtype=np.int32), 1.0
    qmax = 2 ** (bits - 1) - 1

    if x.ndim >= 2:
        flat = np.abs(x).reshape(x.shape[0], -1)
        max_abs = flat.max(axis=1)
        scale = np.where(max_abs > 0, max_abs / qmax, 1.0)
        shaped = scale.reshape((-1,) + (1,) * (x.ndim - 1))
        q = np.clip(np.round(x / shaped), -qmax, qmax).astype(np.int32)
        # float32 is the wire format for scales.  A subnormal max_abs can
        # flush the cast to 0.0, leaving a zero point that dequantizes
        # everything to 0 and divides-by-zero downstream — clamp to the
        # smallest normal float32 instead (values that small dequantize
        # to ~1e-38 either way).
        tiny = np.finfo(np.float32).tiny
        scale32 = scale.astype(np.float32)
        return q, np.where(scale32 < tiny, np.float32(tiny), scale32)

    max_abs = float(np.abs(x).max())
    if max_abs == 0.0:
        return np.zeros(x.shape, dtype=np.int32), 1.0
    # Same degenerate-scale guard as the per-channel branch: never hand
    # back a scale that underflows the float32 wire format to zero.
    scale = max(max_abs / qmax, float(np.finfo(np.float32).tiny))
    q = np.clip(np.round(x / scale), -qmax, qmax).astype(np.int32)
    return q, scale


def dequantize_tensor(q: np.ndarray, scale: np.ndarray | float) -> np.ndarray:
    """Inverse of :func:`quantize_tensor` (scalar or per-channel scale)."""
    if np.ndim(scale) == 1:
        shaped = np.asarray(scale, dtype=np.float32).reshape(
            (-1,) + (1,) * (q.ndim - 1)
        )
        return q.astype(np.float32) * shaped
    return q.astype(np.float32) * np.float32(scale)


def quantized_state_bytes(model: Module, bits: int = 8) -> int:
    """Bytes needed to ship the model's quantized weights to the FPGA.

    Parameters are packed at ``bits`` bits each plus one fp32 scale per
    output channel; batchnorm running statistics travel in fp32.  This is
    the feedback-path payload the data-movement accounting charges.
    """
    param_bits = sum(
        p.size * bits + 32 * (p.data.shape[0] if p.data.ndim >= 2 else 1)
        for p in model.parameters()
    )
    buffer_bits = sum(buf.size * 32 for _, buf in model.named_buffers())
    return (param_bits + buffer_bits + 7) // 8
