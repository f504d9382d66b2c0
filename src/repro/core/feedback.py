"""Quantized-weight feedback loop between GPU and FPGA (paper §3.2.1).

After each training round the target model's weights are quantized and
transferred back to the SmartSSD, so the FPGA-side selection model scores
samples with (a fixed-point approximation of) the *current* model instead
of a stale one.  :class:`FeedbackLoop` owns the FPGA-side model replica
and the transfer bookkeeping the data-movement accounting reads.
"""

from __future__ import annotations

from typing import Callable

from repro.nn.quantize import dequantize_tensor, quantize_tensor, quantized_state_bytes
from repro.nn.resnet import ResNet

__all__ = ["FeedbackLoop"]


class FeedbackLoop:
    """Owns the FPGA-side quantized replica of the target model.

    ``replica`` is a plain :class:`~repro.nn.resnet.ResNet` that only runs
    forward, through :class:`~repro.nn.inference.InferencePlan`, so its
    parameters' gradient buffers are freed (``grad is None``).  Each
    :meth:`sync` replaces its parameters with dequantized copies of the
    source's, so the selector sees the rounding the FPGA would;
    quantization is weight-only, activations stay fp32.  The payload of a
    sync depends only on the shapes, which :meth:`sync` checks against the
    replica's, so it is counted once, as ``payload_bytes``.

    Parameters
    ----------
    model_factory : builds a fresh instance of the target architecture
        (the replica the quantized weights are loaded into).
    bits : quantization width (paper kernel: int8; 32 is fp32 feedback).
    """

    def __init__(self, model_factory: Callable[[], ResNet], bits: int = 8):
        self.bits = bits
        self.replica = model_factory()
        for param in self.replica.parameters():
            param.grad = None
        self.payload_bytes = quantized_state_bytes(self.replica, bits)
        self.syncs = 0
        self.bytes_transferred = 0

    def sync(self, source: ResNet) -> int:
        """Quantize ``source``'s state into the replica. Returns payload bytes.

        This is one trip of the feedback loop: GPU weights → quantize →
        (PCIe transfer, charged by the system model using the returned
        size) → dequantize into the FPGA-side model.
        """
        src_params = dict(source.named_parameters())
        dst_params = dict(self.replica.named_parameters())
        if src_params.keys() != dst_params.keys():
            raise ValueError("source and replica architectures differ")
        for name, src in src_params.items():
            if src.data.shape != dst_params[name].data.shape:
                raise ValueError(
                    f"source and replica architectures differ at {name!r}: "
                    f"{src.data.shape} vs {dst_params[name].data.shape}"
                )
        for name, src in src_params.items():  # checked first: a refused sync writes nothing
            q, scale = quantize_tensor(src.data, self.bits)
            dst_params[name].data = dequantize_tensor(q, scale)
        src_bufs = dict(source.named_buffers())
        for name, buf in self.replica.named_buffers():
            buf[...] = src_bufs[name]
        self.syncs += 1
        self.bytes_transferred += self.payload_bytes
        return self.payload_bytes
