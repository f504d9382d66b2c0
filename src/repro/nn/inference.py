"""Fused eval-mode forward for ResNets: the selection model's inference path.

The proxy pass and the per-epoch evaluation need a forward pass and
nothing else, so :class:`InferencePlan` runs one without the training
modules.  At construction every ``Conv2d`` + ``BatchNorm2d`` pair is
folded into one ``(C_out, C*k*k)`` matrix and a bias.  Activations stay
channel-major with the **batch innermost**, ``(C, H, W, N)``: im2col is
then ``k*k`` slice copies whose contiguous run is ``OW*N`` (stride 1) or
``N`` (stride 2) floats, each conv is a single GEMM
``(C_out, C*k*k) @ (C*k*k, OH*OW*N)``, and bias, residual add and ReLU
are applied in place on its output (DESIGN §3 has the measurements and
the layouts that lost).

A plan folds the weights as they are when it is built and never writes
to the model, so callers build one per pass and drop it.  Only the
arithmetic order differs from the module forward (~1e-6 relative on the
logits).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro import obs
from repro.nn.functional import _im2col_channel_major
from repro.nn.modules import BatchNorm2d, Conv2d, Identity
from repro.nn.resnet import ResNet

__all__ = ["InferencePlan", "eval_forward"]


def _fold(conv: Conv2d, bn: BatchNorm2d) -> tuple:
    """Eval-mode ``bn(conv(x))`` as ``(matrix, bias, kernel, stride, pad)``, float32."""
    scale = bn.weight.data / np.sqrt(bn.running_var + bn.eps)
    bias = bn.bias.data - bn.running_mean * scale
    if conv.bias is not None:
        bias += conv.bias.data * scale
    matrix = conv.weight.data.reshape(conv.out_channels, -1) * scale[:, None]
    return matrix, bias[:, None], conv.kernel_size, conv.stride, conv.padding


def _conv(x: np.ndarray, folded: tuple, residual=None, relu: bool = True) -> np.ndarray:
    """Folded conv + bias (+ ``residual``) (+ ReLU) on a ``(C, H, W, N)`` activation."""
    matrix, bias, k, stride, pad = folded
    n = x.shape[3]
    cols, (oh, ow) = _im2col_channel_major(x, k, stride, pad)
    out = matrix @ cols
    out += bias
    out = out.reshape(-1, oh, ow, n)
    if residual is not None:
        out += residual
    return np.maximum(out, 0.0, out=out) if relu else out


class InferencePlan:
    """The eval-mode forward of a :class:`~repro.nn.resnet.ResNet`, BN folded.

    ``plan(x)`` and ``plan.features(x)`` take ordinary ``(N, C, H, W)``
    input and match ``model(x)`` / ``model.features(x)`` in eval mode.
    Not a ``Module``: no parameters, no backward, no train/eval state.
    """

    def __init__(self, model: ResNet):
        self._stem = _fold(model.stem_conv, model.stem_bn)
        self._blocks = []  # per block: (folded conv1..convK, folded projection or None)
        for stage in model.stages:
            for block in stage.layers:
                convs, i = [], 1
                while hasattr(block, f"conv{i}"):
                    convs.append(_fold(getattr(block, f"conv{i}"), getattr(block, f"bn{i}")))
                    i += 1
                short = block.shortcut
                projection = None if isinstance(short, Identity) else _fold(*short.layers)
                self._blocks.append((convs, projection))
        fc = model.fc
        self._fc = (fc.weight.data.T, None if fc.bias is None else fc.bias.data)

    def features(self, x: np.ndarray) -> np.ndarray:
        """Pooled penultimate-layer embedding, shape ``(N, embedding_dim)``."""
        out = np.ascontiguousarray(x.transpose(1, 2, 3, 0), dtype=np.float32)
        out = _conv(out, self._stem)
        for convs, projection in self._blocks:
            skip = out if projection is None else _conv(out, projection, relu=False)
            for folded in convs[:-1]:
                out = _conv(out, folded)
            out = _conv(out, convs[-1], residual=skip)
        c, h, w, n = out.shape
        return np.ascontiguousarray(out.reshape(c, h * w, n).mean(axis=1).T)

    def head(self, features: np.ndarray) -> np.ndarray:
        """Logits from the output of :meth:`features`."""
        weight_t, bias = self._fc
        out = features @ weight_t
        if bias is not None:
            out += bias
        return out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.head(self.features(x))


@contextmanager
def eval_forward(model):
    """Yield ``(forward, engine)``: the eval-mode forward of ``model`` for one pass.

    ``engine`` is ``"fused"`` — ``forward`` is a fresh :class:`InferencePlan` —
    when ``model``, or the replica inside a ``QuantizedModel`` with fp32
    activations, is a ``ResNet``.  Anything else is ``"module"``: ``model``
    itself, in eval mode for the duration and counted in
    ``nn.inference.module_fallbacks``.
    """
    inner = getattr(model, "model", model)
    if isinstance(inner, ResNet) and getattr(model, "activation_bits", None) is None:
        yield InferencePlan(inner), "fused"
        return
    obs.metrics().counter("nn.inference.module_fallbacks").inc()
    was_training = getattr(inner, "training", False)
    if hasattr(inner, "eval"):
        inner.eval()
    try:
        yield model, "module"
    finally:
        if was_training and hasattr(inner, "train"):
            inner.train()
