"""Fused eval-mode forward for ResNets: the selection model's inference path.

The proxy pass and the per-epoch evaluation need a forward pass and
nothing else, so :class:`InferencePlan` runs one without the training
modules.  A plan is built for one input image shape.  At construction
every ``Conv2d`` + ``BatchNorm2d`` pair is folded into a float32 **row
operator** of shape ``(C_out*OW, k*C*W)``: the map from ``k`` consecutive
input rows to one output row, with the conv's zero padding along the
width baked in as zero columns.  Activations are ``(H+2, C, W, N)`` —
batch innermost, one zero row above and one below — so the ``k`` rows an
output row reads are one contiguous ``(k*C*W, N)`` block of the buffer.
Each conv is then one broadcast ``matmul`` of the operator against a
zero-copy window view of those blocks, written straight into the
interior rows of the next buffer, where bias, residual add and ReLU run
in place: no im2col, no padded copy, no column buffer (DESIGN §3 has the
measurements and the variants that lost).  An unpadded 1x1 conv keeps
its ``(C_out, C)`` kernel instead (see :class:`_RowConv`).  The operator
and the window view come from :func:`repro.nn.functional.row_operator`
and :func:`~repro.nn.functional.row_windows`, the ones the training conv
rebuilds every step from the raw kernel.

A plan folds the weights as they are when it is built and never writes
to the model, so callers build one per pass and drop it.  Only the
arithmetic order differs from the module forward (typically ≤ 4e-6
relative on the logits against a float64 reference, as for the module
forward itself).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro import obs
from repro.nn import functional as F
from repro.nn.modules import BatchNorm2d, Conv2d, Identity
from repro.nn.resnet import ResNet

__all__ = ["InferencePlan", "eval_forward"]


def _fold(conv: Conv2d, bn: BatchNorm2d) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode ``bn(conv(x))`` as a ``(C_out, C, k, k)`` kernel and a ``(C_out,)`` bias."""
    scale = bn.weight.data / np.sqrt(bn.running_var + bn.eps)
    bias = bn.bias.data - bn.running_mean * scale
    if conv.bias is not None:
        bias += conv.bias.data * scale
    return conv.weight.data * scale[:, None, None, None], bias


def _row_buffer(c: int, h: int, w: int, n: int) -> np.ndarray:
    """An ``(h+2, c, w, n)`` activation buffer; only its two border rows are zeroed."""
    buf = np.empty((h + 2, c, w, n), dtype=np.float32)
    buf[0] = 0.0
    buf[-1] = 0.0
    return buf


class _RowConv:
    """One folded conv + BN as a row operator, for a fixed ``(C, H, W)`` input.

    Output row ``oy`` is ``op @ rows[first + oy*stride : ... + k]`` of the
    input buffer, those ``k`` rows flattened to ``(k*C*W, N)``.  The zero
    rows of the buffer supply a padding of one along the height, which is
    all a ResNet uses; the operator's zero columns supply the width's.

    An unpadded 1x1 conv (every one in a ResNet) only mixes channels; its row
    operator would be ``W`` times the useful MACs, so there ``op`` is the
    ``(C_out, C)`` kernel itself, applied to each input row as
    ``(C, W*N)`` — the selected rows and columns when the stride is 2.
    """

    def __init__(self, conv: Conv2d, bn: BatchNorm2d, shape: tuple[int, int, int]):
        weight, bias = _fold(conv, bn)
        c_out, c, k, _ = weight.shape
        stride, pad = conv.stride, conv.padding
        _, h, w = shape
        oh = (h + 2 * pad - k) // stride + 1
        ow = (w + 2 * pad - k) // stride + 1
        self.pointwise = k == 1 and pad == 0
        if self.pointwise:
            self.op = weight.reshape(c_out, c)
        else:
            self.op = F.row_operator(weight, stride, pad, w)
        self.bias = bias[:, None, None]
        self.k, self.stride, self.first = k, stride, 1 - pad
        self.out_shape = (c_out, oh, ow)

    def __call__(self, buf: np.ndarray, residual=None, relu: bool = True) -> np.ndarray:
        """Conv + bias (+ ``residual``'s interior) (+ ReLU) of an ``(H+2, C, W, N)`` buffer."""
        c_out, oh, ow = self.out_shape
        n = buf.shape[3]
        if self.pointwise:  # (oh, C, OW*N): a view at stride 1, a copy of the kept pixels at 2
            windows = buf[1:-1][:: self.stride, :, :: self.stride].reshape(oh, buf.shape[1], -1)
        else:
            windows = F.row_windows(buf, self.k, self.stride, self.first, oh)
        out = _row_buffer(c_out, oh, ow, n)
        inner = out[1:-1]
        np.matmul(self.op, windows, out=inner.reshape(oh, self.op.shape[0], -1))
        inner += self.bias
        if residual is not None:
            inner += residual[1:-1]
        if relu:
            np.maximum(inner, 0.0, out=inner)
        return out


class InferencePlan:
    """The eval-mode forward of a :class:`~repro.nn.resnet.ResNet`, BN folded.

    Built for one ``image_shape`` ``(C, H, W)``: ``plan(x)`` and
    ``plan.features(x)`` take ``(N, C, H, W)`` input of that shape and
    match ``model(x)`` / ``model.features(x)`` in eval mode.  Not a
    ``Module``: no parameters, no backward, no train/eval state.
    """

    def __init__(self, model: ResNet, image_shape: tuple[int, int, int]):
        self.image_shape = tuple(image_shape)
        self._stem = _RowConv(model.stem_conv, model.stem_bn, self.image_shape)
        shape = self._stem.out_shape
        self._blocks = []  # per block: (row convs conv1..convK, projection or None)
        for stage in model.stages:
            for block in stage.layers:
                short = block.shortcut
                projection = None if isinstance(short, Identity) else _RowConv(*short.layers, shape)
                convs, i = [], 1
                while hasattr(block, f"conv{i}"):
                    conv, bn = getattr(block, f"conv{i}"), getattr(block, f"bn{i}")
                    convs.append(_RowConv(conv, bn, shape))
                    shape = convs[-1].out_shape
                    i += 1
                self._blocks.append((convs, projection))
        fc = model.fc
        self._fc = (fc.weight.data.T, None if fc.bias is None else fc.bias.data)

    def features(self, x: np.ndarray) -> np.ndarray:
        """Pooled penultimate-layer embedding, shape ``(N, embedding_dim)``."""
        if x.shape[1:] != self.image_shape:
            raise ValueError(f"plan built for {self.image_shape} inputs, got {x.shape[1:]}")
        c, h, w = self.image_shape
        out = _row_buffer(c, h, w, x.shape[0])
        out[1:-1] = x.transpose(2, 1, 3, 0)
        out = self._stem(out)
        for convs, projection in self._blocks:
            skip = out if projection is None else projection(out, relu=False)
            for conv in convs[:-1]:
                out = conv(out)
            out = convs[-1](out, residual=skip)
        return np.ascontiguousarray(out[1:-1].mean(axis=(0, 2)).T)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Logits: :meth:`features` through the fc head."""
        weight_t, bias = self._fc
        out = self.features(x) @ weight_t
        if bias is not None:
            out += bias
        return out


@contextmanager
def eval_forward(model, image_shape: tuple[int, int, int]):
    """Yield ``(forward, engine)``: the eval-mode forward of ``model`` for one pass.

    ``image_shape`` is the ``(C, H, W)`` of every input the pass will see.
    ``engine`` is ``"fused"`` — ``forward`` is a fresh :class:`InferencePlan`
    for that shape — when ``model``, or the replica inside a
    ``QuantizedModel``, is a ``ResNet``.  Anything
    else is ``"module"``: ``model`` itself, in eval mode for the duration
    and counted in ``nn.inference.module_fallbacks``.
    """
    inner = getattr(model, "model", model)
    if isinstance(inner, ResNet):
        yield InferencePlan(inner, image_shape), "fused"
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
