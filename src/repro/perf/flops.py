"""FLOP counting: exact counts for repro.nn models, catalogue for Figure 1.

:func:`model_forward_flops` walks a :class:`repro.nn.modules.Module` tree
with symbolic ``(C, H, W)`` shapes, so the selection/timing models charge
the exact arithmetic our networks perform.  :data:`MODEL_ZOO` carries
published per-image FLOP counts for the famous ImageNet classifiers
Figure 1 plots (their training-time-per-epoch growth is the paper's
motivation).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nn.modules import (
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool2d,
    Identity,
    Linear,
    Module,
    ReLU,
    Sequential,
)
from repro.nn.resnet import BasicBlock, Bottleneck, ResNet

__all__ = [
    "conv2d_flops",
    "linear_flops",
    "model_forward_flops",
    "ZooModel",
    "MODEL_ZOO",
]


def conv2d_flops(in_ch: int, out_ch: int, kernel: int, out_h: int, out_w: int) -> float:
    """Multiply-add counted as 2 FLOPs, bias ignored (matches convention)."""
    return 2.0 * kernel * kernel * in_ch * out_ch * out_h * out_w


def linear_flops(in_features: int, out_features: int) -> float:
    return 2.0 * in_features * out_features


def _out_hw(h: int, w: int, kernel: int, stride: int, pad: int) -> tuple[int, int]:
    return (h + 2 * pad - kernel) // stride + 1, (w + 2 * pad - kernel) // stride + 1


def _walk(module: Module, shape: tuple) -> tuple[float, tuple]:
    """Return (flops, output shape) for a module applied at ``shape``.

    ``shape`` is ``(C, H, W)`` for spatial tensors or ``(D,)`` after
    the global pool.
    """
    if isinstance(module, Conv2d):
        c, h, w = shape
        oh, ow = _out_hw(h, w, module.kernel_size, module.stride, module.padding)
        f = conv2d_flops(module.in_channels, module.out_channels, module.kernel_size, oh, ow)
        return f, (module.out_channels, oh, ow)
    if isinstance(module, Linear):
        return linear_flops(module.in_features, module.out_features), (module.out_features,)
    if isinstance(module, BatchNorm2d):
        c, h, w = shape
        return 4.0 * c * h * w, shape
    if isinstance(module, ReLU):
        return float(_numel(shape)), shape
    if isinstance(module, GlobalAvgPool2d):
        c, h, w = shape
        return float(c * h * w), (c,)
    if isinstance(module, Identity):
        return 0.0, shape
    if isinstance(module, Sequential):
        total = 0.0
        for layer in module.layers:
            f, shape = _walk(layer, shape)
            total += f
        return total, shape
    if isinstance(module, (BasicBlock, Bottleneck)):
        total = 0.0
        main_shape = shape
        convs = (
            [module.conv1, module.bn1, module.relu1, module.conv2, module.bn2]
            if isinstance(module, BasicBlock)
            else [
                module.conv1, module.bn1, module.relu1,
                module.conv2, module.bn2, module.relu2,
                module.conv3, module.bn3,
            ]
        )
        for layer in convs:
            f, main_shape = _walk(layer, main_shape)
            total += f
        f_short, short_shape = _walk(module.shortcut, shape)
        if short_shape != main_shape:
            raise ValueError("residual shapes diverged — bad block config")
        total += f_short + _numel(main_shape)  # the residual add
        total += _numel(main_shape)  # the closing ReLU
        return total, main_shape
    if isinstance(module, ResNet):
        total = 0.0
        for layer in [module.stem_conv, module.stem_bn, module.stem_relu]:
            f, shape = _walk(layer, shape)
            total += f
        for stage in module.stages:
            f, shape = _walk(stage, shape)
            total += f
        f, shape = _walk(module.pool, shape)
        total += f
        f, shape = _walk(module.fc, shape)
        return total + f, shape
    raise TypeError(f"cannot count FLOPs for module type {type(module).__name__}")


def _numel(shape: tuple) -> int:
    n = 1
    for s in shape:
        n *= s
    return n


def model_forward_flops(model: Module, input_shape: tuple) -> float:
    """Exact forward FLOPs per sample for a repro.nn model.

    ``input_shape`` is ``(C, H, W)``.
    """
    if len(input_shape) != 3:
        raise ValueError("input_shape must be (C, H, W)")
    flops, _ = _walk(model, tuple(input_shape))
    return flops


@dataclass(frozen=True)
class ZooModel:
    """A published ImageNet classifier for the Figure 1 growth curve."""

    name: str
    year: int
    gflops_per_image: float  # forward pass at 224x224 (published numbers)
    params_millions: float
    mixed_precision: bool  # trained with tensor cores in its era's practice


# Published per-image forward GFLOPs (standard model-zoo numbers).
MODEL_ZOO: list = [
    ZooModel("alexnet", 2012, 0.72, 61.0, False),
    ZooModel("vgg16", 2014, 15.5, 138.0, False),
    ZooModel("googlenet", 2014, 1.5, 6.8, False),
    ZooModel("resnet50", 2015, 4.1, 25.6, False),
    ZooModel("resnet152", 2015, 11.6, 60.2, False),
    ZooModel("densenet201", 2016, 4.3, 20.0, False),
    ZooModel("resnext101", 2017, 16.5, 83.5, False),
    ZooModel("senet154", 2017, 20.7, 115.0, False),
    ZooModel("efficientnet_b7", 2019, 37.0, 66.0, True),
    ZooModel("vit_l16", 2020, 61.6, 307.0, True),
    ZooModel("vit_h14", 2021, 167.0, 632.0, True),
]
