"""From-scratch numpy neural-network substrate.

Implements everything the NeSSA training loop needs: layers with explicit
forward/backward passes, ResNet architectures, SGD with Nesterov momentum
and the paper's multi-step LR schedule, a cross-entropy loss that exposes
per-sample losses and last-layer gradients (the selection model's inputs),
and int8 weight quantization for the FPGA feedback loop.  It holds only
what the ResNets train, evaluate and quantize with, and of ``repro`` it
imports only ``repro.obs``: the layers above build on it, never it on them.
"""

from repro.nn.functional import conv2d, conv2d_backward, log_softmax, relu, softmax
from repro.nn.loss import CrossEntropyLoss
from repro.nn.modules import (
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool2d,
    Identity,
    Linear,
    Module,
    Parameter,
    ReLU,
    Sequential,
)
from repro.nn.optim import SGD, MultiStepLR
from repro.nn.quantize import dequantize_tensor, quantize_tensor
from repro.nn.resnet import BasicBlock, Bottleneck, ResNet, resnet18, resnet20, resnet50
from repro.nn.inference import InferencePlan

__all__ = [
    "conv2d",
    "conv2d_backward",
    "relu",
    "softmax",
    "log_softmax",
    "Parameter",
    "Module",
    "Conv2d",
    "Linear",
    "BatchNorm2d",
    "ReLU",
    "GlobalAvgPool2d",
    "Identity",
    "Sequential",
    "CrossEntropyLoss",
    "SGD",
    "MultiStepLR",
    "quantize_tensor",
    "dequantize_tensor",
    "ResNet",
    "BasicBlock",
    "Bottleneck",
    "resnet20",
    "resnet18",
    "resnet50",
    "InferencePlan",
]
