"""From-scratch numpy neural-network substrate.

Implements everything the NeSSA training loop needs: layers with explicit
forward/backward passes, ResNet architectures, SGD with Nesterov momentum
and the paper's multi-step LR schedule, a cross-entropy loss that exposes
per-sample losses and last-layer gradients (the selection model's inputs),
and int8 weight quantization for the FPGA feedback loop.
"""

from repro.nn.functional import (
    avg_pool2d,
    conv2d,
    conv2d_backward,
    log_softmax,
    max_pool2d,
    max_pool2d_backward,
    relu,
    softmax,
)
from repro.nn.loss import CrossEntropyLoss
from repro.nn.modules import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    Module,
    Parameter,
    ReLU,
    Sequential,
)
from repro.nn.optim import SGD, ConstantLR, MultiStepLR
from repro.nn.scratch import BufferLease, BufferPool, scratch_pool, set_scratch_pool
from repro.nn.quantize import QuantizedModel, dequantize_tensor, quantize_tensor
from repro.nn.resnet import BasicBlock, Bottleneck, ResNet, resnet18, resnet20, resnet50
from repro.nn.inference import InferencePlan
from repro.nn.serialize import load_history, load_model, save_history, save_model

__all__ = [
    "conv2d",
    "conv2d_backward",
    "max_pool2d",
    "max_pool2d_backward",
    "avg_pool2d",
    "relu",
    "softmax",
    "log_softmax",
    "Parameter",
    "Module",
    "Conv2d",
    "Linear",
    "BatchNorm2d",
    "ReLU",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Identity",
    "Sequential",
    "CrossEntropyLoss",
    "SGD",
    "MultiStepLR",
    "ConstantLR",
    "quantize_tensor",
    "dequantize_tensor",
    "QuantizedModel",
    "ResNet",
    "BasicBlock",
    "Bottleneck",
    "resnet20",
    "resnet18",
    "resnet50",
    "InferencePlan",
    "save_model",
    "load_model",
    "save_history",
    "load_history",
    "BufferLease",
    "BufferPool",
    "scratch_pool",
    "set_scratch_pool",
]
