"""ResNet architectures used in the paper's evaluation (Table 1).

The paper trains ResNet-20 (the CIFAR-style 3-stage network), ResNet-18 and
ResNet-50.  We implement all three faithfully, with a ``width`` multiplier
so tests and laptop-scale experiments can instantiate narrow variants that
train in seconds while keeping the exact block structure.

All variants take ``(N, C, H, W)`` inputs; the stem is the CIFAR-style
3x3/stride-1 convolution (no max-pool), which matches how the paper's small
datasets are trained.
"""

from __future__ import annotations

import numpy as np

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

__all__ = ["BasicBlock", "Bottleneck", "ResNet", "resnet20", "resnet18", "resnet50"]


class BasicBlock(Module):
    """Two 3x3 convolutions with a residual shortcut (ResNet-18/20/34 block)."""

    expansion = 1

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.conv1 = Conv2d(in_channels, out_channels, 3, stride=stride, padding=1, rng=rng)
        self.bn1 = BatchNorm2d(out_channels)
        self.relu1 = ReLU()
        self.conv2 = Conv2d(out_channels, out_channels, 3, stride=1, padding=1, rng=rng)
        self.bn2 = BatchNorm2d(out_channels)
        self.relu2 = ReLU()
        if stride != 1 or in_channels != out_channels:
            self.shortcut: Module = Sequential(
                Conv2d(in_channels, out_channels, 1, stride=stride, rng=rng),
                BatchNorm2d(out_channels),
            )
        else:
            self.shortcut = Identity()

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = self.relu1(self.bn1(self.conv1(x)))
        out = self.bn2(self.conv2(out))
        out += self.shortcut(x)  # bn output is fresh: add in place, keep its memory format
        return self.relu2(out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad = self.relu2.backward(grad_out)
        grad_short = self.shortcut.backward(grad)
        grad_main = self.bn2.backward(grad)
        grad_main = self.conv2.backward(grad_main)
        grad_main = self.relu1.backward(grad_main)
        grad_main = self.bn1.backward(grad_main)
        grad_main = self.conv1.backward(grad_main)
        grad_main += grad_short
        return grad_main


class Bottleneck(Module):
    """1x1 → 3x3 → 1x1 bottleneck block (ResNet-50 and deeper)."""

    expansion = 4

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        expanded = out_channels * self.expansion
        self.conv1 = Conv2d(in_channels, out_channels, 1, rng=rng)
        self.bn1 = BatchNorm2d(out_channels)
        self.relu1 = ReLU()
        self.conv2 = Conv2d(out_channels, out_channels, 3, stride=stride, padding=1, rng=rng)
        self.bn2 = BatchNorm2d(out_channels)
        self.relu2 = ReLU()
        self.conv3 = Conv2d(out_channels, expanded, 1, rng=rng)
        self.bn3 = BatchNorm2d(expanded)
        self.relu3 = ReLU()
        if stride != 1 or in_channels != expanded:
            self.shortcut: Module = Sequential(
                Conv2d(in_channels, expanded, 1, stride=stride, rng=rng),
                BatchNorm2d(expanded),
            )
        else:
            self.shortcut = Identity()

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = self.relu1(self.bn1(self.conv1(x)))
        out = self.relu2(self.bn2(self.conv2(out)))
        out = self.bn3(self.conv3(out))
        out += self.shortcut(x)  # bn output is fresh: add in place, keep its memory format
        return self.relu3(out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad = self.relu3.backward(grad_out)
        grad_short = self.shortcut.backward(grad)
        grad_main = self.bn3.backward(grad)
        grad_main = self.conv3.backward(grad_main)
        grad_main = self.relu2.backward(grad_main)
        grad_main = self.bn2.backward(grad_main)
        grad_main = self.conv2.backward(grad_main)
        grad_main = self.relu1.backward(grad_main)
        grad_main = self.bn1.backward(grad_main)
        grad_main = self.conv1.backward(grad_main)
        grad_main += grad_short
        return grad_main


class ResNet(Module):
    """Generic ResNet over a list of ``(blocks, channels, stride)`` stages.

    The classifier head is a global average pool followed by a linear layer;
    :meth:`features` exposes the pooled embedding, which the selection model
    uses as its gradient proxy input (Section 3.1 of the paper).
    """

    def __init__(
        self,
        block_cls: type,
        stage_blocks: list[int],
        stage_channels: list[int],
        num_classes: int,
        in_channels: int = 3,
        seed: int = 0,
    ):
        super().__init__()
        if len(stage_blocks) != len(stage_channels):
            raise ValueError("stage_blocks and stage_channels must have equal length")
        rng = np.random.default_rng(seed)
        self.num_classes = num_classes
        self.stem_conv = Conv2d(in_channels, stage_channels[0], 3, padding=1, rng=rng)
        self.stem_bn = BatchNorm2d(stage_channels[0])
        self.stem_relu = ReLU()

        stages = []
        current = stage_channels[0]
        for stage_idx, (n_blocks, channels) in enumerate(zip(stage_blocks, stage_channels)):
            blocks = []
            for block_idx in range(n_blocks):
                stride = 2 if (stage_idx > 0 and block_idx == 0) else 1
                blocks.append(block_cls(current, channels, stride=stride, rng=rng))
                current = channels * block_cls.expansion
            stages.append(Sequential(*blocks))
        self.stages = stages
        self.pool = GlobalAvgPool2d()
        self.fc = Linear(current, num_classes, rng=rng)
        self.embedding_dim = current

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.fc(self.features(x))

    def features(self, x: np.ndarray) -> np.ndarray:
        """Pooled penultimate-layer embedding, shape ``(N, embedding_dim)``."""
        out = self.stem_relu(self.stem_bn(self.stem_conv(x)))
        for stage in self.stages:
            out = stage(out)
        return self.pool(out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad = self.fc.backward(grad_out)
        grad = self.pool.backward(grad)
        for stage in reversed(self.stages):
            grad = stage.backward(grad)
        grad = self.stem_relu.backward(grad)
        grad = self.stem_bn.backward(grad)
        return self.stem_conv.backward(grad)

    def __repr__(self) -> str:
        return (
            f"ResNet(block={self.stages[0][0].__class__.__name__}, "
            f"stages={[len(s) for s in self.stages]}, "
            f"params={self.num_parameters()})"
        )


def resnet20(
    num_classes: int = 10, in_channels: int = 3, width: int = 16, seed: int = 0
) -> ResNet:
    """CIFAR-style ResNet-20: 3 stages x 3 BasicBlocks, 16/32/64 channels at width=16."""
    channels = [width, width * 2, width * 4]
    return ResNet(BasicBlock, [3, 3, 3], channels, num_classes, in_channels, seed)


def resnet18(
    num_classes: int = 10, in_channels: int = 3, width: int = 64, seed: int = 0
) -> ResNet:
    """ResNet-18: 4 stages x 2 BasicBlocks, 64/128/256/512 channels at width=64."""
    channels = [width, width * 2, width * 4, width * 8]
    return ResNet(BasicBlock, [2, 2, 2, 2], channels, num_classes, in_channels, seed)


def resnet50(
    num_classes: int = 100, in_channels: int = 3, width: int = 64, seed: int = 0
) -> ResNet:
    """ResNet-50: Bottleneck stages 3/4/6/3, 64/128/256/512 base channels at width=64."""
    channels = [width, width * 2, width * 4, width * 8]
    return ResNet(Bottleneck, [3, 4, 6, 3], channels, num_classes, in_channels, seed)
