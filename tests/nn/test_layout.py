"""The batch-innermost memory format of the training path.

Spatial modules keep the ``(N, C, H, W)`` shape contract but emit arrays
whose memory is a C-contiguous ``(C, H, W, N)`` buffer.  Nothing breaks
when that decays — ``F.channel_major`` repacks — it just gets slow, so
these tests pin the format itself and count the repacks.
"""

import numpy as np
import pytest

from repro import obs
from repro.nn import functional as F
from repro.nn.loss import CrossEntropyLoss
from repro.nn.modules import (
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool2d,
    Identity,
    ReLU,
    Sequential,
)
from repro.nn.resnet import BasicBlock, Bottleneck
from repro.pipeline.experiment import build_model


def formatted(x):
    return x.ndim == 4 and x.transpose(1, 2, 3, 0).flags.c_contiguous


def batch_innermost(x):
    return np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


@pytest.fixture()
def repacks():
    """Read the ``nn.layout.repacks`` counter of a registry installed for the test."""
    registry = obs.MetricsRegistry()
    previous = obs.set_metrics(registry)
    try:
        yield lambda: registry.snapshot()["counters"].get("nn.layout.repacks", 0)
    finally:
        obs.set_metrics(previous)


class TestChannelMajor:
    def test_formatted_input_is_a_view_and_is_not_counted(self, repacks, rng):
        x = batch_innermost(rng.normal(size=(4, 3, 5, 5)).astype(np.float32))
        buffer = F.channel_major(x)
        assert buffer.shape == (3, 5, 5, 4) and buffer.flags.c_contiguous
        assert np.shares_memory(buffer, x)
        assert repacks() == 0

    def test_foreign_input_is_copied_once_and_counted(self, repacks, rng):
        x = rng.normal(size=(4, 3, 5, 5)).astype(np.float32)
        for foreign in (x, x[:, :, ::2], x[::-1]):
            before = repacks()
            buffer = F.channel_major(foreign)
            assert buffer.flags.c_contiguous and not np.shares_memory(buffer, x)
            np.testing.assert_array_equal(buffer.transpose(3, 0, 1, 2), foreign)
            assert repacks() == before + 1


SPATIAL_MODULES = [
    ("conv3x3", lambda: Conv2d(3, 5, 3, padding=1, bias=True), (4, 3, 6, 6)),
    ("conv3x3-s2", lambda: Conv2d(3, 5, 3, stride=2, padding=1), (4, 3, 6, 6)),
    ("conv1x1", lambda: Conv2d(3, 5, 1), (4, 3, 6, 6)),
    ("conv1x1-s2", lambda: Conv2d(3, 5, 1, stride=2), (4, 3, 6, 6)),
    ("batchnorm", lambda: BatchNorm2d(3), (4, 3, 6, 6)),
    ("relu", ReLU, (4, 3, 6, 6)),
    ("identity", Identity, (4, 3, 6, 6)),
    ("sequential", lambda: Sequential(Conv2d(3, 3, 3, padding=1), BatchNorm2d(3), ReLU()),
     (4, 3, 6, 6)),
    ("basic-identity", lambda: BasicBlock(4, 4), (4, 4, 6, 6)),
    ("basic-projection", lambda: BasicBlock(4, 8, stride=2), (4, 4, 6, 6)),
    ("bottleneck-identity", lambda: Bottleneck(8, 2), (4, 8, 6, 6)),
    ("bottleneck-projection", lambda: Bottleneck(4, 2, stride=2), (4, 4, 6, 6)),
]


class TestModulesEmitTheFormat:
    @pytest.mark.parametrize(
        "make,in_shape", [m[1:] for m in SPATIAL_MODULES], ids=[m[0] for m in SPATIAL_MODULES]
    )
    @pytest.mark.parametrize("foreign_input", [False, True], ids=["formatted", "foreign"])
    def test_forward_and_backward(self, make, in_shape, foreign_input, rng):
        module = make().train()
        x = rng.normal(size=in_shape).astype(np.float32)
        if not foreign_input:
            x = batch_innermost(x)
        out = module(x)
        if foreign_input and isinstance(module, (ReLU, Identity)):
            # elementwise modules follow their operand: only the formatted case is pinned
            return
        assert formatted(out)
        g = rng.normal(size=out.shape).astype(np.float32)
        grad = module.backward(g if foreign_input else batch_innermost(g))
        assert grad.shape == in_shape
        assert formatted(grad)

    def test_global_avg_pool_backward(self, rng):
        pool = GlobalAvgPool2d().train()
        x = batch_innermost(rng.normal(size=(4, 3, 2, 2)).astype(np.float32))
        out = pool(x)
        np.testing.assert_allclose(out, x.mean(axis=(2, 3)), rtol=1e-6)
        grad = pool.backward(np.arange(12, dtype=np.float32).reshape(4, 3))
        assert formatted(grad) and grad.dtype == np.float32
        want = np.broadcast_to(np.arange(12).reshape(4, 3, 1, 1) / 4.0, (4, 3, 2, 2))
        np.testing.assert_array_equal(grad, want)


class TestTrainStepRepacks:
    """One repack per step — the loader's NCHW batch — and none in backward."""

    @pytest.mark.parametrize("dataset", ["cifar10", "cifar100", "imagenet100"])
    def test_one_repack_forward_none_backward(self, dataset, repacks, rng):
        model = build_model(dataset, num_classes=5, seed=2).train()
        loss = CrossEntropyLoss()
        x = rng.normal(size=(16, 3, 8, 8)).astype(np.float32)
        y = rng.integers(0, 5, size=16)
        for _ in range(2):
            before = repacks()
            logits = model(x)
            assert repacks() == before + 1
            loss(logits, y)
            grad = model.backward(loss.backward())
            assert repacks() == before + 1
            assert formatted(grad)
