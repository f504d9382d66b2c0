"""Tests for FLOP counting."""

import numpy as np
import pytest

from repro.nn.modules import Conv2d, GlobalAvgPool2d, Linear, ReLU, Sequential
from repro.nn.resnet import resnet18, resnet20, resnet50
from repro.perf.flops import (
    MODEL_ZOO,
    conv2d_flops,
    linear_flops,
    model_forward_flops,
)


class TestPrimitiveCounts:
    def test_conv_formula(self):
        # 3x3 conv, 16->32 channels, 8x8 output: 2*9*16*32*64
        assert conv2d_flops(16, 32, 3, 8, 8) == 2 * 9 * 16 * 32 * 64

    def test_linear_formula(self):
        assert linear_flops(128, 10) == 2 * 128 * 10


class TestModelWalk:
    def test_sequential_sum(self):
        net = Sequential(
            Conv2d(3, 8, 3, padding=1),
            ReLU(),
            GlobalAvgPool2d(),
            Linear(8, 4),
        )
        f = model_forward_flops(net, (3, 8, 8))
        expected = conv2d_flops(3, 8, 3, 8, 8) + 8 * 64 + 8 * 64 + linear_flops(8, 4)
        assert f == pytest.approx(expected)

    def test_resnet20_canonical_count(self):
        """ResNet-20 on 32x32 is ~41M MACs (published) = ~82 MFLOPs here."""
        net = resnet20(num_classes=10, width=16)
        f = model_forward_flops(net, (3, 32, 32))
        assert f == pytest.approx(2 * 41e6, rel=0.15)

    def test_resnet18_at_cifar_resolution(self):
        """ResNet-18 (CIFAR stem) at 32x32 is ~0.56G MACs = ~1.11 GFLOPs."""
        net = resnet18(num_classes=10, width=64)
        f = model_forward_flops(net, (3, 32, 32))
        assert f == pytest.approx(2 * 557e6, rel=0.2)

    def test_width_scaling_quadratic(self):
        f1 = model_forward_flops(resnet20(width=4), (3, 8, 8))
        f2 = model_forward_flops(resnet20(width=8), (3, 8, 8))
        assert f2 / f1 == pytest.approx(4.0, rel=0.15)

    def test_resolution_scaling_quadratic(self):
        net = resnet20(width=8)
        f1 = model_forward_flops(net, (3, 8, 8))
        f2 = model_forward_flops(net, (3, 16, 16))
        assert f2 / f1 == pytest.approx(4.0, rel=0.1)

    def test_resnet50_counts(self):
        f = model_forward_flops(resnet50(num_classes=10, width=8), (3, 8, 8))
        assert f > 0

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            model_forward_flops(resnet20(width=4), (3, 8))

    def test_unknown_module_raises(self):
        class Weird:
            pass

        with pytest.raises(TypeError):
            from repro.perf.flops import _walk

            _walk(Weird(), (3, 8, 8))


class TestModelZoo:
    def test_growth_over_a_decade(self):
        """Figure 1's premise: FLOPs grow enormously from 2012 to 2021."""
        by_year = sorted(MODEL_ZOO, key=lambda m: m.year)
        assert by_year[0].year == 2012
        assert by_year[-1].gflops_per_image / by_year[0].gflops_per_image > 100

    def test_known_entries(self):
        names = {m.name for m in MODEL_ZOO}
        assert {"alexnet", "resnet50", "vit_l16"} <= names

    def test_resnet50_zoo_value_matches_registry(self):
        r50 = next(m for m in MODEL_ZOO if m.name == "resnet50")
        assert r50.gflops_per_image == pytest.approx(4.1)
