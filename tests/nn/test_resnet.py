"""Tests for the ResNet architectures."""

import numpy as np
import pytest

from repro.nn.loss import CrossEntropyLoss
from repro.nn.resnet import BasicBlock, Bottleneck, ResNet, resnet18, resnet20, resnet50


class TestBlocks:
    def test_basic_block_preserves_shape_stride1(self):
        block = BasicBlock(4, 4)
        x = np.zeros((2, 4, 8, 8), dtype=np.float32)
        assert block(x).shape == (2, 4, 8, 8)

    def test_basic_block_downsamples_stride2(self):
        block = BasicBlock(4, 8, stride=2)
        x = np.zeros((2, 4, 8, 8), dtype=np.float32)
        assert block(x).shape == (2, 8, 4, 4)

    def test_bottleneck_expands_channels(self):
        block = Bottleneck(4, 4)
        x = np.zeros((2, 4, 8, 8), dtype=np.float32)
        assert block(x).shape == (2, 16, 8, 8)

    def test_basic_block_backward_gradcheck(self):
        rng = np.random.default_rng(0)
        block = BasicBlock(3, 6, stride=2, rng=rng)
        block.train()
        x = rng.normal(size=(4, 3, 8, 8)).astype(np.float64)
        out = block(x)
        g = rng.normal(size=out.shape)
        block.zero_grad()
        block(x)
        block.backward(g)
        p = dict(block.named_parameters())["conv1.weight"]
        idx = (0, 0, 1, 1)
        eps = 1e-4
        loss0 = float((block(x) * g).sum())
        p.data[idx] += eps
        loss1 = float((block(x) * g).sum())
        p.data[idx] -= eps
        assert p.grad[idx] == pytest.approx((loss1 - loss0) / eps, rel=5e-2, abs=1e-2)

    def test_bottleneck_backward_runs(self):
        rng = np.random.default_rng(1)
        block = Bottleneck(4, 2, rng=rng)
        block.train()
        x = rng.normal(size=(2, 4, 4, 4)).astype(np.float32)
        out = block(x)
        grad = block.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_identity_shortcut_when_shapes_match(self):
        from repro.nn.modules import Identity

        assert isinstance(BasicBlock(4, 4).shortcut, Identity)
        assert not isinstance(BasicBlock(4, 8).shortcut, Identity)


class TestArchitectures:
    def test_resnet20_has_20ish_conv_linear_layers(self):
        """3 stages x 3 blocks x 2 convs + stem + fc = 20 weight layers."""
        from repro.nn.modules import Conv2d, Linear

        net = resnet20(width=4)
        weight_layers = [
            m
            for m in net.modules()
            if isinstance(m, (Conv2d, Linear))
        ]
        # Projection shortcuts add convs beyond the canonical 20.
        main_path = 1 + 3 * 3 * 2 + 1
        assert len(weight_layers) >= main_path

    def test_resnet18_stage_structure(self):
        net = resnet18(width=4)
        assert [len(s) for s in net.stages] == [2, 2, 2, 2]

    def test_resnet50_bottleneck_structure(self):
        net = resnet50(width=4)
        assert [len(s) for s in net.stages] == [3, 4, 6, 3]
        assert net.embedding_dim == 4 * 8 * Bottleneck.expansion

    @pytest.mark.parametrize("builder", [resnet20, resnet18, resnet50])
    def test_forward_output_shape(self, builder):
        net = builder(num_classes=7, width=4)
        x = np.zeros((2, 3, 8, 8), dtype=np.float32)
        assert net(x).shape == (2, 7)

    def test_features_shape(self):
        net = resnet20(num_classes=5, width=4)
        x = np.zeros((3, 3, 8, 8), dtype=np.float32)
        assert net.features(x).shape == (3, net.embedding_dim)

    def test_deterministic_init_from_seed(self):
        a = resnet20(width=4, seed=42)
        b = resnet20(width=4, seed=42)
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_different_seeds_differ(self):
        a = resnet20(width=4, seed=1)
        b = resnet20(width=4, seed=2)
        diffs = [
            not np.array_equal(pa.data, pb.data)
            for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters())
            if pa.data.std() > 0
        ]
        assert any(diffs)

    def test_mismatched_stage_lists_raise(self):
        with pytest.raises(ValueError):
            ResNet(BasicBlock, [2, 2], [4], num_classes=2)

    def test_end_to_end_backward_shapes(self):
        net = resnet18(num_classes=3, width=4, seed=0)
        net.train()
        x = np.random.default_rng(2).normal(size=(4, 3, 8, 8)).astype(np.float32)
        crit = CrossEntropyLoss()
        crit(net(x), np.array([0, 1, 2, 0]))
        grad_in = net.backward(crit.backward())
        assert grad_in.shape == x.shape

    def test_one_sgd_step_reduces_loss(self):
        from repro.nn.optim import SGD

        rng = np.random.default_rng(3)
        net = resnet20(num_classes=3, width=4, seed=5)
        net.train()
        x = rng.normal(size=(16, 3, 8, 8)).astype(np.float32)
        y = rng.integers(0, 3, size=16)
        crit = CrossEntropyLoss()
        opt = SGD(net.parameters(), lr=0.05, momentum=0.0, weight_decay=0.0, nesterov=False)
        losses = []
        for _ in range(5):
            loss = crit(net(x), y)
            losses.append(loss)
            opt.zero_grad()
            net.backward(crit.backward())
            opt.step()
        assert losses[-1] < losses[0]


def _held_buffers(model: ResNet) -> dict:
    """Bytes of every array the module caches reach, keyed by owning buffer."""
    found = {}

    def visit(item):
        if isinstance(item, np.ndarray):
            while isinstance(item.base, np.ndarray):
                item = item.base
            found[id(item)] = item.nbytes
        elif isinstance(item, tuple):
            for part in item:
                visit(part)

    for module in model.modules():
        visit(getattr(module, "_cache", None))
    return found


class TestActivationCaches:
    """What a training forward leaves for backward: each activation once."""

    @pytest.fixture()
    def trained_forward(self):
        model = resnet20(10, width=6).train()
        model(np.random.default_rng(0).normal(size=(64, 3, 8, 8)).astype(np.float32))
        return model

    def test_caches_hold_each_buffer_once(self, trained_forward):
        assert sum(_held_buffers(trained_forward).values()) <= 3.2e6

    def test_conv_after_relu_shares_its_cache(self, trained_forward):
        relu = trained_forward.stem_relu
        for stage in trained_forward.stages:
            for block in stage.layers:
                assert np.shares_memory(block.conv1._cache[0][0], relu._cache)
                assert np.shares_memory(block.conv2._cache[0][0], block.relu1._cache)
                relu = block.relu2
