"""Edge-case coverage for the nn substrate."""

import numpy as np
import pytest

from repro.nn.modules import (
    BatchNorm2d,
    Conv2d,
    Linear,
    ReLU,
    Sequential,
)
from repro.nn.resnet import resnet20


class TestRectangularInputs:
    def test_conv_on_rectangular_images(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 6, 10)).astype(np.float32)
        layer = Conv2d(3, 4, 3, padding=1, rng=rng)
        out = layer(x)
        assert out.shape == (2, 4, 6, 10)

    def test_resnet_accepts_rectangular(self):
        net = resnet20(num_classes=3, width=4)
        x = np.zeros((2, 3, 8, 16), dtype=np.float32)
        assert net(x).shape == (2, 3)


class TestSequentialContainer:
    def test_len_and_getitem(self):
        seq = Sequential(ReLU(), Linear(2, 2), ReLU())
        assert len(seq) == 3
        assert isinstance(seq[1], Linear)

    def test_repr_is_informative(self):
        seq = Sequential(Linear(2, 3))
        assert "Linear(2, 3)" in repr(seq)

    def test_empty_sequential_is_identity(self):
        seq = Sequential()
        x = np.ones((2, 2), dtype=np.float32)
        assert np.array_equal(seq(x), x)
        assert np.array_equal(seq.backward(x), x)


class TestBuffers:
    def test_named_buffers_nested(self):
        net = Sequential(Conv2d(1, 2, 3), BatchNorm2d(2), Sequential(BatchNorm2d(2)))
        names = [n for n, _ in net.named_buffers()]
        assert "layers.1.running_mean" in names
        assert "layers.2.layers.0.running_var" in names

    def test_state_dict_includes_buffers(self):
        bn = BatchNorm2d(3)
        bn.running_mean[:] = 5.0
        buffers = dict(bn.named_buffers())
        assert set(buffers) == {"running_mean", "running_var"}
        assert buffers["running_mean"] is bn.running_mean
        assert np.allclose(buffers["running_mean"], 5.0)


class TestBatchSizeOne:
    def test_forward_backward_batch_of_one(self):
        """BN with batch 1 still works at 8x8 spatial (64 positions)."""
        from repro.nn.loss import CrossEntropyLoss

        net = resnet20(num_classes=3, width=4, seed=0).train()
        crit = CrossEntropyLoss()
        x = np.random.default_rng(2).normal(size=(1, 3, 8, 8)).astype(np.float32)
        loss = crit(net(x), np.array([1]))
        net.backward(crit.backward())
        assert np.isfinite(loss)

    def test_single_class_batch_loss_finite(self):
        from repro.nn.loss import CrossEntropyLoss

        crit = CrossEntropyLoss()
        logits = np.random.default_rng(3).normal(size=(4, 6))
        loss = crit(logits, np.zeros(4, dtype=np.int64))
        assert np.isfinite(loss)


class TestGradientProxyValidation:
    def test_misaligned_proxy_rejected(self):
        from repro.selection.gradients import GradientProxy

        with pytest.raises(ValueError):
            GradientProxy(
                vectors=np.zeros((3, 2)),
                losses=np.zeros(2),
                ids=np.zeros(3, dtype=np.int64),
            )

    def test_misaligned_ids_rejected(self):
        """Regression: a chained `a != b != c` check let this case through
        (losses match vectors, so the second comparison never saw vectors)."""
        from repro.selection.gradients import GradientProxy

        with pytest.raises(ValueError):
            GradientProxy(
                vectors=np.zeros((3, 2)),
                losses=np.zeros(3),
                ids=np.zeros(2, dtype=np.int64),
            )


class TestOptimizerClipping:
    def test_clip_caps_update_norm(self):
        from repro.nn.modules import Parameter
        from repro.nn.optim import SGD

        p = Parameter(np.zeros(4, dtype=np.float32))
        opt = SGD([p], lr=1.0, momentum=0.0, weight_decay=0.0, nesterov=False,
                  clip_grad_norm=1.0)
        p.grad[:] = 100.0  # norm 200
        opt.step()
        assert np.linalg.norm(p.data) == pytest.approx(1.0, rel=1e-5)

    def test_no_clip_below_threshold(self):
        from repro.nn.modules import Parameter
        from repro.nn.optim import SGD

        p = Parameter(np.zeros(2, dtype=np.float32))
        opt = SGD([p], lr=1.0, momentum=0.0, weight_decay=0.0, nesterov=False,
                  clip_grad_norm=10.0)
        p.grad[:] = 0.5
        opt.step()
        assert np.allclose(p.data, -0.5)

    def test_invalid_clip_rejected(self):
        from repro.nn.modules import Parameter
        from repro.nn.optim import SGD

        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(2))], clip_grad_norm=0.0)
