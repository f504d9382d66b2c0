"""Unit tests for the module layer: parameters, modes, gradients."""

import numpy as np
import pytest

from repro import obs
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


def gradcheck_module(module, in_shape, n_checks=4, eps=1e-5, atol=1e-3):
    """Finite-difference check of parameter gradients through a scalar loss."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=in_shape).astype(np.float64)
    module.train()
    out = module(x)
    g = rng.normal(size=out.shape)
    loss0 = float((out * g).sum())
    module.zero_grad()
    module(x)  # repopulate caches consumed by nothing yet
    module.backward(g)
    for name, p in module.named_parameters():
        for _ in range(n_checks):
            idx = tuple(rng.integers(0, s) for s in p.shape)
            orig = p.data[idx]
            p.data[idx] = orig + eps
            loss1 = float((module(x) * g).sum())
            p.data[idx] = orig
            num = (loss1 - loss0) / eps
            assert p.grad[idx] == pytest.approx(num, rel=1e-2, abs=atol), name


class TestParameter:
    def test_grad_starts_zero(self):
        p = Parameter(np.ones((2, 3)))
        assert np.allclose(p.grad, 0.0)

    def test_zero_grad_resets(self):
        p = Parameter(np.ones(3))
        p.grad += 5.0
        p.zero_grad()
        assert np.allclose(p.grad, 0.0)

    def test_casts_to_float32(self):
        p = Parameter(np.ones(3, dtype=np.float64))
        assert p.data.dtype == np.float32


class TestModuleInfrastructure:
    def test_parameters_found_in_nested_lists(self):
        net = Sequential(Conv2d(1, 2, 3), Sequential(Linear(4, 5)))
        names = [n for n, _ in net.named_parameters()]
        assert any("layers.0" in n for n in names)
        assert any("layers.1.layers.0" in n for n in names)

    def test_num_parameters_counts_all(self):
        net = Linear(4, 5)  # 4*5 weights + 5 biases
        assert net.num_parameters() == 25

    def test_train_eval_propagates(self):
        net = Sequential(ReLU(), Sequential(ReLU()))
        net.eval()
        assert all(not m.training for m in net.modules())
        net.train()
        assert all(m.training for m in net.modules())

    def test_state_dict_roundtrip(self):
        a = Sequential(Conv2d(1, 2, 3, rng=np.random.default_rng(1)), BatchNorm2d(2))
        b = Sequential(Conv2d(1, 2, 3, rng=np.random.default_rng(2)), BatchNorm2d(2))
        a[1].running_mean[:] = 7.0
        b.load_state_dict(a.state_dict())
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert np.allclose(pa.data, pb.data)
        assert np.allclose(b[1].running_mean, 7.0)

    def test_load_state_dict_rejects_unknown_key(self):
        net = Linear(2, 2)
        with pytest.raises(KeyError):
            net.load_state_dict({"nope": np.zeros(2)})

    def test_load_state_dict_rejects_shape_mismatch(self):
        net = Linear(2, 2)
        state = net.state_dict()
        state["weight"] = np.zeros((3, 3), dtype=np.float32)
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_backward_without_forward_raises(self):
        layer = Linear(2, 2)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 2), dtype=np.float32))

    def test_eval_mode_forward_does_not_cache(self):
        layer = Linear(2, 2)
        layer.eval()
        layer(np.zeros((1, 2), dtype=np.float32))
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 2), dtype=np.float32))


class TestGradients:
    def test_linear_gradcheck(self):
        gradcheck_module(Linear(6, 4, rng=np.random.default_rng(1)), (5, 6))

    def test_conv_gradcheck(self):
        gradcheck_module(
            Conv2d(2, 3, 3, padding=1, bias=True, rng=np.random.default_rng(2)), (2, 2, 5, 5)
        )

    def test_batchnorm_gradcheck(self):
        gradcheck_module(BatchNorm2d(3), (4, 3, 4, 4))

    def test_sequential_chain_gradcheck(self):
        net = Sequential(
            Conv2d(2, 4, 3, padding=1, rng=np.random.default_rng(3)),
            BatchNorm2d(4),
            ReLU(),
            Flatten(),
            Linear(4 * 4 * 4, 3, rng=np.random.default_rng(4)),
        )
        gradcheck_module(net, (3, 2, 4, 4))


class TestConvCache:
    """What a ``Conv2d`` holds from forward to backward."""

    @staticmethod
    def held_bytes(cache) -> int:
        if isinstance(cache, np.ndarray):
            return cache.nbytes
        if isinstance(cache, tuple):
            return sum(TestConvCache.held_bytes(item) for item in cache)
        return 0

    @pytest.mark.parametrize("kernel,stride,pad", [(3, 1, 1), (3, 2, 1), (1, 1, 0), (1, 2, 0)])
    def test_at_most_the_padded_input_and_its_operator(self, kernel, stride, pad):
        n, c, h, w, c_out = 64, 6, 8, 8, 12
        conv = Conv2d(c, c_out, kernel, stride=stride, padding=pad).train()
        conv(np.random.default_rng(0).normal(size=(n, c, h, w)).astype(np.float32))
        ow = (w + 2 * pad - kernel) // stride + 1
        padded_input = n * c * (h + 2 * pad) * (w + 2 * pad)
        operator = (c_out * ow) * (kernel * c * w)
        assert self.held_bytes(conv._cache) <= 4 * (padded_input + operator)
        conv.backward(np.ones((n, c_out, (h + 2 * pad - kernel) // stride + 1, ow), np.float32))
        assert conv._cache is None


class TestBatchNorm:
    def test_train_normalizes_batch(self):
        rng = np.random.default_rng(8)
        bn = BatchNorm2d(3)
        x = rng.normal(5.0, 2.0, size=(16, 3, 4, 4)).astype(np.float32)
        out = bn(x)
        assert abs(out.mean()) < 1e-5
        assert out.std() == pytest.approx(1.0, abs=1e-2)

    def test_running_stats_updated_in_train_only(self):
        rng = np.random.default_rng(9)
        bn = BatchNorm2d(2)
        x = rng.normal(3.0, 1.0, size=(8, 2, 2, 2)).astype(np.float32)
        bn.eval()
        bn(x)
        assert np.allclose(bn.running_mean, 0.0)
        bn.train()
        bn(x)
        assert not np.allclose(bn.running_mean, 0.0)

    def test_eval_uses_running_stats(self):
        bn = BatchNorm2d(1)
        bn.running_mean[:] = 2.0
        bn.running_var[:] = 4.0
        bn.eval()
        x = np.full((1, 1, 1, 1), 4.0, dtype=np.float32)
        out = bn(x)
        assert out[0, 0, 0, 0] == pytest.approx((4.0 - 2.0) / 2.0, abs=1e-3)


def _oracle_batchnorm(x, g, gamma, beta, running_mean, running_var, eps, momentum):
    """Train-mode batchnorm as the seed wrote it: reductions over axes (0, 2, 3)."""
    mean = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
    out = gamma[None, :, None, None] * x_hat + beta[None, :, None, None]
    m = x.shape[0] * x.shape[2] * x.shape[3]
    grad_xhat = g * gamma[None, :, None, None]
    sum_g = grad_xhat.sum(axis=(0, 2, 3), keepdims=True)
    sum_gx = (grad_xhat * x_hat).sum(axis=(0, 2, 3), keepdims=True)
    return {
        "out": out,
        "grad_x": (grad_xhat - sum_g / m - x_hat * sum_gx / m) * inv_std[None, :, None, None],
        "grad_gamma": (g * x_hat).sum(axis=(0, 2, 3)),
        "grad_beta": g.sum(axis=(0, 2, 3)),
        "running_mean": (1 - momentum) * running_mean + momentum * mean,
        "running_var": (1 - momentum) * running_var + momentum * var,
    }


class TestBatchNormRowwise:
    """The row-wise ``(C, N*H*W)`` batchnorm against the ``(0, 2, 3)`` formulas."""

    @pytest.mark.parametrize(
        "shape",
        [(64, 6, 8, 8), (32, 6, 8, 8), (3, 5, 2, 3), (1, 4, 1, 1), (16, 24, 1, 1)],
        ids=["batch", "tail-batch", "odd", "single-value", "1x1"],
    )
    @pytest.mark.parametrize("memory", ["nchw", "batch_innermost"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_train_step_matches_oracle(self, shape, memory, dtype):
        rng = np.random.default_rng(shape)
        c = shape[1]
        x = rng.normal(1.5, 2.0, size=shape).astype(dtype)
        g = rng.normal(size=shape).astype(dtype)
        bn = BatchNorm2d(c)
        bn.weight.data[:] = rng.normal(1.0, 0.5, c)
        bn.bias.data[:] = rng.normal(0.0, 0.5, c)
        bn.running_mean[:] = rng.normal(0.0, 0.5, c)
        bn.running_var[:] = rng.uniform(0.5, 2.0, c)
        want = _oracle_batchnorm(
            x.astype(np.float64), g.astype(np.float64),
            bn.weight.data.astype(np.float64), bn.bias.data.astype(np.float64),
            bn.running_mean.astype(np.float64), bn.running_var.astype(np.float64),
            bn.eps, bn.momentum,
        )

        def fmt(a):
            if memory == "nchw":
                return a
            return np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)

        out = bn(fmt(x))
        grad_x = bn.backward(fmt(g))
        tol = dict(rtol=1e-4, atol=1e-5) if dtype is np.float32 else dict(rtol=1e-6, atol=1e-7)
        assert out.shape == shape and grad_x.shape == shape
        assert out.dtype == dtype and grad_x.dtype == dtype
        np.testing.assert_allclose(out, want["out"], **tol)
        np.testing.assert_allclose(grad_x, want["grad_x"], **tol)
        np.testing.assert_allclose(bn.weight.grad, want["grad_gamma"], rtol=1e-4, atol=1e-4)
        np.testing.assert_allclose(bn.bias.grad, want["grad_beta"], rtol=1e-4, atol=1e-4)
        np.testing.assert_allclose(bn.running_mean, want["running_mean"], rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(bn.running_var, want["running_var"], rtol=1e-5, atol=1e-6)
        assert bn.running_mean.dtype == np.float32 and bn.running_var.dtype == np.float32

    def test_single_value_batch_has_zero_variance(self):
        """N*H*W == 1: var is 0, x_hat is 0, the output is beta and no gradient flows."""
        bn = BatchNorm2d(3)
        bn.bias.data[:] = [0.5, -1.0, 2.0]
        x = np.array([3.0, -4.0, 7.0], dtype=np.float32).reshape(1, 3, 1, 1)
        out = bn(x)
        np.testing.assert_array_equal(out.ravel(), bn.bias.data)
        np.testing.assert_allclose(bn.running_var, 0.9)
        grad = bn.backward(np.ones_like(x))
        np.testing.assert_array_equal(grad, np.zeros_like(x))
        np.testing.assert_array_equal(bn.weight.grad, np.zeros(3, dtype=np.float32))

    def test_input_is_not_modified(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 2, 3, 3)).astype(np.float32)
        g = rng.normal(size=(4, 2, 3, 3)).astype(np.float32)
        x0, g0 = x.copy(), g.copy()
        bn = BatchNorm2d(2)
        bn(x)
        bn.backward(g)
        np.testing.assert_array_equal(x, x0)
        np.testing.assert_array_equal(g, g0)


class TestShapes:
    @pytest.mark.parametrize(
        "layer,in_shape,out_shape",
        [
            (Conv2d(3, 8, 3, padding=1), (2, 3, 8, 8), (2, 8, 8, 8)),
            (Conv2d(3, 8, 3, stride=2, padding=1), (2, 3, 8, 8), (2, 8, 4, 4)),
            (MaxPool2d(2), (2, 3, 8, 8), (2, 3, 4, 4)),
            (AvgPool2d(2), (2, 3, 8, 8), (2, 3, 4, 4)),
            (GlobalAvgPool2d(), (2, 3, 8, 8), (2, 3)),
            (Flatten(), (2, 3, 4, 4), (2, 48)),
            (Identity(), (2, 5), (2, 5)),
        ],
    )
    def test_forward_shapes(self, layer, in_shape, out_shape):
        x = np.zeros(in_shape, dtype=np.float32)
        assert layer(x).shape == out_shape

    @pytest.mark.parametrize(
        "layer,in_shape",
        [
            (MaxPool2d(2), (2, 3, 8, 8)),
            (AvgPool2d(2), (2, 3, 8, 8)),
            (GlobalAvgPool2d(), (2, 3, 8, 8)),
            (Flatten(), (2, 3, 4, 4)),
        ],
    )
    def test_backward_restores_input_shape(self, layer, in_shape):
        x = np.random.default_rng(0).normal(size=in_shape).astype(np.float32)
        layer.train()
        out = layer(x)
        grad = layer.backward(np.ones_like(out))
        assert grad.shape == in_shape


class TestLoss:
    def test_uniform_logits_loss_is_log_k(self):
        crit = CrossEntropyLoss()
        logits = np.zeros((4, 10), dtype=np.float32)
        y = np.arange(4) % 10
        assert crit(logits, y) == pytest.approx(np.log(10), rel=1e-5)

    def test_perfect_prediction_loss_near_zero(self):
        crit = CrossEntropyLoss()
        logits = np.full((2, 3), -50.0, dtype=np.float32)
        logits[0, 1] = 50.0
        logits[1, 2] = 50.0
        assert crit(logits, np.array([1, 2])) < 1e-6

    def test_backward_gradcheck(self):
        rng = np.random.default_rng(10)
        crit = CrossEntropyLoss()
        logits = rng.normal(size=(3, 5))
        y = np.array([0, 2, 4])
        loss0 = crit(logits, y)
        grad = crit.backward()
        eps = 1e-6
        logits2 = logits.copy()
        logits2[1, 3] += eps
        loss1 = crit(logits2, y)
        assert grad[1, 3] == pytest.approx((loss1 - loss0) / eps, rel=1e-3)

    def test_weighted_loss_reweights(self):
        crit = CrossEntropyLoss()
        logits = np.array([[2.0, 0.0], [0.0, 2.0]], dtype=np.float32)
        y = np.array([0, 0])  # second sample is wrong
        unweighted = crit(logits, y)
        emphasize_wrong = crit(logits, y, weights=np.array([0.1, 10.0]))
        assert emphasize_wrong > unweighted

    def test_weighted_gradient_sums_like_weighted_mean(self):
        rng = np.random.default_rng(11)
        crit = CrossEntropyLoss()
        logits = rng.normal(size=(4, 3))
        y = np.array([0, 1, 2, 0])
        w = np.array([1.0, 2.0, 3.0, 4.0])
        loss0 = crit(logits, y, weights=w)
        grad = crit.backward()
        eps = 1e-6
        l2 = logits.copy()
        l2[2, 1] += eps
        loss1 = crit(l2, y, weights=w)
        assert grad[2, 1] == pytest.approx((loss1 - loss0) / eps, rel=1e-3)

    def test_zero_weight_batch_is_zero_loss_zero_grad_and_counted(self):
        # a batch of only zero-weight medoids once gave 0/0 = NaN
        registry = obs.MetricsRegistry()
        previous = obs.set_metrics(registry)
        try:
            crit = CrossEntropyLoss()
            logits = np.random.default_rng(14).normal(size=(4, 3))
            loss = crit(logits, np.array([0, 1, 2, 0]), weights=np.zeros(4))
            grad = crit.backward()
        finally:
            obs.set_metrics(previous)
        assert loss == 0.0
        assert grad.shape == (4, 3) and not grad.any()
        assert registry.snapshot()["counters"]["nn.loss.zero_weight_batches"] == 1

    def test_zero_weight_batch_leaves_the_model_finite(self):
        from repro.nn.optim import SGD

        net = Linear(3, 2)
        opt = SGD(net.parameters(), lr=0.1)
        crit = CrossEntropyLoss()
        x = np.random.default_rng(15).normal(size=(5, 3)).astype(np.float32)
        for weights in (np.zeros(5), np.ones(5)):
            opt.zero_grad()
            crit(net(x), np.array([0, 1, 0, 1, 0]), weights=weights)
            net.backward(crit.backward())
            opt.step()
        assert all(np.isfinite(p.data).all() for p in net.parameters())
        assert np.isfinite(crit(net(x), np.zeros(5, dtype=np.int64)))

    def test_per_sample_losses_match_mean(self):
        rng = np.random.default_rng(12)
        logits = rng.normal(size=(6, 4))
        y = rng.integers(0, 4, size=6)
        per = CrossEntropyLoss.per_sample_losses(logits, y)
        crit = CrossEntropyLoss()
        assert crit(logits, y) == pytest.approx(per.mean(), rel=1e-6)

    def test_last_layer_gradients_rows_sum_to_zero(self):
        rng = np.random.default_rng(13)
        logits = rng.normal(size=(5, 7))
        y = rng.integers(0, 7, size=5)
        g = CrossEntropyLoss.last_layer_gradients(logits, y)
        assert np.allclose(g.sum(axis=1), 0.0, atol=1e-6)

    def test_mismatched_batch_raises(self):
        crit = CrossEntropyLoss()
        with pytest.raises(ValueError):
            crit(np.zeros((3, 2), dtype=np.float32), np.zeros(4, dtype=np.int64))
