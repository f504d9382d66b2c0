"""Tests for SGD and the paper's LR schedule."""

import tracemalloc

import numpy as np
import pytest

from repro.nn.modules import Parameter
from repro.nn.optim import SGD, MultiStepLR
from repro.nn.resnet import resnet20


def make_param(value=1.0, grad=1.0):
    p = Parameter(np.array([value], dtype=np.float32))
    p.grad[:] = grad
    return p


class TestSGD:
    def test_plain_sgd_step(self):
        p = make_param(1.0, grad=0.5)
        opt = SGD([p], lr=0.1, momentum=0.0, weight_decay=0.0, nesterov=False)
        opt.step()
        assert p.data[0] == pytest.approx(1.0 - 0.1 * 0.5)

    def test_weight_decay_pulls_toward_zero(self):
        p = make_param(2.0, grad=0.0)
        opt = SGD([p], lr=0.1, momentum=0.0, weight_decay=0.1, nesterov=False)
        opt.step()
        assert p.data[0] == pytest.approx(2.0 - 0.1 * 0.1 * 2.0)

    def test_momentum_accumulates(self):
        p = make_param(0.0, grad=1.0)
        opt = SGD([p], lr=1.0, momentum=0.9, weight_decay=0.0, nesterov=False)
        opt.step()  # v=1, update 1
        p.grad[:] = 1.0
        opt.step()  # v=1.9, update 1.9
        assert p.data[0] == pytest.approx(-(1.0 + 1.9))

    def test_nesterov_update_differs_from_heavy_ball(self):
        p1, p2 = make_param(), make_param()
        plain = SGD([p1], lr=0.1, momentum=0.9, weight_decay=0.0, nesterov=False)
        nest = SGD([p2], lr=0.1, momentum=0.9, weight_decay=0.0, nesterov=True)
        for opt, p in ((plain, p1), (nest, p2)):
            p.grad[:] = 1.0
            opt.step()
            p.grad[:] = 1.0
            opt.step()
        assert p1.data[0] != pytest.approx(p2.data[0])

    def test_matches_paper_recipe_defaults(self):
        p = make_param()
        opt = SGD([p])
        assert opt.lr == 0.1
        assert opt.momentum == 0.9
        assert opt.weight_decay == 5e-4
        assert opt.nesterov

    def test_zero_grad_clears(self):
        p = make_param(grad=3.0)
        opt = SGD([p])
        opt.zero_grad()
        assert np.allclose(p.grad, 0.0)

    def test_rejects_empty_params(self):
        with pytest.raises(ValueError):
            SGD([])

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            SGD([make_param()], lr=0.0)

    def test_rejects_nesterov_without_momentum(self):
        with pytest.raises(ValueError):
            SGD([make_param()], momentum=0.0, nesterov=True)

    def test_quadratic_convergence(self):
        """Minimize (x-3)^2: SGD with momentum should converge."""
        p = Parameter(np.array([0.0], dtype=np.float32))
        opt = SGD([p], lr=0.05, momentum=0.9, weight_decay=0.0, nesterov=True)
        for _ in range(200):
            p.zero_grad()
            p.grad[:] = 2.0 * (p.data - 3.0)
            opt.step()
        assert p.data[0] == pytest.approx(3.0, abs=1e-3)


def reference_step(params, velocities, lr, momentum, weight_decay, nesterov, clip):
    """The SGD rule applied tensor by tensor, in the same float32 operations."""
    scale = 1.0
    if clip is not None:
        flat = np.concatenate([p.grad.ravel() for p in params])
        total = float(np.sqrt(np.dot(flat, flat)))
        if total > clip:
            scale = clip / total
    for p, v in zip(params, velocities):
        g = p.grad * scale if scale != 1.0 else p.grad
        e = p.data * weight_decay
        e += g
        if momentum:
            v *= momentum
            v += e
            if nesterov:
                p.data -= e * lr
                p.data -= v * (lr * momentum)
            else:
                p.data -= v * lr
        else:
            p.data -= e * lr


class TestFlatStore:
    SHAPES = [(4, 3, 3, 3), (4,), (7, 5), (1,), (6, 4, 1, 1)]

    @pytest.mark.parametrize("momentum,nesterov", [(0.9, True), (0.9, False), (0.0, False)])
    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    @pytest.mark.parametrize("clip", [None, 0.5, 1e4])
    def test_update_equals_a_per_tensor_reference(self, momentum, nesterov, weight_decay, clip):
        rng = np.random.default_rng(7)
        flat = [Parameter(rng.normal(size=s)) for s in self.SHAPES]
        ref = [Parameter(p.data.copy()) for p in flat]
        velocities = [np.zeros_like(p.data) for p in ref]
        opt = SGD(flat, lr=0.05, momentum=momentum, weight_decay=weight_decay,
                  nesterov=nesterov, clip_grad_norm=clip)
        for _ in range(5):
            opt.zero_grad()
            for p, r in zip(flat, ref):
                p.grad[...] = rng.normal(size=p.shape)
                r.grad = p.grad.copy()
            opt.step()
            reference_step(ref, velocities, 0.05, momentum, weight_decay, nesterov, clip)
            for p, r in zip(flat, ref):
                np.testing.assert_array_equal(p.data, r.data)

    def test_preset_data_and_grad_enter_the_store(self):
        p = make_param(2.0, grad=0.5)
        q = Parameter(np.arange(6, dtype=np.float32).reshape(2, 3))
        opt = SGD([p, q])
        assert p.data[0] == 2.0 and p.grad[0] == 0.5
        np.testing.assert_array_equal(q.data, np.arange(6).reshape(2, 3))
        assert q.data.shape == (2, 3)
        for param in (p, q):
            assert np.shares_memory(param.data, opt._data)
            assert np.shares_memory(param.grad, opt._grad)

    @pytest.mark.parametrize("field", ["data", "grad"])
    def test_rebinding_a_parameter_raises_at_step(self, field):
        p, q = make_param(), make_param()
        opt = SGD([p, q])
        opt.step()
        setattr(q, field, getattr(q, field).copy())
        with pytest.raises(RuntimeError, match="rebound"):
            opt.step()

    @pytest.mark.parametrize("clip", [None, 1e-3])
    def test_step_allocates_no_float64_store(self, clip):
        """A step's temporaries stay under two float32 stores: no float64 copy of it."""
        model = resnet20(10, width=6, seed=0)
        opt = SGD(model.parameters(), clip_grad_norm=clip)
        rng = np.random.default_rng(0)
        for p in model.parameters():
            p.grad[...] = rng.normal(size=p.shape)
        opt.step()
        store = 4 * model.num_parameters()
        tracemalloc.start()
        try:
            opt.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * store


class TestMultiStepLR:
    def test_paper_schedule_divides_by_five(self):
        """Paper 4.1: LR 0.1 divided by 5 at epochs 60, 120, 160."""
        opt = SGD([make_param()], lr=0.1)
        sched = MultiStepLR(opt, milestones=(60, 120, 160), gamma_div=5.0)
        lrs = {}
        for epoch in range(200):
            sched.step()
            lrs[epoch] = opt.lr
        assert lrs[0] == pytest.approx(0.1)
        assert lrs[59] == pytest.approx(0.1)
        assert lrs[60] == pytest.approx(0.02)
        assert lrs[120] == pytest.approx(0.004)
        assert lrs[160] == pytest.approx(0.0008)
        assert lrs[199] == pytest.approx(0.0008)

    def test_unsorted_milestones_accepted(self):
        opt = SGD([make_param()], lr=0.1)
        sched = MultiStepLR(opt, milestones=(10, 5), gamma_div=2.0)
        for _ in range(6):
            sched.step()
        assert opt.lr == pytest.approx(0.05)

    def test_rejects_nonpositive_gamma(self):
        opt = SGD([make_param()])
        with pytest.raises(ValueError):
            MultiStepLR(opt, (5,), gamma_div=0.0)

    def test_current_lr_reflects_optimizer(self):
        opt = SGD([make_param()], lr=0.1)
        sched = MultiStepLR(opt, (1,), gamma_div=10.0)
        sched.step()
        sched.step()
        assert sched.current_lr == opt.lr == pytest.approx(0.01)
