"""Tests for SGD and the paper's LR schedule."""

import numpy as np
import pytest

from repro.nn.modules import Parameter
from repro.nn.optim import SGD, MultiStepLR


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
