"""Optimizers and LR schedules matching the paper's training recipe.

Section 4.1: SGD with Nesterov momentum 0.9, weight decay 5e-4, initial
learning rate 0.1 divided by 5 at epochs 60/120/160 over 200 epochs.
:class:`MultiStepLR` expresses exactly that schedule; experiment configs
scale the milestones when running shortened trainings.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.nn.modules import Parameter

__all__ = ["SGD", "MultiStepLR"]


class SGD:
    """SGD with (optionally Nesterov) momentum and decoupled-from-loss weight decay."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 0.1,
        momentum: float = 0.9,
        weight_decay: float = 5e-4,
        nesterov: bool = True,
        clip_grad_norm: float | None = None,
    ):
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"invalid learning rate: {lr}")
        if momentum < 0:
            raise ValueError(f"invalid momentum: {momentum}")
        if nesterov and momentum == 0:
            raise ValueError("Nesterov momentum requires momentum > 0")
        if clip_grad_norm is not None and clip_grad_norm <= 0:
            raise ValueError("clip_grad_norm must be positive")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.nesterov = nesterov
        self.clip_grad_norm = clip_grad_norm
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def _clip_scale(self) -> float:
        """Global-norm gradient clipping factor (1.0 when under the cap)."""
        if self.clip_grad_norm is None:
            return 1.0
        total = np.sqrt(sum(float((p.grad**2).sum()) for p in self.params))
        if total <= self.clip_grad_norm or total == 0.0:
            return 1.0
        return self.clip_grad_norm / total

    def step(self) -> None:
        """Apply one update from the gradients accumulated in ``param.grad``."""
        scale = self._clip_scale()
        for p, v in zip(self.params, self._velocity):
            grad = p.grad * scale if scale != 1.0 else p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                v *= self.momentum
                v += grad
                update = grad + self.momentum * v if self.nesterov else v
            else:
                update = grad
            p.data -= self.lr * update

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


class MultiStepLR:
    """Divide the LR by ``gamma_div`` at each milestone epoch (paper: /5 at 60/120/160)."""

    def __init__(
        self,
        optimizer: SGD,
        milestones: Iterable[int],
        gamma_div: float = 5.0,
    ):
        if gamma_div <= 0:
            raise ValueError("gamma_div must be positive")
        self.optimizer = optimizer
        self.milestones = sorted(milestones)
        self.gamma_div = gamma_div
        self.base_lr = optimizer.lr
        self.last_epoch = -1

    def step(self) -> None:
        """Advance one epoch and update the optimizer's LR."""
        self.last_epoch += 1
        passed = sum(1 for m in self.milestones if self.last_epoch >= m)
        self.optimizer.lr = self.base_lr / (self.gamma_div**passed)

    @property
    def current_lr(self) -> float:
        return self.optimizer.lr
