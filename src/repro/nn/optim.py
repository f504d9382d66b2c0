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
    """SGD with (optionally Nesterov) momentum and decoupled-from-loss weight decay.

    Every parameter, gradient and momentum lives in one contiguous float32
    store.  Construction copies each parameter's current ``data`` and
    ``grad`` into it and rebinds both to views of it, so :meth:`step`, the
    clip norm and :meth:`zero_grad` are a few whole-store float32
    operations, in place.  Write into a parameter (``p.data[...] = x``)
    rather than rebinding it: a rebound ``data`` or ``grad`` would no
    longer be trained, so :meth:`step` raises on one.

    The rule, each operation rounded to float32: when the global norm of
    ``g`` exceeds ``clip_grad_norm``, ``g`` is scaled in place (as torch's
    ``clip_grad_norm_`` does); ``e = weight_decay * w + g``;
    ``v = momentum * v + e``; then ``w -= lr * e`` and
    ``w -= (lr * momentum) * v`` (Nesterov), ``w -= lr * v`` (heavy ball)
    or ``w -= lr * e`` (no momentum).
    """

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

        size = sum(p.size for p in self.params)
        self._data = np.empty(size, dtype=np.float32)
        self._grad = np.empty(size, dtype=np.float32)
        self._velocity = np.zeros(size, dtype=np.float32)
        self._views = []
        start = 0
        for p in self.params:
            stop = start + p.size
            self._data[start:stop] = p.data.ravel()
            self._grad[start:stop] = p.grad.ravel()
            p.data = self._data[start:stop].reshape(p.shape)
            p.grad = self._grad[start:stop].reshape(p.shape)
            self._views.append((p.data, p.grad))
            start = stop

    def _clip_scale(self) -> float:
        """Global-norm gradient clipping factor (1.0 when under the cap)."""
        if self.clip_grad_norm is None:
            return 1.0
        total = float(np.sqrt(np.dot(self._grad, self._grad)))
        if total <= self.clip_grad_norm or total == 0.0:
            return 1.0
        return self.clip_grad_norm / total

    def step(self) -> None:
        """Apply one update from the gradients accumulated in ``param.grad``."""
        for p, (data, grad) in zip(self.params, self._views):
            if p.data is not data or p.grad is not grad:
                raise RuntimeError(
                    f"{p!r} was rebound after SGD took it and would no longer be "
                    "trained; write into p.data / p.grad in place instead"
                )
        data, grad, velocity = self._data, self._grad, self._velocity
        scale = self._clip_scale()
        if scale != 1.0:
            grad *= scale
        update = np.multiply(data, self.weight_decay)
        update += grad
        if self.momentum:
            velocity *= self.momentum
            velocity += update
            if self.nesterov:
                update *= self.lr
                data -= update
                np.multiply(velocity, self.lr * self.momentum, out=update)
            else:
                np.multiply(velocity, self.lr, out=update)
        else:
            update *= self.lr
        data -= update

    def zero_grad(self) -> None:
        self._grad.fill(0.0)


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
