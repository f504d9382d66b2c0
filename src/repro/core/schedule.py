"""Dynamic subset-size schedule (introduction contribution 4).

*"Dynamically reduce the subset size based on loss reduction rate during
the training process to ensure that we train on the least required data
samples."*

The schedule watches the per-epoch mean training loss.  When the relative
reduction rate ``(prev - cur) / prev`` stays below ``threshold`` for
``patience`` consecutive epochs, the subset fraction is multiplied by
``shrink`` (floored at ``min_fraction``): a model whose loss has plateaued
does not need more data per epoch, it needs more epochs on the hard core.
"""

from __future__ import annotations

__all__ = ["SubsetSizeSchedule"]


class SubsetSizeSchedule:
    """Loss-reduction-rate-driven subset shrinking."""

    def __init__(
        self,
        initial_fraction: float,
        min_fraction: float = 0.1,
        threshold: float = 0.02,
        shrink: float = 0.9,
        patience: int = 2,
        enabled: bool = True,
    ):
        if not 0.0 < initial_fraction <= 1.0:
            raise ValueError("initial_fraction must be in (0, 1]")
        # the floor only matters to a schedule that shrinks
        if enabled and not 0.0 < min_fraction <= initial_fraction:
            raise ValueError("need 0 < min_fraction <= initial_fraction <= 1")
        if not 0.0 < shrink < 1.0:
            raise ValueError("shrink must be in (0, 1)")
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.fraction = initial_fraction
        self.min_fraction = min_fraction
        self.threshold = threshold
        self.shrink = shrink
        self.patience = patience
        self.enabled = enabled
        self._prev_loss: float | None = None
        self._stalled_epochs = 0
        self.shrink_events: list[int] = []
        self._epoch = -1

    def update(self, train_loss: float) -> float:
        """Feed one epoch's mean training loss; returns the new fraction."""
        self._epoch += 1
        if not self.enabled:
            return self.fraction
        if self._prev_loss is not None and self._prev_loss > 0:
            rate = (self._prev_loss - train_loss) / self._prev_loss
            if rate < self.threshold:
                self._stalled_epochs += 1
            else:
                self._stalled_epochs = 0
            if self._stalled_epochs >= self.patience:
                new_fraction = max(self.min_fraction, self.fraction * self.shrink)
                if new_fraction < self.fraction:
                    self.fraction = new_fraction
                    self.shrink_events.append(self._epoch)
                self._stalled_epochs = 0
        self._prev_loss = train_loss
        return self.fraction
