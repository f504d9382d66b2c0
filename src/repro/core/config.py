"""Configuration objects for NeSSA experiments.

:class:`TrainRecipe` is the optimization recipe of paper Section 4.1 —
200 epochs, batch 128, LR 0.1 divided by 5 at 60/120/160, weight decay
5e-4, Nesterov momentum 0.9 — with a :meth:`TrainRecipe.scaled` helper
that shrinks the epoch budget proportionally (milestones included) for
laptop-scale runs.

:class:`NeSSAConfig` collects every NeSSA-specific knob with the paper's
values as defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = ["TrainRecipe", "NeSSAConfig"]

@dataclass(frozen=True)
class TrainRecipe:
    """The paper's training recipe (Section 4.1)."""

    epochs: int = 200
    batch_size: int = 128
    lr: float = 0.1
    lr_milestones: tuple = (60, 120, 160)
    lr_gamma_div: float = 5.0
    momentum: float = 0.9
    weight_decay: float = 5e-4
    nesterov: bool = True
    clip_grad_norm: float | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.clip_grad_norm is not None and self.clip_grad_norm <= 0:
            raise ValueError("clip_grad_norm must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if any(m >= self.epochs for m in self.lr_milestones):
            raise ValueError("lr milestones must fall inside the epoch budget")

    def scaled(self, epochs: int) -> "TrainRecipe":
        """Same recipe compressed to ``epochs``, milestones scaled in place."""
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        ratio = epochs / self.epochs
        milestones = tuple(
            sorted({max(1, int(round(m * ratio))) for m in self.lr_milestones})
        )
        milestones = tuple(m for m in milestones if m < epochs)
        return replace(self, epochs=epochs, lr_milestones=milestones)


@dataclass(frozen=True)
class NeSSAConfig:
    """All NeSSA-specific knobs, defaulting to the paper's choices.

    Attributes
    ----------
    subset_fraction : fraction of the candidate pool to select each round.
    refresh_period : rounds between quantized forward passes of each of
        the selector's cached penultimate embeddings; each round forwards
        the ``1/refresh_period`` slice of ids that is due and scores every
        row with the current quantized head.  Default 5, the §3.2.2 loss
        window; 1 forwards every candidate every round.
        :meth:`repro.pipeline.system.SystemModel.nessa_epoch` prices the
        same period.
    use_biasing : subset biasing (§3.2.2).
    biasing_window / biasing_drop_period / biasing_drop_quantile : the
        5-epoch loss window and 20-epoch conservative drop period.
    use_partitioning : dataset partitioning (§3.2.3); the trainer selects
        *m* = the mini-batch size per chunk, the paper's convention.
    """

    subset_fraction: float = 0.3
    refresh_period: int = 5

    use_biasing: bool = True
    biasing_window: int = 5
    biasing_drop_period: int = 20
    biasing_drop_quantile: float = 0.3

    use_partitioning: bool = True

    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.subset_fraction <= 1.0:
            raise ValueError("subset_fraction must be in (0, 1]")
        if self.refresh_period < 1:
            raise ValueError("refresh_period must be >= 1")

    def vanilla(self) -> "NeSSAConfig":
        """NeSSA without SB and PA — Table 3's 'Vanilla' column."""
        return replace(self, use_biasing=False, use_partitioning=False)

    def with_only_biasing(self) -> "NeSSAConfig":
        """Table 3's 'SB' column."""
        return replace(self, use_biasing=True, use_partitioning=False)

    def with_only_partitioning(self) -> "NeSSAConfig":
        """Table 3's 'PA' column."""
        return replace(self, use_biasing=False, use_partitioning=True)
