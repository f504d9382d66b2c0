"""Trainers: full-data, generic subset-selection, and the NeSSA loop.

All three run the one epoch loop in :meth:`_BaseTrainer._run_epochs` and
differ only in the phase hooks they fill in.  :class:`NeSSATrainer`
implements the five steps of paper Figure 3:

1. (storage) candidates live on the simulated SmartSSD — the trainer is
   pure ML; byte/time accounting happens in :mod:`repro.pipeline.system`
   from the counters recorded here;
2. run the selection model (quantized replica) and pick the subset;
3. train the target model on the weighted subset;
4. feed back quantized weights + per-sample losses and update the
   candidate pool (subset biasing);
5. repeat for all epochs.

:class:`SubsetTrainer` fills the select phase for the CPU baselines
(CRAIG, k-centers, random) — selection with the *live* model, no feedback
quantization, no biasing — so Table 3/Figure 4 comparisons are
apples-to-apples.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro import obs
from repro.core.config import NeSSAConfig, TrainRecipe
from repro.core.feedback import FeedbackLoop
from repro.core.metrics import EpochRecord, TrainingHistory, evaluate_accuracy
from repro.core.selector import NeSSASelector
from repro.data.dataset import Dataset, Subset
from repro.data.loader import DataLoader
from repro.nn.loss import CrossEntropyLoss
from repro.nn.modules import Module
from repro.nn.optim import SGD, MultiStepLR
from repro.selection.craig import SelectionResult

__all__ = ["FullTrainer", "SubsetTrainer", "NeSSATrainer"]


class _BaseTrainer:
    """The epoch loop; the hook defaults are the full-data run.

    Per epoch: ``_before_epoch`` (biasing drop) → ``_select`` → train →
    ``_after_train`` (record losses, feedback sync) →
    eval → one :class:`EpochRecord`.
    """

    name = "full"
    selector = None
    # EpochRecord fields mirrored onto the ``epoch`` span.
    _epoch_attrs: tuple[str, ...] = ("train_loss", "test_accuracy", "samples_trained")

    def __init__(self, model: Module, recipe: TrainRecipe, seed: int = 0):
        self.model = model
        self.recipe = recipe
        self.seed = seed
        self.criterion = CrossEntropyLoss()
        self.optimizer = SGD(
            model.parameters(),
            lr=recipe.lr,
            momentum=recipe.momentum,
            weight_decay=recipe.weight_decay,
            nesterov=recipe.nesterov,
            clip_grad_norm=recipe.clip_grad_norm,
        )
        self.scheduler = MultiStepLR(
            self.optimizer, recipe.lr_milestones, recipe.lr_gamma_div
        )

    def _before_run(self) -> None:
        """Once, before the first epoch."""

    def _before_epoch(self, train_set: Dataset, epoch: int) -> int:
        """Start-of-epoch pool maintenance; returns samples dropped."""
        return 0

    def _select(self, train_set: Dataset, epoch: int) -> SelectionResult | None:
        """This epoch's fresh selection, or None to keep the current subset."""
        return None

    def _selection_round(
        self, train_set: Dataset, fraction: float, model, epoch: int
    ) -> SelectionResult:
        """One selection round under the ``selection_round`` span."""
        with obs.span("selection_round", epoch=epoch) as sel:
            result = self.selector.select(train_set, fraction, model)
            sel.set(
                pairwise_bytes=int(result.pairwise_bytes),
                proxy_flops=float(result.proxy_flops),
                selected=len(result.positions),
                fraction=float(fraction),
            )
        return result

    def _after_train(self, epoch: int, per_sample: np.ndarray, ids: np.ndarray) -> int:
        """Post-training feedback; returns bytes shipped to the device."""
        return 0

    def _run_epochs(self, train_set: Dataset, test_set: Dataset) -> TrainingHistory:
        history = TrainingHistory(method=self.name)
        self._before_run()
        subset = train_set
        for epoch in range(self.recipe.epochs):
            epoch_t0 = time.perf_counter()
            with obs.span("epoch", epoch=epoch, method=self.name) as ep:
                dropped = self._before_epoch(train_set, epoch)

                selection_s = 0.0
                select_t0 = time.perf_counter()
                result = self._select(train_set, epoch)
                selected = result is not None
                if selected:
                    selection_s = time.perf_counter() - select_t0
                    weights = result.weights if result.weights.std() > 0 else None
                    subset = Subset(train_set, result.positions, weights=weights)

                loader = DataLoader(
                    subset, self.recipe.batch_size, shuffle=True, seed=self.seed + epoch
                )
                mean_loss, per_sample, ids = self._train_one_epoch(loader)
                feedback_bytes = self._after_train(epoch, per_sample, ids)

                record = EpochRecord(
                    epoch=epoch,
                    train_loss=mean_loss,
                    test_accuracy=evaluate_accuracy(self.model, test_set),
                    subset_size=len(subset),
                    subset_fraction=len(subset) / len(train_set),
                    samples_trained=len(subset),
                    selection_ran=selected,
                    selection_proxy_flops=result.proxy_flops if selected else 0.0,
                    selection_pairwise_bytes=result.pairwise_bytes if selected else 0,
                    feedback_bytes=feedback_bytes,
                    dropped_samples=dropped,
                    lr=self.scheduler.current_lr,
                    selection_time_s=selection_s,
                )
                ep.set(**{attr: getattr(record, attr) for attr in self._epoch_attrs})
            record.wall_time_s = time.perf_counter() - epoch_t0
            history.append(record)
        return history

    def _train_one_epoch(self, loader: DataLoader) -> tuple[float, np.ndarray, np.ndarray]:
        """One pass over the loader.

        Returns ``(mean loss, per-sample losses, aligned sample ids)`` —
        the last two feed NeSSA's subset biasing.
        """
        self.model.train()
        losses, ids = [], []
        total_loss, total_n = 0.0, 0
        for batch in loader:
            logits = self.model(batch.x)
            loss = self.criterion(logits, batch.y, weights=batch.weights)
            self.optimizer.zero_grad()
            grad = self.criterion.backward()
            self.model.backward(grad)
            self.optimizer.step()

            per_sample = CrossEntropyLoss.per_sample_losses(logits, batch.y)
            losses.append(per_sample)
            ids.append(batch.ids)
            total_loss += float(per_sample.mean()) * len(batch)
            total_n += len(batch)
        self.scheduler.step()
        mean_loss = total_loss / max(1, total_n)
        return mean_loss, np.concatenate(losses), np.concatenate(ids)


class FullTrainer(_BaseTrainer):
    """Train on the entire dataset every epoch — the paper's 'Goal' column."""

    def train(self, train_set: Dataset, test_set: Dataset) -> TrainingHistory:
        return self._run_epochs(train_set, test_set)


class SubsetTrainer(_BaseTrainer):
    """Outer loop for CPU-side baselines (CRAIG / k-centers / random).

    ``selector`` is any object with
    ``select(dataset, fraction, model) -> SelectionResult``; selection runs
    with the live target model (these baselines have no quantized replica).
    """

    _epoch_attrs = ("train_loss", "test_accuracy", "subset_size", "subset_fraction")

    def __init__(
        self,
        model: Module,
        recipe: TrainRecipe,
        selector,
        subset_fraction: float,
        select_every: int = 1,
        seed: int = 0,
    ):
        super().__init__(model, recipe, seed)
        if not 0.0 < subset_fraction <= 1.0:
            raise ValueError("subset_fraction must be in (0, 1]")
        self.selector = selector
        self.subset_fraction = subset_fraction
        self.select_every = max(1, select_every)
        self.name = getattr(selector, "name", "subset")

    def train(self, train_set: Dataset, test_set: Dataset) -> TrainingHistory:
        return self._run_epochs(train_set, test_set)

    def _select(self, train_set, epoch):
        if epoch % self.select_every:
            return None
        return self._selection_round(train_set, self.subset_fraction, self.model, epoch)


class NeSSATrainer(_BaseTrainer):
    """The full NeSSA loop: near-storage selection + feedback + biasing.

    ``model_factory`` builds the FPGA-side replica architecture (same as
    the target model's).
    """

    name = "nessa"
    _epoch_attrs = SubsetTrainer._epoch_attrs + ("dropped_samples",)

    def __init__(
        self,
        model: Module,
        recipe: TrainRecipe,
        config: NeSSAConfig,
        model_factory: Callable[[], Module],
    ):
        super().__init__(model, recipe, seed=config.seed)
        self.config = config
        self.selector = NeSSASelector(config, chunk_select=recipe.batch_size)
        self.feedback = FeedbackLoop(
            model_factory, bits=config.feedback_bits, enabled=config.use_feedback
        )

    def train(self, train_set: Dataset, test_set: Dataset) -> TrainingHistory:
        return self._run_epochs(train_set, test_set)

    def _before_run(self):
        # Initial feedback sync: the FPGA starts from the initial weights.
        # Recorded as run setup, not as a `feedback_quantize` link span —
        # no EpochRecord carries it, and `repro.cli report` reconciles
        # link bytes against the per-epoch ledger exactly.
        with obs.span("run_setup", method=self.name) as setup:
            setup.set(feedback_sync_bytes=int(self.feedback.sync(self.model)))

    def _before_epoch(self, train_set, epoch):
        return self.selector.maybe_drop_learned(train_set, epoch)

    def _select(self, train_set, epoch):
        if epoch % self.config.select_every:
            return None
        return self._selection_round(
            train_set, self.config.subset_fraction, self.feedback.selection_model, epoch
        )

    def _after_train(self, epoch, per_sample, ids):
        self.selector.record_epoch_losses(ids, per_sample)
        # Step 4 of Figure 3: quantize + ship the updated weights back.
        with obs.span("feedback_quantize", epoch=epoch) as fb:
            feedback_bytes = self.feedback.sync(self.model)
            fb.set(link_bytes=int(feedback_bytes), bits=self.feedback.bits)
        return feedback_bytes
