"""The NeSSA selector: CRAIG facility location + the §3.2 optimizations.

One :meth:`NeSSASelector.select` call is what the paper's FPGA kernel does
at the start of an epoch (system step 2 in Figure 3), and the algorithm
:meth:`repro.pipeline.system.SystemModel.nessa_epoch` prices:

1. score every candidate with the quantized feedback model (§3.1 /
   §3.2.1).  CRAIG's proxy ``softmax(z) - onehot(y)`` depends on a sample
   only through its penultimate embedding, so the selector keeps the
   embeddings as a float32 ``(num_ids x d)`` array whose row is the
   sample id.  Each round re-forwards, through the quantized replica, the
   ``1/refresh_period`` slice of ids that is due (``id % refresh_period ==
   round % refresh_period``), so each row is re-forwarded once every
   ``refresh_period`` rounds; then it applies the replica's *current*
   quantized ``fc`` head to every candidate's row.  The array is the only
   state kept between rounds: the proxies live only for the round that
   computed them;
2. restrict candidates to samples not yet "learned" (subset biasing,
   §3.2.2 — the :class:`~repro.selection.biasing.LossHistory` is fed by
   the trainer);
3. flatten the per-class facility-location work into independent
   (class x chunk) units (:mod:`repro.parallel.scheduler`) and run them
   in order on the :class:`~repro.parallel.engine.SelectionExecutor`.
   Chunk permutations are keyed, not drawn from a shared stream, so a
   unit's picks never depend on the units run before it;
4. return medoid positions + CRAIG weights, plus the accounting the
   storage model consumes (proxy FLOPs, largest fp32 similarity tile).
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.core.config import NeSSAConfig
from repro.data.dataset import Dataset
from repro.nn.inference import InferencePlan
from repro.nn.resnet import ResNet
from repro.parallel.engine import SelectionExecutor
from repro.parallel.scheduler import plan_selection_round
from repro.selection.biasing import LossHistory
from repro.selection.craig import SelectionResult
from repro.selection.gradients import GradientProxy, forward_flops, proxies_from_logits
from repro.selection.partition import subset_budget

__all__ = ["NeSSASelector"]


class NeSSASelector:
    """Near-storage subset selector (the FPGA-side algorithm).

    Parameters
    ----------
    config : the NeSSA knobs; :class:`~repro.core.config.NeSSAConfig`.
    chunk_select : per-chunk selection count *m* for partitioning; the
        trainer passes the mini-batch size per the paper's convention.
    """

    name = "nessa"

    def __init__(self, config: NeSSAConfig, chunk_select: int | None = None):
        self.config = config
        self.chunk_select = chunk_select
        self.executor = SelectionExecutor()
        self._round = 0
        # Per-sample state, row = sample id, sized by the first dataset seen.
        self.loss_history: LossHistory | None = None
        self._known = self._emb = None  # rows ever forwarded; their last embeddings

    def _size(self, dataset: Dataset) -> None:
        """Allocate the per-sample arrays for the first root; refuse another root."""
        if self.loss_history is None:
            c = self.config
            self.loss_history = LossHistory(
                dataset.num_ids, c.biasing_window, c.biasing_drop_period,
                c.biasing_drop_quantile, min_history=min(3, c.biasing_window),
            )
            self._known = np.zeros(dataset.num_ids, dtype=bool)
        elif dataset.num_ids != len(self._known):
            raise ValueError("one selector serves one root dataset")

    def record_epoch_losses(self, ids: np.ndarray, losses: np.ndarray) -> None:
        """Trainer feedback: per-sample losses of the samples just trained."""
        if self.config.use_biasing:
            if self.loss_history is None:
                raise RuntimeError("record_epoch_losses before the selector saw a dataset")
            self.loss_history.record(ids, losses)

    def maybe_drop_learned(self, dataset: Dataset, epoch: int) -> int:
        """Apply the §3.2.2 drop policy if the epoch calls for it.

        Returns the number of samples dropped this call.
        """
        self._size(dataset)
        if not self.config.use_biasing or not self.loss_history.should_drop_now(epoch):
            return 0
        candidates = dataset.ids[~self.loss_history.dropped[dataset.ids]]
        # Never drop below what one subset needs: keep the pool at least
        # twice the current subset so selection still has choices.  When
        # that floor binds, the best-learned (lowest-loss) samples go first.
        min_pool = max(
            2 * subset_budget(self.config.subset_fraction, len(dataset)),
            dataset.num_classes,
        )
        marked = self.loss_history.mark_learned(
            candidates, limit=max(0, len(candidates) - min_pool)
        )
        self.loss_history.drop(marked)
        return len(marked)

    def snapshot_candidates(self, dataset: Dataset) -> np.ndarray:
        """Candidate positions under the *current* biasing state.

        :meth:`select` takes its pool from here at the start of every
        round: every position whose sample the loss history has not yet
        dropped as learned (all positions when biasing is off, or when
        every sample was dropped).
        """
        self._size(dataset)
        keep = np.flatnonzero(~self.loss_history.dropped[dataset.ids])
        return keep if len(keep) else np.arange(len(dataset), dtype=np.int64)

    def select(self, dataset: Dataset, fraction: float, model) -> SelectionResult:
        """One selection round over ``dataset`` at the given fraction.

        ``model`` must be the quantized feedback replica when feedback is
        on (the trainer guarantees this); passing the live model emulates
        a hypothetical unquantized FPGA.  Either way it must be a
        :class:`~repro.nn.resnet.ResNet` (or wrap one): the embedding
        array is its penultimate layer.  The candidate pool is
        :meth:`snapshot_candidates` at the time of the call.  The arrays
        are indexed by sample id, so one selector serves one root dataset.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        replica = getattr(model, "model", model)
        if not isinstance(replica, ResNet):
            raise TypeError(f"NeSSA scores ResNet embeddings, got {type(replica).__name__}")

        candidates = self.snapshot_candidates(dataset)
        proxy = self._proxies(dataset, candidates, replica)

        k_total = subset_budget(fraction, len(dataset), pool=len(candidates))
        labels = dataset.y[candidates]

        chunk_select = None
        if self.config.use_partitioning:
            chunk_select = self.chunk_select or 128
        units = plan_selection_round(
            labels,
            k_total,
            seed=self.config.seed,
            round_index=self._round,
            chunk_select=chunk_select,
        )
        self._round += 1
        positions, weights, pairwise = self.executor.run_round(
            proxy.vectors, candidates, units
        )
        obs.metrics().counter("selection.units_executed").inc(len(units))
        obs.metrics().counter("selection.rounds").inc()
        return SelectionResult(
            positions=positions,
            weights=weights,
            pairwise_bytes=pairwise,
            proxy_flops=proxy.flops,
        )

    def _proxies(
        self, dataset: Dataset, candidates: np.ndarray, replica: ResNet, batch_size: int = 256
    ) -> GradientProxy:
        """This round's proxies of ``candidates``, with the FLOPs they cost.

        Forwards the candidates whose rows are due -- ids with ``id %
        refresh_period == round % refresh_period`` -- or every candidate
        when one was never forwarded.  Then applies the replica's
        current ``fc`` to all the candidates' rows.  Both passes run in
        batches of ``batch_size`` in candidate order.  Staggering the
        forwards by id, rather than forwarding the whole pool every
        ``refresh_period`` rounds, costs the same but keeps consecutive
        rounds from scoring one frozen set of embeddings and so picking
        nearly the same subset.
        """
        ids = dataset.ids[candidates]
        n = len(candidates)
        if self._emb is None:
            self._emb = np.empty((len(self._known), replica.embedding_dim), dtype=np.float32)
        if self._known[ids].all():
            period = self.config.refresh_period
            due = np.flatnonzero(ids % period == self._round % period)
        else:
            due = np.arange(n)
        self._known[ids[due]] = True
        weight_t, bias = replica.fc.weight.data.T, replica.fc.bias
        flops = (
            forward_flops(replica, dataset.x.shape[1:]) * len(due)
            + 2.0 * weight_t.size * (n - len(due))
        )
        with obs.span("proxy_compute", candidates=int(n)) as sp:
            if len(due):
                plan = InferencePlan(replica, dataset.x.shape[1:])
                for start in range(0, len(due), batch_size):
                    block = due[start : start + batch_size]
                    self._emb[ids[block]] = plan.features(dataset.x[candidates[block]])
            labels = dataset.y[candidates]
            vectors = np.empty((n, weight_t.shape[1]), dtype=np.float64)
            losses = np.empty(n, dtype=np.float64)
            for start in range(0, n, batch_size):
                block = slice(start, start + batch_size)
                logits = self._emb[ids[block]] @ weight_t
                if bias is not None:
                    logits += bias.data
                vectors[block], losses[block] = proxies_from_logits(logits, labels[block])
            sp.set(
                cache_hit=len(due) < n, forwarded=int(len(due)), flops=float(flops),
                engine="fused",
            )
        return GradientProxy(vectors=vectors, losses=losses, flops=flops)
