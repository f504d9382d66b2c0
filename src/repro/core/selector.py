"""The NeSSA selector: CRAIG facility location + the §3.2 optimizations.

One :meth:`NeSSASelector.select` call is what the paper's FPGA kernel does
at the start of an epoch (system step 2 in Figure 3):

1. score every candidate with the quantized feedback model (forward pass
   → last-layer gradient proxies, §3.1 / §3.2.1) — memoized by the
   :class:`~repro.parallel.cache.ProxyCache` when neither the feedback
   weights nor the candidate pool changed since the last round;
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
from repro.data.dataset import Dataset, Subset
from repro.parallel.cache import ProxyCache
from repro.parallel.engine import SelectionExecutor
from repro.parallel.scheduler import plan_selection_round
from repro.selection.biasing import LossHistory
from repro.selection.craig import SelectionResult
from repro.selection.gradients import compute_gradient_proxies

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
        self.rng = np.random.default_rng(config.seed)
        self.loss_history = LossHistory(
            window=config.biasing_window,
            drop_period=config.biasing_drop_period,
            drop_quantile=config.biasing_drop_quantile,
            min_history=min(3, config.biasing_window),
        )
        self.proxy_cache = (
            ProxyCache(config.proxy_cache_entries)
            if config.proxy_cache_entries > 0
            else None
        )
        self.executor = SelectionExecutor()
        self._round = 0

    def record_epoch_losses(self, ids: np.ndarray, losses: np.ndarray) -> None:
        """Trainer feedback: per-sample losses of the samples just trained."""
        if self.config.use_biasing:
            self.loss_history.record(ids, losses)

    def maybe_drop_learned(self, dataset: Dataset, epoch: int) -> int:
        """Apply the §3.2.2 drop policy if the epoch calls for it.

        Returns the number of samples dropped this call.
        """
        if not self.config.use_biasing or not self.loss_history.should_drop_now(epoch):
            return 0
        candidates = self.loss_history.filter_candidates(dataset.ids)
        marked = self.loss_history.mark_learned(candidates)
        # Never drop below what one subset needs: keep the pool at least
        # twice the current subset so selection still has choices.
        pool_after = len(candidates) - len(marked)
        min_pool = max(
            2 * int(self.config.subset_fraction * len(dataset)),
            dataset.num_classes,
        )
        if pool_after < min_pool:
            keep = max(0, len(candidates) - min_pool)
            marked = marked[:keep]
        self.loss_history.drop(marked)
        return len(marked)

    def snapshot_candidates(self, dataset: Dataset) -> np.ndarray:
        """Candidate positions under the *current* biasing state.

        :meth:`select` takes its pool from here at the start of every
        round: every position whose sample the loss history has not yet
        dropped as learned (all positions when biasing is off).
        """
        if self.config.use_biasing:
            candidate_ids = self.loss_history.filter_candidates(dataset.ids)
            return np.flatnonzero(np.isin(dataset.ids, candidate_ids))
        return np.arange(len(dataset), dtype=np.int64)

    def select(self, dataset: Dataset, fraction: float, model) -> SelectionResult:
        """One selection round over ``dataset`` at the given fraction.

        ``model`` must be the quantized feedback replica when feedback is
        on (the trainer guarantees this); passing the live model emulates
        a hypothetical unquantized FPGA.  The candidate pool is
        :meth:`snapshot_candidates` at the time of the call.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")

        candidates = self.snapshot_candidates(dataset)

        proxy = compute_gradient_proxies(
            model,
            dataset.x[candidates],
            dataset.y[candidates],
            ids=dataset.ids[candidates],
            cache=self.proxy_cache,
        )

        k_total = max(1, int(round(fraction * len(dataset))))
        k_total = min(k_total, len(candidates))
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

    @property
    def proxy_cache_stats(self) -> dict:
        """Hit/miss accounting of the proxy cache (zeros when disabled)."""
        if self.proxy_cache is None:
            return {"hits": 0, "misses": 0, "lookups": 0, "hit_rate": 0.0,
                    "entries": 0}
        return self.proxy_cache.stats

    def subset(self, dataset: Dataset, fraction: float, model) -> Subset:
        """Run :meth:`select` and wrap the result as a weighted Subset."""
        result = self.select(dataset, fraction, model)
        return Subset(dataset, result.positions, weights=result.weights)
