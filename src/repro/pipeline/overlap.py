"""Overlapped selection rounds: hide selection latency behind training.

NeSSA's headline system win is that subset selection runs *near storage,
concurrently* with GPU training (PAPER.md Fig. 3): while the accelerator
trains on round *t*'s subset, the SmartSSD already scores candidates for
round *t+1* using the quantized weights it received after round *t-1* —
selection is off the critical path at the price of one round of feedback
staleness.

:class:`AsyncSelectionRound` reproduces that schedule on the host.
:meth:`launch` snapshots the candidate pool on the caller thread (so the
worker never reads the mutable loss history) and runs
``NeSSASelector.select`` on a daemon thread; :meth:`join` blocks until
the round completes — the trainer calls it *before* touching any state
the worker reads (the quantized feedback replica, the proxy cache) — and
:meth:`consume` hands the finished result to the selection epoch.

Tracing: the selector's spans are thread-local-muted on the worker
(``obs.suppress()``, the tracer's span stack is single-threaded by
design) and the whole round surfaces as one completed ``async_selection``
span forwarded from the training thread at the join point — the same
convention the selection executor uses for per-unit spans.  The
``overlap.efficiency`` gauge records the fraction of each round's
duration that was hidden behind training.

Strict mode (``overlap`` off): :meth:`launch` becomes a no-op and
:meth:`consume` runs the round synchronously under the one
``selection_round`` span — the trainers' epoch loop makes the same calls
either way, so the serial run *is* this schedule with a synchronous
round.
"""

from __future__ import annotations

import threading
import time

from repro import obs
from repro.selection.craig import SelectionResult

__all__ = ["AsyncSelectionRound"]


class AsyncSelectionRound:
    """One in-flight selection round on a worker thread.

    Parameters
    ----------
    selector : a :class:`~repro.core.selector.NeSSASelector` (or any
        object with ``select``; :meth:`launch` also needs
        ``snapshot_candidates``).
    strict : serial-semantics mode — never defers; :meth:`consume` runs
        the round synchronously at the call site.
    """

    def __init__(self, selector, strict: bool = False):
        self.selector = selector
        self.strict = strict
        self._thread: threading.Thread | None = None
        self._result: SelectionResult | None = None
        self._error: BaseException | None = None
        self._for_epoch: int | None = None
        self._launch_t0 = 0.0
        self.last_wait_s = 0.0

    @property
    def in_flight(self) -> bool:
        return self._thread is not None

    def launch(self, dataset, fraction: float, model, for_epoch: int) -> bool:
        """Start scoring ``for_epoch``'s subset in the background.

        ``model`` must be the quantized feedback replica as of *now*
        (round *t-1* relative to ``for_epoch`` — the staleness is the
        point).  Returns False in strict mode or when a round is already
        in flight (programming error guarded as a no-op).
        """
        if self.strict or self._thread is not None:
            return False
        candidates = self.selector.snapshot_candidates(dataset)
        self._result = None
        self._error = None
        self._for_epoch = for_epoch
        self._launch_t0 = time.perf_counter()

        def _run() -> None:
            # The tracer's span stack belongs to the training thread;
            # mute this thread and let join() forward one summary span.
            with obs.suppress():
                try:
                    # lint: allow-shared-state(single-owner handoff: the trainer reads _result only after Thread.join inside join, which is the happens-before edge)
                    self._result = self.selector.select(
                        dataset, fraction, model, candidates=candidates
                    )
                except BaseException as exc:  # lint: allow-broad-except(worker thread cannot raise to the trainer; stored and re-raised at the join point)
                    self._error = exc  # lint: allow-shared-state(single-owner handoff: join reads _error only after Thread.join returns)

        self._thread = threading.Thread(
            target=_run, name="async-selection", daemon=True
        )
        self._thread.start()
        obs.metrics().counter("overlap.rounds_launched").inc()
        return True

    def join(self) -> float:
        """Wait for the in-flight round (no-op when none).

        Returns the *exposed* wait in seconds — time the training thread
        actually blocked here, i.e. the part of the round that training
        failed to hide.  Forwards the round's ``async_selection`` span
        and updates the ``overlap.efficiency`` gauge.  Must be called
        before the trainer mutates state the worker reads (feedback
        replica, proxy cache, loss history).
        """
        thread = self._thread
        if thread is None:
            return 0.0
        t0 = time.perf_counter()
        thread.join()
        wait = time.perf_counter() - t0
        dur = time.perf_counter() - self._launch_t0
        self._thread = None
        self.last_wait_s = wait
        if self._error is not None:
            error, self._error = self._error, None
            raise error
        hidden = max(0.0, dur - wait)
        efficiency = hidden / dur if dur > 0 else 1.0
        reg = obs.metrics()
        reg.timer("overlap.join_wait").observe(max(0.0, wait))
        reg.timer("overlap.round_duration").observe(max(0.0, dur))
        reg.gauge("overlap.efficiency").set(efficiency)
        result = self._result
        obs.add_completed(
            "async_selection",
            start=self._launch_t0,
            dur_s=dur,
            for_epoch=self._for_epoch,
            wait_s=wait,
            hidden_s=hidden,
            selected=0 if result is None else len(result.positions),
            pairwise_bytes=0 if result is None else int(result.pairwise_bytes),
            proxy_flops=0.0 if result is None else float(result.proxy_flops),
        )
        return wait

    def consume(self, dataset, fraction: float, model, epoch: int) -> SelectionResult:
        """The selection result for ``epoch``.

        Overlapped path: returns the round launched during the previous
        epoch (joining first if the caller has not).  Synchronous path
        (strict mode, or nothing in flight — e.g. epoch 0): runs the
        round now under the ``selection_round`` span.
        """
        if self._thread is not None:
            self.join()
        if self._result is not None:
            result, self._result = self._result, None
            self._for_epoch = None
            return result
        with obs.span("selection_round", epoch=epoch) as sel:
            result = self.selector.select(dataset, fraction, model)
            sel.set(
                pairwise_bytes=int(result.pairwise_bytes),
                proxy_flops=float(result.proxy_flops),
                selected=len(result.positions),
                fraction=float(fraction),
            )
        return result

    def close(self) -> None:
        """Join any in-flight round and drop its result (error-path cleanup)."""
        thread = self._thread
        if thread is not None:
            self._thread = None
            thread.join()
        self._result = None
        self._error = None

    def __enter__(self) -> "AsyncSelectionRound":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
