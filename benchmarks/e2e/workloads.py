"""The benchmark's workloads: four training jobs on the public ``repro`` API.

All four share the bench recipe (batch 64, lr 0.03, paper milestones
scaled, ``clip_grad_norm=5.0`` — without the clip CRAIG goes NaN at
lr 0.1), 8x8 images and the default ``NeSSAConfig`` except
``subset_fraction``, ``seed`` and ``biasing_drop_period``.
``repro.pipeline.overlap``, ``repro.data.prefetch``,
``repro.selection.qscore`` and ``workers > 1`` stay off on purpose: a
non-default knob earns benchmark surface only by becoming the default.

This module is stdlib-only so the parent process never loads numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Workload", "WORKLOADS", "SIZES", "TARGET_FRAC", "job_seed", "jobs_for"]

# core.time_to_target_s is the time to reach this share of the run's own
# converged accuracy.  No fixed accuracy is reached on every seed (c10
# plateaus range 0.92-0.98 across seeds at this size, c100 0.28-0.70).
# At 0.95 full-c10 crosses right at the end of its first epoch, where
# one test sample decides between one epoch and two.
TARGET_FRAC = 0.9


@dataclass(frozen=True)
class Workload:
    """One training job.

    ``nominal_s`` is the job's wall time on the recording box; it only
    converts ``--seconds`` into a repeat count, so the count (and with
    it every generated input) is the same on every commit.
    ``acc_floor`` is the correctness floor on ``final_acc``: well above
    chance and well below the worst seed seen (0.97 / 0.79 / 0.92 / 0.28
    over ~150 seeds), so it trips on a broken run, not an unlucky one.
    """

    name: str
    why: str
    dataset: str
    method: str
    fraction: float
    epochs: int
    nominal_s: float
    acc_floor: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "full-c10",
            "Plain baseline: repro.nn + repro.data do all the work, selection/parallel/feedback "
            "none; an nn-kernel or loader change shows here first, a selection change must not.",
            dataset="cifar10", method="full", fraction=1.0, epochs=8,
            nominal_s=9.0, acc_floor=0.80,
        ),
        Workload(
            "nessa-c10",
            "The paper's system on full-c10's job, so NeSSA-vs-full is measured, not modelled; "
            "every layer runs (proxy forward, chunked greedy, feedback, biasing drops).",
            dataset="cifar10", method="nessa", fraction=0.3, epochs=8,
            nominal_s=4.7, acc_floor=0.50,
        ),
        Workload(
            "craig-c10",
            "Same selection layer used differently: live-model proxies, no feedback or ProxyCache, "
            "un-partitioned per-class n x n similarity; pairwise+greedy and tile-size RSS show here.",
            dataset="cifar10", method="craig", fraction=0.3, epochs=8,
            nominal_s=5.7, acc_floor=0.50,
        ),
        Workload(
            "nessa-c100-f10",
            "Selection-dominated: 20 small classes, ResNet-18, fraction 0.1, 24 epochs; "
            "selection/parallel/feedback optimisations show largest here, least on full-c10.",
            dataset="cifar100", method="nessa", fraction=0.1, epochs=24,
            nominal_s=9.8, acc_floor=0.12,
        ),
    )
}

# Dataset scale (x1500 samples before the 80/20 split) and an optional
# epoch override.  "smoke" exists only for the harness self-tests: three
# epochs on 360 samples converge to nothing, so it has no accuracy floor.
SIZES = {
    "full": {"scale": 2.0, "epochs": None},
    "smoke": {"scale": 0.3, "epochs": 3, "acc_floor": 0.0},
}


def job_seed(seed: int, job: int) -> int:
    """Seed of the ``job``-th job of a run started with ``--seed seed``.

    Each job trains on different generated data, so a run's values pool
    inputs as well as machine noise.
    """
    return seed * 1000 + job


def jobs_for(workload: Workload, seconds: float, twins: bool = False) -> int:
    """How many jobs of ``workload`` measure for about ``seconds``.

    A fixed function of ``seconds``, so the inputs are a pure function
    of ``--seed`` and a run is as long on every commit.
    """
    return max(1, round(seconds / (workload.nominal_s * (2 if twins else 1))))
