"""Ablations: partition chunk size (§3.2.3) and biasing drop period (§3.2.2).

- Chunk size: smaller chunks shrink the on-chip similarity tile
  (quadratically) and the selection cost, at some quality loss.  The
  paper picks the mini-batch size; the FPGA's 4.32 MB bounds the maximum.
- Drop period: the paper calls 20 epochs (of 200) "a conservative
  trade-off".  Shorter periods drop more data sooner.
"""

import numpy as np

from repro.parallel.engine import SelectionExecutor
from repro.parallel.scheduler import plan_selection_round
from repro.selection.biasing import LossHistory
from repro.selection.craig import craig_select_class
from repro.selection.facility import facility_location_value, similarity_from_distances
from repro.selection.partition import chunk_pairwise_bytes
from repro.smartssd.fpga import KU15P

from benchmarks._shared import write_table

N, K, DIM = 800, 160, 10


def make_vectors(seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(8, DIM)) * 4
    assignment = rng.integers(0, 8, size=N)
    return centers[assignment] + rng.normal(size=(N, DIM))


def test_ablation_partition_chunk_size():
    """One class of N points, chunked by the planner NeSSA runs."""
    v = make_vectors()
    dist = np.linalg.norm(v[:, None] - v[None, :], axis=2)
    sim = similarity_from_distances(dist)
    full_value = facility_location_value(sim, craig_select_class(v, K)[0])
    results = {}
    for m in (20, 40, 80, 160):
        units = plan_selection_round(
            np.zeros(N), K, seed=1, round_index=0, chunk_select=m
        )
        sel, _, tile = SelectionExecutor().run_round(v, np.arange(N), units)
        results[m] = (facility_location_value(sim, sel) / full_value, tile)

    lines = ["Ablation: partition chunk size (m samples selected per chunk)"]
    lines.append(f"{'m':>5s} {'objective vs whole-class':>25s} {'tile bytes':>12s}")
    for m, (quality, tile) in sorted(results.items()):
        lines.append(f"{m:>5d} {quality:>25.4f} {tile:>12,d}")
    write_table("ablation_partition", lines)

    onchip = KU15P().onchip_bytes
    for m, (quality, tile) in results.items():
        # Every chunked configuration fits on-chip (the point of §3.2.3)...
        assert tile <= onchip
        # ...and retains most of the facility-location objective.
        assert quality > 0.85, m
    # Bigger chunks -> better objective (weak monotonicity).
    qualities = [results[m][0] for m in sorted(results)]
    assert qualities[-1] >= qualities[0] - 0.02
    # The whole-class tile would NOT fit for a paper-scale class.
    assert chunk_pairwise_bytes(5_000) > onchip


def test_ablation_biasing_drop_period():
    """Shorter drop periods prune more of the pool over a fixed run."""
    rng = np.random.default_rng(2)
    epochs = 60
    ids = np.arange(1000)
    # Static difficulty: 70% easy (low loss), 30% hard.
    base_loss = np.where(rng.uniform(size=1000) < 0.7, 0.05, 2.0)
    dropped = {}
    for period in (10, 20, 40):
        hist = LossHistory(len(ids), window=5, drop_period=period, drop_quantile=0.3)
        pool = ids
        for epoch in range(epochs):
            noise = rng.normal(0, 0.01, size=len(pool))
            hist.record(pool, base_loss[pool] + noise)
            if hist.should_drop_now(epoch):
                marked = hist.mark_learned(pool)
                hist.drop(marked)
                pool = ids[~hist.dropped]
        dropped[period] = hist.num_dropped

    lines = ["Ablation: biasing drop period over a 60-epoch run (1000 samples)"]
    for period, n in sorted(dropped.items()):
        lines.append(f"period={period:>3d}  dropped={n}")
    write_table("ablation_biasing", lines)

    assert dropped[10] > dropped[20] > dropped[40]
    # Easy samples are what gets dropped — never the full pool.
    assert dropped[10] < 1000


def test_ablation_biasing_drops_easy_not_hard():
    """The drop policy targets the generator's easy samples."""
    rng = np.random.default_rng(3)
    ids = np.arange(400)
    easy = rng.uniform(size=400) < 0.5
    losses = np.where(easy, 0.02, 3.0)
    hist = LossHistory(len(ids), window=5, drop_period=20, drop_quantile=0.4)
    for _ in range(5):
        hist.record(ids, losses + rng.normal(0, 0.005, size=400))
    marked = hist.mark_learned(ids)
    assert len(marked) > 0
    assert easy[marked].all()
