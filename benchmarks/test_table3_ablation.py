"""Table 3: CIFAR-10 ablation — NeSSA variants vs CRAIG vs K-Centers vs Goal.

Paper rows at subset sizes 10/30/50%:

    Subset  Vanilla  SB     PA     SB+PA  CRAIG  K-Centers  Goal
    10      82.76    87.61  83.56  87.75  87.07  65.72      92.44
    30      89.51    90.42  90.68  90.49  89.12  88.49      92.44
    50      90.59    91.89  91.81  91.92  90.32  90.14      92.44

Shape properties we reproduce:
- K-Centers collapses at 10% (the paper's 65.72 vs everyone's 82+);
- every method improves from 10% to 30%;
- at 30%+ the best NeSSA variant is at least CRAIG-level and everything
  is within a few points of Goal;
- Goal (full data) is the ceiling.
"""

import numpy as np
import pytest

from benchmarks._shared import cached_run, per_epoch, write_table

FRACTIONS = [0.1, 0.3, 0.5]
METHODS = ["nessa-vanilla", "nessa-sb", "nessa-pa", "nessa", "craig", "kcenters"]
LABELS = {
    "nessa-vanilla": "Vanilla",
    "nessa-sb": "SB",
    "nessa-pa": "PA",
    "nessa": "SB+PA",
    "craig": "CRAIG",
    "kcenters": "K-Centers",
}

PAPER = {
    0.1: {"Vanilla": 82.76, "SB": 87.61, "PA": 83.56, "SB+PA": 87.75,
          "CRAIG": 87.07, "K-Centers": 65.72},
    0.3: {"Vanilla": 89.51, "SB": 90.42, "PA": 90.68, "SB+PA": 90.49,
          "CRAIG": 89.12, "K-Centers": 88.49},
    0.5: {"Vanilla": 90.59, "SB": 91.89, "PA": 91.81, "SB+PA": 91.92,
          "CRAIG": 90.32, "K-Centers": 90.14},
}
PAPER_GOAL = 92.44


@pytest.fixture(scope="module")
def table3():
    goal = cached_run("cifar10", "full", seed=1).history.stable_accuracy()
    grid = {}
    for frac in FRACTIONS:
        for method in METHODS:
            run = cached_run("cifar10", method, fraction=frac, seed=1)
            grid[(frac, method)] = run.history.stable_accuracy()
    return goal, grid


def test_table3_ablation(table3, benchmark):
    goal, grid = benchmark.pedantic(lambda: table3, rounds=1, iterations=1)

    lines = ["Table 3: CIFAR-10 ablation (ours, %; paper values in parens)"]
    header = f"{'Subset':>6s}" + "".join(f"{LABELS[m]:>18s}" for m in METHODS) + f"{'Goal':>10s}"
    lines.append(header)
    for frac in FRACTIONS:
        cells = []
        for m in METHODS:
            ours = 100 * grid[(frac, m)]
            paper = PAPER[frac][LABELS[m]]
            cells.append(f"{ours:6.2f} ({paper:5.2f})")
        lines.append(
            f"{int(100 * frac):>6d}" + "".join(f"{c:>18s}" for c in cells)
            + f"{100 * goal:6.2f} ({PAPER_GOAL:5.2f})"
        )
    # Samples each column trained per epoch: the methods compare at one size.
    lines += ["", "Samples trained per epoch", header]
    n_goal = per_epoch(cached_run("cifar10", "full", seed=1).history)
    for frac in FRACTIONS:
        cells = [per_epoch(cached_run("cifar10", m, fraction=frac, seed=1).history)
                 for m in METHODS]
        lines.append(f"{int(100 * frac):>6d}" + "".join(f"{c:>18s}" for c in cells)
                     + f"{n_goal:>10s}")
    write_table("table3_ablation", lines)

    # K-Centers collapses at 10% — clearly the worst method there.
    kc10 = grid[(0.1, "kcenters")]
    others10 = [grid[(0.1, m)] for m in METHODS if m != "kcenters"]
    assert kc10 < min(others10), "K-Centers did not collapse at 10%"
    assert kc10 < goal - 0.10

    # Every method improves (within noise) from 10% to 30%.
    for m in METHODS:
        assert grid[(0.3, m)] > grid[(0.1, m)] - 0.02, m

    # At 30%+ the best NeSSA variant is at least CRAIG-level.
    for frac in (0.3, 0.5):
        best_nessa = max(grid[(frac, m)] for m in METHODS if m.startswith("nessa"))
        assert best_nessa >= grid[(frac, "craig")] - 0.015, frac

    # Goal is the ceiling (within noise) and 30%+ subsets come close.
    for (frac, m), acc in grid.items():
        assert acc <= goal + 0.03, (frac, m)
    for frac in (0.3, 0.5):
        best = max(grid[(frac, m)] for m in METHODS if m.startswith("nessa"))
        assert best > goal - 0.04, f"best NeSSA at {frac} too far from goal"


def test_table3_sb_rescues_small_subsets(table3, benchmark):
    """Paper: at 10%, SB adds ~5 points over Vanilla (82.76 -> 87.61).

    At our scale we require the weaker form: the SB-enabled variants are
    not materially worse than vanilla at any fraction.
    """
    _, grid = benchmark.pedantic(lambda: table3, rounds=1, iterations=1)
    for frac in FRACTIONS:
        sb_best = max(grid[(frac, "nessa-sb")], grid[(frac, "nessa")])
        assert sb_best > grid[(frac, "nessa-vanilla")] - 0.03, frac
