"""Coreset / subset selection algorithms.

- :mod:`repro.selection.facility` — the submodular facility-location core
  (Eq. 5 of the paper): lazy greedy (Minoux) and stochastic greedy
  (lazier-than-lazy) maximization.
- :mod:`repro.selection.craig` — the CRAIG baseline (Mirzasoleiman et al.,
  ICML'20): per-class facility location over last-layer gradient proxies
  with medoid cluster-size weights.
- :mod:`repro.selection.kcenters` — the greedy k-centers baseline (Sener &
  Savarese core-set).
- :mod:`repro.selection.random_sel` — random subsets.
- :mod:`repro.selection.dynamics` — training-dynamics baselines (loss
  ranking, forgetting events, uncertainty).
- :mod:`repro.selection.gradients` — the gradient-proxy computation shared
  by all selectors.
- :mod:`repro.selection.pairwise` — the one-GEMM Gram-matrix
  pairwise-distance kernel.
- :mod:`repro.selection.partition` — the one subset-budget rule
  (``subset_budget``, ``apportion``), the chunker and the
  similarity-tile accounting for the FPGA's on-chip memory budget (paper
  Section 3.2.3); rounds are planned by :mod:`repro.parallel.scheduler`,
  which imports this package — never the other way round.
- :mod:`repro.selection.biasing` — loss-history tracking and learned-sample
  dropping (paper Section 3.2.2).
"""

from repro.selection.biasing import LossHistory
from repro.selection.dynamics import (
    ForgettingEventsSelector,
    LossRankedSelector,
    UncertaintySelector,
)
from repro.selection.craig import CraigSelector, craig_select_class
from repro.selection.facility import (
    facility_location_value,
    lazy_greedy,
    medoid_weights,
    similarity_from_distances,
    stochastic_greedy,
)
from repro.selection.gradients import GradientProxy, compute_gradient_proxies
from repro.selection.pairwise import pairwise_distances
from repro.selection.kcenters import KCentersSelector, k_centers
from repro.selection.partition import partition_positions
from repro.selection.random_sel import RandomSelector

__all__ = [
    "facility_location_value",
    "lazy_greedy",
    "pairwise_distances",
    "stochastic_greedy",
    "medoid_weights",
    "similarity_from_distances",
    "CraigSelector",
    "craig_select_class",
    "KCentersSelector",
    "k_centers",
    "RandomSelector",
    "GradientProxy",
    "compute_gradient_proxies",
    "partition_positions",
    "LossHistory",
    "LossRankedSelector",
    "ForgettingEventsSelector",
    "UncertaintySelector",
]
