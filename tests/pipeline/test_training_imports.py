"""The training path's import graph: a run loads no device or timing model.

The modelled hardware (``repro.smartssd``, ``repro.pipeline.system``,
``repro.perf.timemodel``) prices the paper's testbed; a training job never
calls it.  The check runs in a fresh interpreter, because this test
session has already imported everything.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

PROBE = """
import sys

from repro import NeSSAConfig, obs
from repro.pipeline.experiment import make_data, run_method, scaled_recipe

modelled = ("repro.smartssd", "repro.pipeline.system", "repro.perf.timemodel")
loaded = [name for name in modelled if name in sys.modules]
assert not loaded, f"training imports load the modelled hardware: {loaded}"

before = {name for name in sys.modules if name.startswith("repro")}
train_set, test_set = make_data("cifar10", scale=0.02, seed=1)
config = NeSSAConfig(subset_fraction=0.3, seed=1)
run_method("cifar10", "nessa", train_set, test_set, scaled_recipe(2),
           nessa_config=config, seed=1)
late = sorted(name for name in sys.modules if name.startswith("repro") and name not in before)
assert not late, f"the run imported repro modules on first use: {late}"
"""


def test_training_run_loads_no_modelled_hardware():
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
