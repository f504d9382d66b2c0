"""``repro.nn`` is a leaf layer: of ``repro`` it imports only itself and ``repro.obs``.

Training, selection and the timing model all build on the numpy
substrate, so an import from ``repro.nn`` back up into them would be a
cycle; history I/O therefore lives in ``repro.core.metrics``.
"""

from pathlib import Path

from tests.layering import imported_names

NN = Path(__file__).resolve().parents[2] / "src" / "repro" / "nn"
ALLOWED = ("repro.nn", "repro.obs")


def foreign_imports(source: str, package: str = "repro.nn") -> list[int]:
    """Lines of ``source`` that import a ``repro`` package outside ``ALLOWED``."""
    return sorted({
        line for line, name in imported_names(source, package)
        if name.split(".")[0] == "repro"
        and not any(name == ok or name.startswith(ok + ".") for ok in ALLOWED)
    })


def test_nn_imports_only_nn_and_obs():
    found = {
        path.name: lines
        for path in sorted(NN.glob("*.py"))
        if (lines := foreign_imports(path.read_text()))
    }
    assert found == {}


def test_foreign_imports_at_any_depth_are_seen():
    source = (
        "import numpy as np\n"
        "from repro import obs\n"
        "from repro.nn import functional as F\n"
        "def load_history(path):\n"
        "    from repro.core.metrics import EpochRecord\n"
        "from repro import core\n"
        "from ..selection import facility\n"
        "import repro.data.dataset\n"
        "import repro\n"
        "from . import modules\n"
        "from .quantize import quantize_tensor\n"
    )
    assert foreign_imports(source) == [5, 6, 7, 8, 9]
