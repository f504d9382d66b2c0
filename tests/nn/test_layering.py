"""``repro.nn`` is a leaf layer: of ``repro`` it imports only itself and ``repro.obs``.

Training, selection and the timing model all build on the numpy
substrate, so an import from ``repro.nn`` back up into them would be a
cycle; history I/O therefore lives in ``repro.core.metrics``.
"""

import ast

from tests.layering import SRC, imported_names, parsed

NN = SRC / "nn"
ALLOWED = ("repro.nn", "repro.obs")


def foreign_imports(tree: ast.AST, package: str = "repro.nn") -> list[int]:
    """Lines of ``tree`` that import a ``repro`` package outside ``ALLOWED``."""
    return sorted({
        line for line, name in imported_names(tree, package)
        if name.split(".")[0] == "repro"
        and not any(name == ok or name.startswith(ok + ".") for ok in ALLOWED)
    })


def test_nn_imports_only_nn_and_obs():
    found = {
        path.name: lines
        for path, tree in parsed()
        if path.parent == NN and (lines := foreign_imports(tree))
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
    assert foreign_imports(ast.parse(source)) == [5, 6, 7, 8, 9]
