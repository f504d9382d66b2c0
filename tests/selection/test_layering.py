"""The selection layer never imports the work-unit layer above it.

``repro.parallel`` plans and runs rounds over ``repro.selection``'s
chunker and per-class selector; the dependency runs one way.
"""

import ast

from tests.layering import SRC, imported_names, parsed

SELECTION = SRC / "selection"


def parallel_imports(tree: ast.AST, package: str = "repro.selection") -> list[int]:
    """Lines of ``tree`` that import ``repro.parallel``, at any depth."""
    return sorted({
        line for line, name in imported_names(tree, package)
        if name == "repro.parallel" or name.startswith("repro.parallel.")
    })


def test_selection_never_imports_parallel():
    found = {
        path.name: lines
        for path, tree in parsed()
        if path.parent == SELECTION and (lines := parallel_imports(tree))
    }
    assert found == {}


def test_imports_inside_functions_and_relative_forms_are_seen():
    source = (
        "import numpy as np\n"
        "def f():\n"
        "    from repro.parallel.scheduler import plan_selection_round\n"
        "from repro import parallel\n"
        "from ..parallel import engine\n"
        "import repro.parallel.engine as e\n"
        "from repro.selection.partition import apportion\n"
    )
    assert parallel_imports(ast.parse(source)) == [3, 4, 5, 6]
