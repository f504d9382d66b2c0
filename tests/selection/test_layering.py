"""The selection layer never imports the work-unit layer above it.

``repro.parallel`` plans and runs rounds over ``repro.selection``'s
chunker and per-class selector; the dependency runs one way.
"""

from pathlib import Path

from tests.layering import imported_names

SELECTION = Path(__file__).resolve().parents[2] / "src" / "repro" / "selection"


def parallel_imports(source: str, package: str = "repro.selection") -> list[int]:
    """Lines of ``source`` that import ``repro.parallel``, at any depth."""
    return sorted({
        line for line, name in imported_names(source, package)
        if name == "repro.parallel" or name.startswith("repro.parallel.")
    })


def test_selection_never_imports_parallel():
    found = {
        path.name: lines
        for path in sorted(SELECTION.glob("*.py"))
        if (lines := parallel_imports(path.read_text()))
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
        "from repro.selection.partition import plan_chunk_takes\n"
    )
    assert parallel_imports(source) == [3, 4, 5, 6]
