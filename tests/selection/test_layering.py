"""The selection layer never imports the work-unit layer above it.

``repro.parallel`` plans and runs rounds over ``repro.selection``'s
chunker and per-class selector; the dependency runs one way.  The check
reads the source: at run time ``import repro`` already loads
``repro.parallel`` through ``repro.core``, so ``sys.modules`` would show
nothing.
"""

import ast
from pathlib import Path

SELECTION = Path(__file__).resolve().parents[2] / "src" / "repro" / "selection"


def parallel_imports(source: str, package: str = "repro.selection") -> list[int]:
    """Lines of ``source`` that import ``repro.parallel``, at any depth."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0]
                base = f"{parent}.{base}" if base else parent
            modules = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(m == "repro.parallel" or m.startswith("repro.parallel.") for m in modules):
            lines.append(node.lineno)
    return sorted(lines)


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
