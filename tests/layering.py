"""Reading ``src/repro`` for the tests that check its source.

The checks read source rather than ``sys.modules``: at run time
``import repro`` loads every package, so which module imports which is
only visible in the text.  :func:`parsed` parses a tree once per test
session; the layering tests, the no-threads check and the source
invariants in ``tests/analysis`` all walk its result.
"""

import ast
import functools
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


@functools.cache
def parsed(root: Path = SRC) -> tuple[tuple[Path, ast.Module], ...]:
    """``(path, tree)`` for every ``*.py`` under ``root``, in path order.

    A file that does not parse raises its :class:`SyntaxError`, which
    names the file.  A root holding no python file raises
    :class:`FileNotFoundError`, so a mistyped root cannot check nothing.
    Every caller shares the cached trees, so none may mutate them.
    """
    paths = sorted(root.rglob("*.py"))
    if not paths:
        raise FileNotFoundError(f"no python files under {root}")
    return tuple((path, ast.parse(path.read_text(), filename=str(path))) for path in paths)


def imported_names(tree: ast.AST, package: str) -> list[tuple[int, str]]:
    """``(line, dotted name)`` of every import in ``tree``, at any depth.

    ``from a.b import c`` yields ``a.b.c``; relative imports resolve
    against ``package``, the importing module's package.
    """
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0]
                base = f"{parent}.{base}" if base else parent
            names += [(node.lineno, f"{base}.{alias.name}") for alias in node.names]
    return names
