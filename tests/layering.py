"""What a module imports, read from its source, for the layering tests.

The checks read source rather than ``sys.modules``: at run time
``import repro`` loads every package, so which module imports which is
only visible in the text.
"""

import ast


def imported_names(source: str, package: str) -> list[tuple[int, str]]:
    """``(line, dotted name)`` of every import in ``source``, at any depth.

    ``from a.b import c`` yields ``a.b.c``; relative imports resolve
    against ``package``, the importing module's package.
    """
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0]
                base = f"{parent}.{base}" if base else parent
            names += [(node.lineno, f"{base}.{alias.name}") for alias in node.names]
    return names
