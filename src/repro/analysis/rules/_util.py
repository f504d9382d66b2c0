"""Shared AST helpers for the rule modules."""

from __future__ import annotations

import ast

__all__ = [
    "ALLOCATORS",
    "dotted_name",
    "in_module",
    "numpy_aliases",
    "module_aliases",
    "own_nodes",
]

# numpy allocator -> positional index where dtype may appear (NES002)
ALLOCATORS = {"zeros": 1, "empty": 1, "ones": 1, "full": 2, "eye": 3}


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for Name/Attribute chains, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def own_nodes(scope: ast.AST):
    """Nodes under ``scope``, excluding the bodies of nested functions and
    lambdas (code there does not run when ``scope`` does)."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def in_module(path: str, prefixes: tuple[str, ...]) -> bool:
    """Does the recorded path fall inside any of the package prefixes?

    Prefixes are path fragments like ``"repro/selection/"`` or exact
    file suffixes like ``"repro/smartssd/kernel.py"``; matching is on
    the posix recorded path, so it works for both the repo tree
    (``src/repro/...``) and test fixture trees (``fixtures/repro/...``).
    """
    return any(p in path for p in prefixes)


def module_aliases(tree: ast.Module, module: str) -> set[str]:
    """Names the file binds to ``module`` (``import numpy as np`` -> np)."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module:
                    aliases.add(alias.asname or alias.name.split(".")[0])
    return aliases


def numpy_aliases(tree: ast.Module) -> set[str]:
    """Aliases for numpy in this file (defaults to {"np", "numpy"})."""
    aliases = module_aliases(tree, "numpy")
    return aliases or {"np", "numpy"}
