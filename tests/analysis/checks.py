"""Source invariants of ``src/repro``, checked by plain walks over its ``ast``.

Each rule is one function ``nesNNN(tree, path)`` yielding ``(node,
message)`` pairs; :func:`check` runs all six on one parsed file and
:func:`lint_tree` on every file under a root.  Rules scope on posix path
fragments (``repro/selection/``), so fixtures can check snippets under
fake paths.  A finding is fixed in the code: there is no suppression.
The gaps in the rule numbering are retired ids; they are not reused.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import NamedTuple

from repro.obs.metrics import METRIC_TABLE
from tests.layering import SRC, parsed


class Finding(NamedTuple):
    """One rule violation at one source location; fields in sort order."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


# -- shared helpers -----------------------------------------------------------

# numpy allocator -> positional index where dtype may appear (NES002)
ALLOCATORS = {
    "zeros": 1, "empty": 1, "ones": 1, "identity": 1, "full": 2, "eye": 3, "linspace": 5,
}

# Names that resolve without an import, so a snippet's ``np.log`` is numpy.
_DEFAULT_BINDINGS = {"np": "numpy", "numpy": "numpy", "math": "math", "time": "time"}


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


def imports(tree: ast.Module) -> dict[str, str]:
    """Local name -> the dotted name the file's imports bind it to.

    ``import numpy.random as npr`` binds ``npr`` to ``numpy.random``,
    ``from numpy.random import rand`` binds ``rand`` to
    ``numpy.random.rand``; relative (``repro``-internal) imports are skipped.
    """
    bound = dict(_DEFAULT_BINDINGS)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                bound[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return bound


def resolve(node: ast.AST, bound: dict[str, str]) -> str | None:
    """Canonical dotted name of ``node`` (``npr.rand`` -> ``numpy.random.rand``);
    ``None`` unless it is a dotted name whose root an import binds."""
    root, dot, rest = (dotted_name(node) or "").partition(".")
    return bound[root] + dot + rest if root in bound else None


def own_nodes(scope: ast.AST):
    """Nodes under ``scope``, excluding the bodies of nested functions and
    lambdas (code there does not run when ``scope`` does)."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def calls(tree: ast.AST):
    return (node for node in ast.walk(tree) if isinstance(node, ast.Call))


# -- NES001 determinism -------------------------------------------------------

_ALLOWED_NP_RANDOM = {"Generator", "SeedSequence", "BitGenerator"}  # classes, not draws
_SEED_REQUIRED = {"default_rng", "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937"}
_CLOCK_CALLS = {
    f"time.{fn}" for fn in ("time", "time_ns", "monotonic", "monotonic_ns", "perf_counter")
}


def _unseeded(call: ast.Call) -> bool:
    """No seed, or a literal ``None`` one (a ``**kwargs`` splat counts as a seed)."""
    seeds = call.args[:1] or [kw.value for kw in call.keywords if kw.arg in ("seed", None)]
    return not seeds or (isinstance(seeds[0], ast.Constant) and seeds[0].value is None)


def nes001(tree: ast.Module, path: str):
    """No global-state randomness in selection, parallel or nn code.

    Selection draws every random choice from SeedSequence-keyed
    ``Generator`` streams; ``np.random.rand()``, stdlib ``random`` or an
    unseeded or clock-seeded ``default_rng`` make the result depend on
    call order or the wall clock.  Fix: thread a ``Generator`` from config.
    """
    if not any(p in path for p in ("repro/selection/", "repro/parallel/", "repro/nn/")):
        return
    bound = imports(tree)
    for node in calls(tree):
        parts = (resolve(node.func, bound) or "").split(".")
        if len(parts) == 2 and parts[0] == "random":
            yield node, f"stdlib random.{parts[1]}() uses process-global state"
        if len(parts) != 3 or parts[:2] != ["numpy", "random"] or parts[2] in _ALLOWED_NP_RANDOM:
            continue
        fn = parts[2]
        if fn not in _SEED_REQUIRED:
            yield node, f"np.random.{fn}() uses global RNG state — results depend on call order"
        elif _unseeded(node):
            yield node, f"np.random.{fn}() without a seed draws OS entropy — differs run to run"
        elif any(resolve(c.func, bound) in _CLOCK_CALLS for c in calls(node) if c is not node):
            yield node, f"np.random.{fn}(...) seeded from the wall clock"


# -- NES002 precision ---------------------------------------------------------


def _has_bare_float_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Tuple)):
        return any(_has_bare_float_literal(e) for e in node.elts)
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def nes002(tree: ast.Module, path: str):
    """Allocations in dtype-accounted modules name their dtype.

    ``chunk_pairwise_bytes`` and the SmartSSD kernel model charge an fp32
    similarity tile.  A float64 array there (``np.zeros(n)``) breaks that
    byte accounting and changes rounding, which can flip selection order.
    """
    scope = ("repro/selection/", "repro/parallel/", "repro/smartssd/kernel.py")
    if not any(p in path for p in scope):
        return
    bound = imports(tree)
    for node in calls(tree):
        module, _, fn = (resolve(node.func, bound) or "").rpartition(".")
        if module != "numpy" or any(kw.arg == "dtype" for kw in node.keywords):
            continue
        if fn in ALLOCATORS and len(node.args) <= ALLOCATORS[fn]:
            yield node, f"np.{fn}(...) without dtype= makes float64 the byte accounting misses"
        elif fn == "array" and node.args and _has_bare_float_literal(node.args[0]):
            yield node, "np.array over bare float literals defaults to float64; name the dtype"


# -- NES003 swallowed errors --------------------------------------------------

_BROAD = {"Exception", "BaseException"}
_LOG_ATTRS = {
    "debug", "info", "warning", "warn", "error", "exception", "critical", "log", "print_exc",
}


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:  # bare except:
        return True
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any((dotted_name(t) or "").split(".")[-1] in _BROAD for t in types)


def _handles_error(handler: ast.ExceptHandler, bound: dict[str, str]) -> bool:
    """Does the handler body itself re-raise or log?  A ``raise`` in a nested
    ``def`` or ``lambda`` does not run with it, and ``np.log`` / ``math.log``
    compute a logarithm."""
    for node in own_nodes(handler):
        if isinstance(node, ast.Raise):
            return True
        func = node.func if isinstance(node, ast.Call) else None
        if isinstance(func, ast.Attribute) and func.attr in _LOG_ATTRS:
            receiver = resolve(func.value, bound)
            if receiver is None or receiver.split(".")[0] not in ("numpy", "math"):
                return True
        if isinstance(func, ast.Name) and func.id == "warn":
            return True
    return False


def nes003(tree: ast.Module, path: str):
    """Broad handlers re-raise or log: a silent one turns a typo'd attribute
    or a shape mismatch into a silently wrong result."""
    bound = imports(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler) or not _is_broad(node):
            continue
        if not _handles_error(node, bound):
            what = "bare except:" if node.type is None else "except Exception"
            yield node, f"{what} swallows errors without re-raising or logging"


# -- NES006 with-managed spans ------------------------------------------------


def nes006(tree: ast.Module, path: str):
    """Trace spans are context managers: ``with obs.span(...)``.

    A span's record is emitted only on ``__exit__``, so one never entered
    vanishes from the trace and one entered late misattributes the spans
    opened in between.  A span in direct return position (alone or in a
    returned tuple/list) is a factory, as ``repro.obs.span`` is; spans
    timed elsewhere go through ``Tracer.add_completed``.
    """
    allowed: set[ast.AST] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            allowed.update(item.context_expr for item in node.items)
        elif isinstance(node, ast.Return) and node.value is not None:
            value = node.value
            allowed.update(value.elts if isinstance(value, (ast.Tuple, ast.List)) else [value])
    for node in calls(tree):
        name = dotted_name(node.func) or ""
        if (name == "span" or name.endswith(".span")) and node not in allowed:
            yield node, (
                "span created outside a `with` statement: its record is only emitted "
                "on __exit__, and children opened before entry are misattributed"
            )


# -- NES007 pool leases -------------------------------------------------------


def _is_lease_creation(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    # `scratch_pool().lease(...)` has a call at the chain root: classify on the tail.
    tail = node.func.attr if isinstance(node.func, ast.Attribute) else dotted_name(node.func)
    return tail in ("lease", "BufferLease")


def _released_in_finally(func: ast.AST, name: str) -> bool:
    return any(
        isinstance(sub, ast.Attribute) and sub.attr == "release"
        and isinstance(sub.value, ast.Name) and sub.value.id == name
        for node in ast.walk(func) if isinstance(node, ast.Try)
        for stmt in node.finalbody
        for sub in ast.walk(stmt)
    )


def _returned(func: ast.AST, name: str) -> bool:
    """Returned directly or inside nested tuples/lists (``return lease.array``
    only reads through the lease)."""
    for node in ast.walk(func):
        stack = [node.value] if isinstance(node, ast.Return) and node.value else []
        while stack:
            sub = stack.pop()
            if isinstance(sub, (ast.Tuple, ast.List)):
                stack.extend(sub.elts)
            elif isinstance(sub, ast.Name) and sub.id == name:
                return True
    return False


def nes007(tree: ast.Module, path: str):
    """Buffer-pool leases are released on every exit path.

    A leaked lease re-introduces the allocation churn the pool removes
    and drifts its ``outstanding`` count.  Accepted: ``with``, a
    ``release()`` in a ``finally`` (flag-guarded counts), binding to
    ``self.<attr>``, or returning the lease (also in nested tuples).
    Each function is checked on its own nodes, so nesting never reports twice.
    """
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in own_nodes(func):
            if isinstance(node, ast.Expr) and _is_lease_creation(node.value):
                yield node, "buffer lease created and immediately dropped: nothing releases it"
            if not (isinstance(node, ast.Assign) and _is_lease_creation(node.value)):
                continue
            # Only a bare name is tracked: `self.<attr> = ...` is owned by the object.
            name = next((t.id for t in node.targets if isinstance(t, ast.Name)), None)
            if name and not _released_in_finally(func, name) and not _returned(func, name):
                yield node, f"buffer lease {name!r} may never return to its pool: not released"


# -- NES011 declared metric names ---------------------------------------------


def nes011(tree: ast.Module, path: str):
    """Metric names are dotted literals declared in ``METRIC_TABLE``.

    ``repro.cli report`` and ``obsdiff`` read metrics by name, so the name
    every ``*.counter`` / ``*.gauge`` call passes (first argument or
    ``name=``) must be knowable without running the code.
    """
    for node in calls(tree):
        method = getattr(node.func, "attr", None)
        names = node.args[:1] or [kw.value for kw in node.keywords if kw.arg == "name"]
        if method not in ("counter", "gauge") or not names:
            continue
        name = names[0].value if isinstance(names[0], ast.Constant) else None
        if not isinstance(name, str):
            yield node, f".{method}(...) metric name is not a string literal: unknowable statically"
        elif "." not in name:
            yield node, f"metric name {name!r} is not dotted-namespace (subsystem.metric)"
        elif name not in METRIC_TABLE:
            yield node, f"metric name {name!r} is not declared in repro.obs METRIC_TABLE"


# -- the walk -----------------------------------------------------------------

RULES = {"NES001": nes001, "NES002": nes002, "NES003": nes003,
         "NES006": nes006, "NES007": nes007, "NES011": nes011}


def check(tree: ast.Module, path: str) -> list[Finding]:
    """Every rule's findings on one parsed file recorded at ``path``, sorted."""
    return sorted(
        Finding(path, node.lineno, node.col_offset + 1, rule, message)
        for rule, rule_fn in RULES.items()
        for node, message in rule_fn(tree, path)
    )


def lint_tree(root: Path = SRC) -> list[str]:
    """``path:line:col: RULE message`` for every finding under ``root``."""
    return [str(f) for path, tree in parsed(root) for f in check(tree, path.as_posix())]
