"""NES007 — buffer-pool leases must be released on every exit path.

A :class:`~repro.nn.scratch.BufferLease` that escapes without a
``release()`` is not a crash — the array is eventually garbage-collected
— but it silently re-introduces the steady-state allocation churn the
pool exists to remove, and the pool's ``outstanding`` accounting drifts,
which is exactly the failure mode the allocation-count tests gate on.
Every lease bound in a function scope must be released on *all* exits.

Accepted lifecycle shapes:

- ``with pool.lease(...) as lease: ...`` — the lease is a context
  manager;
- ``lease.release()`` inside a ``finally`` suite (conditional release
  behind a handed-off flag counts: the release call is what matters);
- ownership transfer — binding to ``self.<attr>`` (the object's own
  teardown releases it), returning the lease (directly, or inside a
  tuple/list, possibly nested, e.g. ``(batch, (x_lease, y_lease))``).
"""

from __future__ import annotations

import ast

from repro.analysis.registry import Checker, register
from repro.analysis.rules._util import dotted_name, own_nodes

_CREATOR_TAILS = {"lease", "BufferLease"}


def _is_lease_creation(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = dotted_name(node.func)
    if name is None:
        # `scratch_pool().lease(...)`: the chain root is a call, so
        # dotted_name bails — classify off the attribute tail alone.
        return (
            isinstance(node.func, ast.Attribute) and node.func.attr in _CREATOR_TAILS
        )
    return any(name == tail or name.endswith("." + tail) for tail in _CREATOR_TAILS)


def _name_released_in_finally(func: ast.AST, name: str) -> bool:
    for node in ast.walk(func):
        if not isinstance(node, ast.Try) or not node.finalbody:
            continue
        for inner in node.finalbody:
            for sub in ast.walk(inner):
                if (
                    isinstance(sub, ast.Attribute)
                    and sub.attr == "release"
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == name
                ):
                    return True
    return False


def _name_is_returned(func: ast.AST, name: str) -> bool:
    """Direct return of the name, including nested tuple/list containers.

    ``return batch, (x_lease, y_lease)`` transfers both leases to the
    caller; ``return lease.array`` only reads through the lease and does
    not.
    """
    for node in ast.walk(func):
        if not isinstance(node, ast.Return) or node.value is None:
            continue
        stack = [node.value]
        while stack:
            sub = stack.pop()
            if isinstance(sub, (ast.Tuple, ast.List)):
                stack.extend(sub.elts)
            elif isinstance(sub, ast.Name) and sub.id == name:
                return True
    return False


@register
class PoolLeaseChecker(Checker):
    rule = "NES007"

    def check(self, ctx):
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            # Only statements are inspected: a lease that is a `with` item
            # or sits in a `return` expression is neither an Assign nor a
            # bare Expr statement, so those shapes pass by construction.
            # Nested function bodies are visited on their own and must
            # not be double-reported.
            own = list(own_nodes(func))
            for node in own:
                if not isinstance(node, ast.Assign):
                    continue
                if not _is_lease_creation(node.value):
                    continue
                if all(isinstance(t, ast.Attribute) for t in node.targets):
                    continue  # self.<attr> = lease: owned by the object
                targets = [t for t in node.targets if isinstance(t, ast.Name)]
                if not targets:
                    continue
                name = targets[0].id
                if _name_released_in_finally(func, name):
                    continue
                if _name_is_returned(func, name):
                    continue
                yield self.finding(
                    ctx,
                    node,
                    f"buffer lease {name!r} may never return to its pool: "
                    "no release() on all exit paths",
                    hint="wrap in `with`, release in a try/finally, or "
                    "hand ownership off (return / self-attribute)",
                )
            for node in own:
                if isinstance(node, ast.Expr) and _is_lease_creation(node.value):
                    yield self.finding(
                        ctx,
                        node,
                        "buffer lease created and immediately dropped: "
                        "nothing can ever release it",
                        hint="bind it and release in try/finally, or use "
                        "a with block",
                    )
