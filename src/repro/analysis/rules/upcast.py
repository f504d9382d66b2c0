"""NES008 — float64 leaking into the int8 quantized scoring engine.

:mod:`repro.selection.qscore` guarantees "no float64 intermediates":
similarities are integer Gram-identity distances dequantized with one
float32 rescale, exactly what the FPGA similarity lanes execute.  A
float64 sneaking in is silent in two ways — numpy upcasts int32 buffers
to float64 on ``np.sqrt`` / true division without complaint, and the
result still *looks* right (it is usually slightly different rounding,
which can flip a greedy tie and break the bit-identity the rescore
cache depends on).  This rule statically rejects, inside the qscore
module only:

- ``.astype`` to float64 (``np.float64``, ``"float64"``, bare ``float``);
- ``np.float64(...)`` scalar/array construction;
- float64 dtype arguments (keyword or allocator-positional) — in this
  module even an *explicit* float64 needs a justification pragma;
- ``np.sqrt`` whose operand is not visibly float32 (an
  ``.astype(np.float32)`` call or ``np.float32(...)``) — the int32
  distance buffer would upcast to float64 right at the dequant rescale;
- calls into :func:`repro.selection.facility.similarity_from_distances`,
  the fp64 reference the quantized path exists to avoid.

Suppress with ``# lint: allow-upcast(reason)`` where a float64 boundary
value is intentional (e.g. the empty weights vector matching
``medoid_weights``' float64 contract).
"""

from __future__ import annotations

import ast

from repro.analysis.registry import Checker, register
from repro.analysis.rules._util import (
    ALLOCATORS,
    dotted_name,
    in_module,
    numpy_aliases,
)

SCOPE = ("repro/selection/qscore",)


@register
class UpcastChecker(Checker):
    rule = "NES008"
    pragma = "upcast"
    description = (
        "float64 creation/upcast (astype, np.float64, float64 dtype args, "
        "unguarded np.sqrt, similarity_from_distances) inside the int8 "
        "quantized scoring engine"
    )

    def check(self, ctx):
        if not in_module(ctx.path, SCOPE):
            return
        np_names = numpy_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            yield from self._check_call(ctx, node, np_names)

    def _check_call(self, ctx, node: ast.Call, np_names: set):
        name = dotted_name(node.func)
        parts = name.split(".") if name else []

        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "astype"
            and node.args
            and self._is_float64(node.args[0], np_names)
        ):
            yield self.finding(
                ctx,
                node,
                ".astype to float64 upcasts a quantized buffer — the "
                "engine's contract is int8/int32 plus one float32 rescale",
                hint="use np.float32 (or keep the integer dtype)",
            )
            return

        if len(parts) == 2 and parts[0] in np_names:
            fn = parts[1]
            if fn == "float64":
                yield self.finding(
                    ctx,
                    node,
                    "np.float64(...) constructs a float64 value inside the "
                    "quantized scoring engine",
                    hint="use np.float32",
                )
                return
            if fn == "sqrt" and node.args and not self._is_f32_guarded(
                node.args[0], np_names
            ):
                yield self.finding(
                    ctx,
                    node,
                    "np.sqrt over a non-float32 operand silently "
                    "materializes float64 (int32 distance buffers upcast "
                    "here)",
                    hint="sqrt the .astype(np.float32) view of the buffer",
                )
                return
            dtype_args = [kw.value for kw in node.keywords if kw.arg == "dtype"]
            if fn in ALLOCATORS and len(node.args) > ALLOCATORS[fn]:
                dtype_args.append(node.args[ALLOCATORS[fn]])
            for arg in dtype_args:
                if self._is_float64(arg, np_names):
                    yield self.finding(
                        ctx,
                        node,
                        f"np.{fn}(...) with a float64 dtype inside the "
                        "quantized scoring engine — even explicit float64 "
                        "needs a justification here",
                        hint="use float32, or pragma a justified boundary "
                        "value with allow-upcast(reason)",
                    )
                    return
        elif dtype_args := [
            kw.value for kw in node.keywords if kw.arg == "dtype"
        ]:
            for arg in dtype_args:
                if self._is_float64(arg, np_names):
                    yield self.finding(
                        ctx,
                        node,
                        "call with a float64 dtype inside the quantized "
                        "scoring engine",
                        hint="use float32, or pragma a justified boundary "
                        "value with allow-upcast(reason)",
                    )
                    return

        if parts and parts[-1] == "similarity_from_distances":
            yield self.finding(
                ctx,
                node,
                "similarity_from_distances is the fp64 reference path — the "
                "quantized engine builds similarities natively in float32",
                hint="use int8_similarity",
            )

    @staticmethod
    def _is_float64(node: ast.AST, np_names: set) -> bool:
        if isinstance(node, ast.Constant) and node.value == "float64":
            return True
        if isinstance(node, ast.Name) and node.id == "float":
            return True
        name = dotted_name(node)
        if name is None:
            return False
        parts = name.split(".")
        return len(parts) == 2 and parts[0] in np_names and parts[1] == "float64"

    @staticmethod
    def _is_f32_guarded(node: ast.AST, np_names: set) -> bool:
        """Is the expression visibly float32 (astype/np.float32 at the top)?"""
        if not isinstance(node, ast.Call):
            return False
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "astype"
            and node.args
        ):
            target = dotted_name(node.args[0])
            if target:
                parts = target.split(".")
                return (
                    len(parts) == 2
                    and parts[0] in np_names
                    and parts[1] == "float32"
                )
            return False
        name = dotted_name(node.func)
        if name:
            parts = name.split(".")
            return (
                len(parts) == 2
                and parts[0] in np_names
                and parts[1] == "float32"
            )
        return False
