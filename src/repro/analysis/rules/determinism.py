"""NES001 — global-state randomness in determinism-critical modules.

Selection derives every random choice from SeedSequence-keyed
``Generator`` streams.  Any code under ``repro.selection``,
``repro.parallel`` or ``repro.nn`` that draws from *global* RNG state —
``np.random.rand()`` and friends, the stdlib ``random`` module, or an
entropy-seeded ``default_rng()`` — silently breaks that contract: the
result depends on call order or wall clock.  The fix is always the same:
accept a ``np.random.Generator`` (threaded from config / SeedSequence)
and use it.
"""

from __future__ import annotations

import ast

from repro.analysis.registry import Checker, register
from repro.analysis.rules._util import (
    dotted_name,
    in_module,
    module_aliases,
    numpy_aliases,
)

SCOPE = ("repro/selection/", "repro/parallel/", "repro/nn/")

# np.random attributes that are fine to *reference* (class/constructor
# names, not global-state draws).
_ALLOWED_NP_RANDOM = {"Generator", "SeedSequence", "BitGenerator"}
# Constructors that are deterministic only when explicitly seeded.
_SEED_REQUIRED = {"default_rng", "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937"}
# time.* calls that smuggle the wall clock into a seed.
_CLOCK_CALLS = {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter"}


@register
class DeterminismChecker(Checker):
    rule = "NES001"

    def check(self, ctx):
        if not in_module(ctx.path, SCOPE):
            return
        np_names = numpy_aliases(ctx.tree)
        random_names = module_aliases(ctx.tree, "random")
        time_names = module_aliases(ctx.tree, "time") or {"time"}
        from_random = {
            alias.asname or alias.name
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.ImportFrom) and node.module == "random"
            for alias in node.names
        }

        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            parts = name.split(".")

            # np.random.<fn>(...)
            if len(parts) == 3 and parts[0] in np_names and parts[1] == "random":
                fn = parts[2]
                if fn in _ALLOWED_NP_RANDOM:
                    continue
                if fn in _SEED_REQUIRED:
                    if not node.args and not node.keywords:
                        yield self.finding(
                            ctx,
                            node,
                            f"np.random.{fn}() without a seed draws OS entropy — "
                            "results differ run to run",
                            hint="thread a Generator/SeedSequence from config",
                        )
                    elif self._clock_seeded(node, time_names):
                        yield self.finding(
                            ctx,
                            node,
                            f"np.random.{fn}(...) seeded from the wall clock",
                            hint="derive seeds from config/SeedSequence, not time",
                        )
                    continue
                yield self.finding(
                    ctx,
                    node,
                    f"np.random.{fn}() uses global RNG state — selection "
                    "results then depend on call order",
                    hint="use an explicit np.random.Generator threaded from "
                    "config/SeedSequence",
                )
                continue

            # stdlib random module: random.<fn>(...) or from-imported names.
            if len(parts) == 2 and parts[0] in random_names:
                yield self.finding(
                    ctx,
                    node,
                    f"stdlib random.{parts[1]}() uses process-global state",
                    hint="use np.random.Generator streams instead",
                )
                continue
            if len(parts) == 1 and parts[0] in from_random:
                yield self.finding(
                    ctx,
                    node,
                    f"stdlib random.{parts[0]}() uses process-global state",
                    hint="use np.random.Generator streams instead",
                )

    @staticmethod
    def _clock_seeded(call: ast.Call, time_names: set[str]) -> bool:
        for arg in ast.walk(call):
            if arg is call or not isinstance(arg, ast.Call):
                continue
            name = dotted_name(arg.func)
            if name is None:
                continue
            parts = name.split(".")
            if (
                len(parts) == 2
                and parts[0] in time_names
                and parts[1] in _CLOCK_CALLS
            ):
                return True
        return False
