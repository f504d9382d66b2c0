"""``python -m repro.analysis --explain NESxxx`` — one rule, explained.

Each rule gets a minimal violating/clean example pair distilled from its
test fixtures (``tests/analysis``), shown together with the rule's
description, pragma spelling and the required-reason convention.  The
examples are *live*: ``tests/analysis/test_explain.py`` lints every pair
and asserts the violating snippet triggers exactly its rule and the
clean snippet does not, so the help text can never drift from the
checkers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.registry import all_checkers

__all__ = ["Example", "EXAMPLES", "explain_rule"]


@dataclass(frozen=True)
class Example:
    """A minimal violating/clean source pair for one rule.

    ``path`` is the recorded file path the snippets are linted under —
    several rules are module-scoped, so the path is part of the repro.
    """

    path: str
    bad: str
    good: str


_SEL = "repro/selection/mod.py"
_NN = "repro/nn/blocks.py"
_ANY = "repro/data/mod.py"

EXAMPLES: dict[str, Example] = {
    "NES001": Example(
        path=_SEL,
        bad=(
            "import numpy as np\n"
            "x = np.random.rand(3)\n"
        ),
        good=(
            "import numpy as np\n"
            "rng = np.random.default_rng(17)\n"
            "x = rng.random(3)\n"
        ),
    ),
    "NES002": Example(
        path=_SEL,
        bad=(
            "import numpy as np\n"
            "x = np.zeros(5)\n"
        ),
        good=(
            "import numpy as np\n"
            "x = np.zeros(5, dtype=np.float32)\n"
        ),
    ),
    "NES003": Example(
        path=_ANY,
        bad=(
            "try:\n"
            "    work()\n"
            "except Exception:\n"
            "    result = None\n"
        ),
        good=(
            "try:\n"
            "    work()\n"
            "except ValueError:\n"
            "    pass\n"
        ),
    ),
    "NES006": Example(
        path=_ANY,
        bad=(
            "from repro import obs\n"
            "\n"
            "def f():\n"
            "    sp = obs.span(\"epoch\")\n"
            "    sp.set(x=1)\n"
        ),
        good=(
            "from repro import obs\n"
            "\n"
            "def f():\n"
            "    with obs.span(\"epoch\") as sp:\n"
            "        sp.set(x=1)\n"
        ),
    ),
    "NES007": Example(
        path=_NN,
        bad=(
            "def f(pool):\n"
            "    lease = pool.lease((4, 4))\n"
            "    return lease.array.sum()\n"
        ),
        good=(
            "def f(pool):\n"
            "    with pool.lease((4, 4)) as lease:\n"
            "        return lease.array.sum()\n"
        ),
    ),
    "NES011": Example(
        path=_ANY,
        bad=(
            "from repro import obs\n"
            "\n"
            "def record(mode):\n"
            "    obs.metrics().counter(\"selection.\" + mode).inc()\n"
        ),
        good=(
            "from repro import obs\n"
            "\n"
            "def record():\n"
            "    obs.metrics().counter(\"selection.rounds\").inc()\n"
        ),
    ),
}


def _indent(snippet: str) -> str:
    return "\n".join(f"    {line}" if line else ""
                     for line in snippet.rstrip("\n").split("\n"))


def explain_rule(rule: str) -> str | None:
    """Render the ``--explain`` text for one rule id, None if unknown."""
    rule = rule.upper()
    checker = next((c for c in all_checkers() if c.rule == rule), None)
    if checker is None:
        return None
    lines = [
        f"{rule} — {checker.description}",
        f"pragma: # lint: allow-{checker.pragma}(reason)",
        "reason: required — a pragma with empty parentheses does not "
        "suppress",
    ]
    example = EXAMPLES.get(rule)
    if example is not None:
        lines += [
            "",
            f"violates ({example.path}):",
            _indent(example.bad),
            "",
            "clean:",
            _indent(example.good),
        ]
    return "\n".join(lines) + "\n"
