"""Smoke runs of ``examples/``: each example's ``main`` at a size that
takes seconds, so an API change that breaks an example fails here."""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

# example -> (small-size keyword arguments to ``main``, text from the end of its report)
SMOKE = {
    "quickstart": (dict(epochs=3, num_samples=400), "samples dropped (biased):"),
    "selector_shootout": (dict(epochs=3, scale=0.3), "NeSSA's margin over K-Centers"),
    "storage_system_tour": ({}, "per-dataset host-interconnect bytes"),
}


def test_every_example_has_a_smoke_run():
    assert {path.stem for path in EXAMPLES.glob("*.py")} == set(SMOKE)


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_example_runs(name, capsys):
    kwargs, marker = SMOKE[name]
    runpy.run_path(str(EXAMPLES / f"{name}.py"))["main"](**kwargs)
    assert marker in capsys.readouterr().out
