"""Outside-in span shims around the layers' public entry points.

The program only emits coarse spans (``epoch``, ``selection_round``,
``proxy_compute``, ``chunk_select``, ``feedback_quantize``).  For one
traced run this module wraps each layer's public entry points so that
every call opens a span on the installed ``repro.obs.Tracer`` — the
shim spans nest with the program's own and the trace stays readable by
``repro.cli report --chrome``.  ``Shims`` restores every patched
attribute on exit, also when the run raises.

Functions that a consumer imported by name (``from x import f``) are
patched in the consumer's namespace, because that is the binding the
call goes through.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

import numpy as np

from repro import obs
from repro.core import feedback, selector as core_selector, trainer
from repro.data import loader
from repro.nn import loss, modules, optim, resnet
from repro.parallel import cache, engine
from repro.selection import craig

__all__ = ["Shims", "MODULE_CLASSES"]

MODULE_CLASSES = tuple(
    cls
    for mod in (modules, resnet)
    for cls in (getattr(mod, name) for name in mod.__all__)
    if isinstance(cls, type) and issubclass(cls, modules.Module) and cls is not modules.Module
)


# Per-layer metric that a module class's (forward, backward) self time
# adds to; classes not listed (BasicBlock, Sequential, ResNet, ...) are glue.
_MODULE_METRICS = {
    "Conv2d": ("nn.conv_fwd_s", "nn.conv_bwd_s"),
    "BatchNorm2d": ("nn.bn_fwd_s", "nn.bn_bwd_s"),
    "Linear": ("nn.linear_s", "nn.linear_s"),
    "ReLU": ("nn.relu_s", "nn.relu_s"),
    "MaxPool2d": ("nn.pool_s", "nn.pool_s"),
    "AvgPool2d": ("nn.pool_s", "nn.pool_s"),
    "GlobalAvgPool2d": ("nn.pool_s", "nn.pool_s"),
}
_GLUE_METRICS = ("nn.glue_s", "nn.glue_s")


class _ModuleClock:
    """Self time per module class of the ``repro.nn`` calls in flight.

    A span per module call costs ~15 us in situ, 10-25% of a run whose
    every train step makes ~160 of them.  So only the outermost call of
    a forward or backward pass opens a span (``nn.forward`` /
    ``nn.backward``); the calls beneath it add their self time here, and
    the outermost span carries the roll-up as attributes named after
    the per-layer metrics.
    """

    def __init__(self):
        self._child_s: list[float] = []  # per call in flight: seconds inside its child calls
        self._self_s: dict[str, float] = defaultdict(float)

    def wrap(self, cls: type, direction: str):
        metric = _MODULE_METRICS.get(cls.__name__, _GLUE_METRICS)[direction == "backward"]

        def make(fn):
            @functools.wraps(fn)
            def wrapper(module, x):
                if self._child_s:
                    return self._timed(fn, module, x, metric)
                with obs.span(f"nn.{direction}") as sp:
                    out = self._timed(fn, module, x, metric)
                    sp.set(**self._self_s)
                    self._self_s.clear()
                    return out

            return wrapper

        return make

    def _timed(self, fn, module, x, metric: str):
        self._child_s.append(0.0)
        start = perf_counter()
        try:
            return fn(module, x)
        finally:
            elapsed = perf_counter() - start
            self._self_s[metric] += elapsed - self._child_s.pop()
            if self._child_s:
                self._child_s[-1] += elapsed


def _spanned(name: str, note=None, **attrs):
    """Wrapper factory: run the call inside span ``name``.

    ``note(args, result)`` returns attributes read off the call, set
    on the span after the call returns.
    """

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with obs.span(name, **attrs) as sp:
                result = fn(*args, **kwargs)
                if note is not None:
                    sp.set(**note(args, result))
                return result

        return wrapper

    return make


def _selection_facts(args, result) -> dict:
    """What the correctness checks need from one ``select`` call."""
    dataset, fraction = args[1], args[2]
    positions = result.positions
    return {
        "n": len(dataset),
        "classes": dataset.num_classes,
        "fraction": float(fraction),
        "selected": len(positions),
        "unique": len(np.unique(positions)),
        "in_range": bool(len(positions) == 0 or (positions.min() >= 0 and positions.max() < len(dataset))),
        "weight_sum": float(result.weights.sum()),
    }


def _traced_iter(original):
    """``DataLoader.__iter__`` with each ``next()`` inside a ``data.load`` span."""

    @functools.wraps(original)
    def __iter__(self):
        batches = original(self)
        while True:
            with obs.span("data.load") as sp:
                # The exhausting next() still runs to completion: the
                # loader advances its shuffle epoch there.
                batch = next(batches, None)
                if batch is None:
                    return
                nbytes = batch.x.nbytes + batch.y.nbytes + batch.ids.nbytes
                if batch.weights is not None:
                    nbytes += batch.weights.nbytes
                sp.set(bytes=int(nbytes))
            yield batch

    return __iter__


class Shims:
    """Context manager: install the span shims, restore them on exit."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, make) -> None:
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        if isinstance(original, staticmethod):
            setattr(owner, attr, staticmethod(make(original.__func__)))
        else:
            setattr(owner, attr, make(original))

    def __enter__(self) -> "Shims":
        try:
            self._install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _install(self) -> None:
        patch = self._patch

        # repro.data
        patch(loader.DataLoader, "__iter__", _traced_iter)

        # repro.nn — module classes, loss, optimizer, eval
        clock = _ModuleClock()
        for cls in MODULE_CLASSES:
            for direction in ("forward", "backward"):
                if direction in vars(cls):
                    patch(cls, direction, clock.wrap(cls, direction))
        # ``__call__ = forward`` was bound at class creation, so it is
        # its own attribute and the trainer calls through it.
        for attr in ("forward", "__call__", "backward", "per_sample_losses"):
            patch(loss.CrossEntropyLoss, attr, _spanned("nn.loss"))
        patch(optim.SGD, "step", _spanned("nn.optim", op="step"))
        patch(optim.SGD, "zero_grad", _spanned("nn.optim", op="zero_grad"))
        patch(optim.MultiStepLR, "step", _spanned("nn.optim", op="sched"))
        patch(trainer, "evaluate_accuracy", _spanned("nn.eval"))

        # repro.selection — craig.py holds the by-name bindings that
        # both CRAIG and the NeSSA work units call through
        for attr in ("pairwise_distances", "similarity_from_distances"):
            patch(craig, attr, _spanned("selection.pairwise"))
        for attr in ("lazy_greedy", "stochastic_greedy"):
            patch(craig, attr, _spanned("selection.greedy"))
        patch(craig, "medoid_weights", _spanned("selection.weights"))
        patch(craig.CraigSelector, "select", _spanned("selection.select", _selection_facts))
        for attr in ("maybe_drop_learned", "record_epoch_losses", "snapshot_candidates"):
            patch(core_selector.NeSSASelector, attr, _spanned("selection.biasing"))

        # repro.parallel
        patch(core_selector, "plan_selection_round", _spanned("parallel.plan"))
        patch(
            engine.SelectionExecutor,
            "run_units",
            _spanned(
                "parallel.run_units",
                lambda args, _: {
                    "units": len(args[2]),
                    "fallback": args[0].fallback_reason is not None,
                },
            ),
        )
        patch(
            cache.ProxyCache,
            "get",
            _spanned("parallel.proxy_cache", lambda _, hit: {"hit": hit is not None}),
        )

        # repro.core
        for cls in (trainer.FullTrainer, trainer.SubsetTrainer, trainer.NeSSATrainer):
            patch(cls, "train", _spanned("core.train"))
        patch(core_selector.NeSSASelector, "select", _spanned("core.select", _selection_facts))
        patch(
            feedback.FeedbackLoop,
            "sync",
            _spanned("core.feedback", lambda _, nbytes: {"bytes": int(nbytes)}),
        )
