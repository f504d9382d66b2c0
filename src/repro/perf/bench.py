"""Microbenchmark harness with regression checking for the hot-path kernels.

Each bench is registered under a dotted name inside a group
(``selection``, ``nn`` or ``parallel``) and builds its inputs once,
outside the timed region.  :func:`run_bench` runs warmup + repeated
timed calls and reports
median / p90 / min / mean wall-clock seconds.  Where the seed
implementation of a kernel is still available (kept as a reference —
``naive_pairwise_distances``, ``lazy_greedy_reference``,
``_im2col_loop`` / ``_col2im_loop``), the bench also times it and
records ``speedup_vs_seed``, so every optimization claim in the repo is
reproducible from one command::

    PYTHONPATH=src python -m repro.cli bench --group all

Results serialize to JSON (``BENCH_selection.json`` / ``BENCH_nn.json``
/ ``BENCH_parallel.json`` at the repo root are the committed baselines);
:func:`compare` flags any bench whose median regressed beyond a
tolerance, and ``repro.cli bench --check`` exits non-zero on regression.
Timings on shared/noisy machines vary run-to-run, hence the generous
default tolerance.  Since schema v2 every case also records its
``peak_rss_bytes`` (parent-process high-water mark, reset per case
where the kernel allows).
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from repro import obs

__all__ = [
    "BenchCase",
    "BenchResult",
    "register_bench",
    "registered_benches",
    "run_bench",
    "run_group",
    "results_to_dict",
    "write_results",
    "load_results",
    "compare",
]

GROUPS = ("selection", "nn", "parallel")
SIZES = ("tiny", "default")
DEFAULT_TOLERANCE = 0.5
SCHEMA_VERSION = 2  # v2 added peak_rss_bytes; compare() tolerates v1 docs


@dataclass
class BenchCase:
    """One prepared benchmark: closures over pre-built inputs.

    ``run`` is the optimized kernel under test; ``seed_run`` (optional)
    is the seed implementation on the same inputs, used to report the
    before/after speedup.  ``params`` records the input sizes for the
    JSON output.
    """

    run: Callable[[], object]
    seed_run: Callable[[], object] | None = None
    params: dict = field(default_factory=dict)


@dataclass
class BenchResult:
    """Timing summary of one bench at one size."""

    name: str
    group: str
    size: str
    repeats: int
    warmup: int
    median_s: float
    p90_s: float
    min_s: float
    mean_s: float
    seed_median_s: float | None = None
    speedup_vs_seed: float | None = None
    peak_rss_bytes: int | None = None
    params: dict = field(default_factory=dict)


_REGISTRY: dict[str, tuple[str, Callable[[str], BenchCase]]] = {}


def register_bench(name: str, group: str):
    """Decorator registering ``make(size) -> BenchCase`` under ``name``."""
    if group not in GROUPS:
        raise ValueError(f"unknown bench group {group!r} (use one of {GROUPS})")

    def decorator(make: Callable[[str], BenchCase]):
        if name in _REGISTRY:
            raise ValueError(f"bench {name!r} already registered")
        _REGISTRY[name] = (group, make)
        return make

    return decorator


def registered_benches(group: str | None = None) -> list[str]:
    """Names of registered benches, optionally filtered by group."""
    return sorted(n for n, (g, _) in _REGISTRY.items() if group in (None, g))


def _time(fn: Callable[[], object], repeats: int, warmup: int) -> list[float]:
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return times


def _percentile(times: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(times), q))


def _reset_peak_rss() -> None:
    """Reset the kernel's RSS high-water mark (Linux; best effort)."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def _read_peak_rss_bytes() -> int | None:
    """This process's peak RSS in bytes, or ``None`` when unreadable.

    Reads ``VmHWM`` from ``/proc/self/status`` (resettable per bench via
    :func:`_reset_peak_rss` on kernels that allow it); falls back to the
    monotone ``ru_maxrss`` elsewhere, which then upper-bounds the case.
    """
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    try:
        import resource

        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024
    except (ImportError, AttributeError, OSError, ValueError):
        # No resource module (non-unix), no RUSAGE_SELF, or an unreadable
        # rusage: peak RSS is simply unavailable on this platform.
        return None


def run_bench(
    name: str,
    size: str = "default",
    repeats: int = 5,
    warmup: int = 1,
    with_seed: bool = True,
) -> BenchResult:
    """Build and time one registered bench; see module docstring."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown bench {name!r} (registered: {registered_benches()})")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r} (use one of {SIZES})")
    if repeats < 1 or warmup < 0:
        raise ValueError("repeats must be >= 1 and warmup >= 0")
    group, make = _REGISTRY[name]
    case = make(size)

    with obs.span("bench", bench=name, group=group, size=size) as sp:
        _reset_peak_rss()
        times = _time(case.run, repeats, warmup)
        peak_rss = _read_peak_rss_bytes()
        seed_median = None
        speedup = None
        if with_seed and case.seed_run is not None:
            # The seed kernels are the slow side; half the repeats keeps the
            # total bench wall-clock reasonable without hurting the median.
            seed_times = _time(case.seed_run, max(1, repeats // 2), warmup)
            seed_median = statistics.median(seed_times)
            speedup = seed_median / statistics.median(times)
        sp.set(median_s=statistics.median(times), repeats=repeats)

    return BenchResult(
        name=name,
        group=group,
        size=size,
        repeats=repeats,
        warmup=warmup,
        median_s=statistics.median(times),
        p90_s=_percentile(times, 90),
        min_s=min(times),
        mean_s=statistics.fmean(times),
        seed_median_s=seed_median,
        speedup_vs_seed=speedup,
        peak_rss_bytes=peak_rss,
        params=case.params,
    )


def run_group(
    group: str,
    size: str = "default",
    repeats: int = 5,
    warmup: int = 1,
    with_seed: bool = True,
) -> list[BenchResult]:
    """Run every bench registered under ``group``."""
    return [
        run_bench(name, size=size, repeats=repeats, warmup=warmup, with_seed=with_seed)
        for name in registered_benches(group)
    ]


def results_to_dict(results: list[BenchResult]) -> dict:
    """Serializable document for one group's results (schema v2).

    Schema history: v1 had no ``peak_rss_bytes``; v2 records it per
    case.  :func:`compare` keys on medians only, so v1 baselines remain
    comparable.
    """
    return {"schema": SCHEMA_VERSION, "results": [asdict(r) for r in results]}


def write_results(path, results: list[BenchResult]) -> None:
    """Write results as pretty JSON (the committed-baseline format)."""
    with open(path, "w") as f:
        json.dump(results_to_dict(results), f, indent=2, sort_keys=True)
        f.write("\n")


def load_results(path) -> dict[str, dict]:
    """Load a results JSON as ``{bench name: result dict}``.

    Accepts schema v1 (pre-RSS) and v2 baselines; older documents simply
    lack ``peak_rss_bytes``, which no comparison requires.
    """
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") not in (1, SCHEMA_VERSION):
        raise ValueError(f"unsupported bench schema {doc.get('schema')!r}")
    return {r["name"]: r for r in doc["results"]}


def compare(
    current: list[BenchResult],
    baseline: dict[str, dict],
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[dict]:
    """Compare current medians against a baseline document.

    A bench regresses when ``median > baseline_median * (1 + tolerance)``.
    Benches missing from the baseline are reported with ``regressed=False``
    (new benches are not regressions).  Returns one row per current result.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    rows = []
    for result in current:
        base = baseline.get(result.name)
        if base is None:
            rows.append(
                {"name": result.name, "current_median_s": result.median_s,
                 "baseline_median_s": None, "ratio": None, "regressed": False}
            )
            continue
        ratio = result.median_s / base["median_s"]
        rows.append(
            {
                "name": result.name,
                "current_median_s": result.median_s,
                "baseline_median_s": base["median_s"],
                "ratio": ratio,
                "regressed": ratio > 1.0 + tolerance,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Registered benches.  Input construction happens in the make functions,
# outside the timed region; sizes follow the repo's acceptance configs.
# ---------------------------------------------------------------------------


def _selection_inputs(size: str, n_default: tuple, n_tiny: tuple):
    return n_default if size == "default" else n_tiny


@register_bench("selection.pairwise_distances", "selection")
def _bench_pairwise(size: str) -> BenchCase:
    from repro.selection.pairwise import naive_pairwise_distances, pairwise_distances

    n, d = _selection_inputs(size, (2000, 10), (200, 8))
    vectors = np.random.default_rng(0).normal(size=(n, d))
    return BenchCase(
        run=lambda: pairwise_distances(vectors),
        seed_run=lambda: naive_pairwise_distances(vectors),
        params={"n": n, "d": d},
    )


@register_bench("selection.lazy_greedy", "selection")
def _bench_lazy_greedy(size: str) -> BenchCase:
    from repro.selection.facility import (
        lazy_greedy,
        lazy_greedy_reference,
        similarity_from_distances,
    )
    from repro.selection.pairwise import pairwise_distances

    n, d, k = _selection_inputs(size, (1200, 10, 200), (80, 8, 12))
    vectors = np.random.default_rng(1).normal(size=(n, d))
    similarity = similarity_from_distances(pairwise_distances(vectors))
    return BenchCase(
        run=lambda: lazy_greedy(similarity, k, validate=False),
        seed_run=lambda: lazy_greedy_reference(similarity, k),
        params={"n": n, "d": d, "k": k},
    )


@register_bench("selection.stochastic_greedy", "selection")
def _bench_stochastic_greedy(size: str) -> BenchCase:
    from repro.selection.facility import similarity_from_distances, stochastic_greedy
    from repro.selection.pairwise import pairwise_distances

    n, d, k = _selection_inputs(size, (2000, 10, 300), (150, 8, 20))
    vectors = np.random.default_rng(2).normal(size=(n, d))
    similarity = similarity_from_distances(pairwise_distances(vectors))

    def seed_run():
        # Seed stochastic greedy: strided column gathers per step.
        rng = np.random.default_rng(0)
        sample_size = max(1, min(int(np.ceil(n / k * np.log(10.0))), n))
        current_best = np.zeros(n)
        unselected = np.ones(n, dtype=bool)
        for _ in range(k):
            pool = np.flatnonzero(unselected)
            cand = rng.choice(pool, size=min(sample_size, len(pool)), replace=False)
            gains = np.maximum(similarity[:, cand] - current_best[:, None], 0.0).sum(axis=0)
            j = int(cand[np.argmax(gains)])
            unselected[j] = False
            current_best = np.maximum(current_best, similarity[:, j])

    return BenchCase(
        run=lambda: stochastic_greedy(
            similarity, k, rng=np.random.default_rng(0), validate=False
        ),
        seed_run=seed_run,
        params={"n": n, "d": d, "k": k},
    )


@register_bench("selection.selection_round", "selection")
def _bench_selection_round(size: str) -> BenchCase:
    """End-to-end CRAIG class round: distances -> similarity -> greedy -> weights."""
    from repro.selection.facility import (
        lazy_greedy,
        lazy_greedy_reference,
        medoid_weights,
        similarity_from_distances,
    )
    from repro.selection.pairwise import naive_pairwise_distances, pairwise_distances

    n, d, k = _selection_inputs(size, (2000, 10, 300), (150, 8, 20))
    vectors = np.random.default_rng(3).normal(size=(n, d))

    def run():
        similarity = similarity_from_distances(pairwise_distances(vectors))
        sel = lazy_greedy(similarity, k, validate=False)
        return medoid_weights(similarity, sel)

    def seed_run():
        similarity = similarity_from_distances(naive_pairwise_distances(vectors))
        sel = lazy_greedy_reference(similarity, k)
        return medoid_weights(similarity, sel)

    return BenchCase(run=run, seed_run=seed_run, params={"n": n, "d": d, "k": k})


def _conv_inputs(size: str):
    n, c_in, hw, c_out = (16, 3, 32, 8) if size == "default" else (2, 3, 8, 4)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(n, c_in, hw, hw)).astype(np.float32)
    w = rng.normal(size=(c_out, c_in, 3, 3)).astype(np.float32)
    return x, w, {"n": n, "c_in": c_in, "hw": hw, "c_out": c_out, "k": 3,
                  "stride": 1, "pad": 1}


def _seed_conv2d(x, weight, stride, pad):
    """Seed forward: loop im2col + row-major GEMM + output transpose."""
    from repro.nn import functional as F

    n, _, h, w = x.shape
    c_out, _, k, _ = weight.shape
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    cols = F._im2col_loop(x, k, stride, pad)
    out = cols @ weight.reshape(c_out, -1).T
    return out.reshape(n, oh, ow, c_out).transpose(0, 3, 1, 2), cols


def _seed_conv2d_backward(grad_out, cols, x_shape, weight, stride, pad):
    """Seed backward: grad transpose-gathers + loop col2im."""
    from repro.nn import functional as F

    c_out, c_in, k, _ = weight.shape
    grad_flat = grad_out.transpose(0, 2, 3, 1).reshape(-1, c_out)
    grad_weight = (grad_flat.T @ cols).reshape(c_out, c_in, k, k)
    grad_cols = grad_flat @ weight.reshape(c_out, -1)
    grad_x = F._col2im_loop(grad_cols, x_shape, k, stride, pad)
    return grad_x, grad_weight


@register_bench("nn.im2col", "nn")
def _bench_im2col(size: str) -> BenchCase:
    from repro.nn import functional as F

    x, _, params = _conv_inputs(size)
    return BenchCase(
        run=lambda: F.im2col(x, 3, 1, 1),
        seed_run=lambda: F._im2col_loop(x, 3, 1, 1),
        params=params,
    )


@register_bench("nn.conv2d_forward", "nn")
def _bench_conv2d_forward(size: str) -> BenchCase:
    from repro.nn import functional as F

    x, w, params = _conv_inputs(size)
    return BenchCase(
        run=lambda: F.conv2d(x, w, stride=1, pad=1),
        seed_run=lambda: _seed_conv2d(x, w, 1, 1),
        params=params,
    )


@register_bench("nn.conv2d_fwd_bwd", "nn")
def _bench_conv2d_fwd_bwd(size: str) -> BenchCase:
    """Full training step of one conv layer: forward + backward."""
    from repro.nn import functional as F

    x, w, params = _conv_inputs(size)
    grad_out_shape = (x.shape[0], w.shape[0], x.shape[2], x.shape[3])
    grad_out = np.random.default_rng(5).normal(size=grad_out_shape).astype(np.float32)

    def run():
        out, cols = F.conv2d(x, w, stride=1, pad=1)
        return F.conv2d_backward(grad_out, cols, x.shape, w, 1, 1)

    def seed_run():
        out, cols = _seed_conv2d(x, w, 1, 1)
        return _seed_conv2d_backward(grad_out, cols, x.shape, w, 1, 1)

    return BenchCase(run=run, seed_run=seed_run, params=params)


# -- parallel group: selection work units + proxy cache ----------------------
#
# ``selection_round_w1`` keeps the name its committed baseline was
# recorded under: one planned round through SelectionExecutor.run_units.


@register_bench("parallel.selection_round_w1", "parallel")
def _bench_selection_round(size: str) -> BenchCase:
    from repro.parallel.engine import SelectionExecutor, SelectionSpec
    from repro.parallel.scheduler import plan_selection_round

    n, d, classes, k, m = (
        (2000, 10, 4, 300, 32) if size == "default" else (200, 8, 4, 40, 10)
    )
    rng = np.random.default_rng(6)
    vectors = rng.normal(size=(n, d))
    labels = np.sort(rng.integers(0, classes, size=n))
    units = plan_selection_round(
        labels, k, seed=0, round_index=0, chunk_select=m
    )
    spec = SelectionSpec()
    executor = SelectionExecutor()
    return BenchCase(
        run=lambda: executor.run_units(vectors, units, spec),
        params={"n": n, "d": d, "classes": classes, "k": k,
                "chunk_select": m, "units": len(units)},
    )


def _proxy_cache_inputs(size: str):
    from repro.nn.resnet import resnet20

    n = 256 if size == "default" else 32
    rng = np.random.default_rng(8)
    x = rng.normal(size=(n, 3, 8, 8)).astype(np.float32)
    y = rng.integers(0, 4, size=n)
    ids = np.arange(n, dtype=np.int64)
    model = resnet20(num_classes=4, width=4, seed=9)
    return model, x, y, ids, {"n": n}


@register_bench("parallel.proxy_cache_hit", "parallel")
def _bench_proxy_cache_hit(size: str) -> BenchCase:
    """Steady-state hit: unchanged weights + pool skip the forward pass."""
    from repro.parallel.cache import ProxyCache
    from repro.selection.gradients import compute_gradient_proxies

    model, x, y, ids, params = _proxy_cache_inputs(size)
    cache = ProxyCache(max_entries=2)
    compute_gradient_proxies(model, x, y, ids=ids, cache=cache)  # warm

    return BenchCase(
        run=lambda: compute_gradient_proxies(model, x, y, ids=ids, cache=cache),
        seed_run=lambda: compute_gradient_proxies(model, x, y, ids=ids),
        params=params,
    )


@register_bench("parallel.proxy_cache_miss", "parallel")
def _bench_proxy_cache_miss(size: str) -> BenchCase:
    """Worst case: the pool alternates every round, so every lookup misses."""
    from repro.parallel.cache import ProxyCache
    from repro.selection.gradients import compute_gradient_proxies

    model, x, y, ids, params = _proxy_cache_inputs(size)
    cache = ProxyCache(max_entries=1)
    pools = [ids, ids[::-1].copy()]
    state = {"round": 0}

    def run():
        state["round"] += 1
        return compute_gradient_proxies(
            model, x, y, ids=pools[state["round"] % 2], cache=cache
        )

    return BenchCase(run=run, params=params)
