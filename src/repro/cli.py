"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``info``     print the paper-scale dataset registry (Tables 1 and 2).
``train``    run one accuracy experiment (any method, any dataset).
``system``   price the per-epoch strategies for a dataset (Figure 4 view).
``kernel``   synthesize the selection kernel and print Table 4.
``report``   aggregate a ``--trace`` JSONL run-trace into the paper's
             headline table (time per phase, bytes over the link,
             selection overhead); ``--chrome`` converts it for Perfetto,
             ``--flame`` writes a collapsed-stack flamegraph
             (``--flame-weight wall|bytes``).
``obsdiff``  align two JSONL run-traces by deterministic span id and
             report an ``ok`` / ``regressed`` / ``structural-drift``
             verdict; ``--fail-on`` picks the exit-nonzero threshold,
             ``--tolerance`` the relative wall-time slack (``inf`` to
             ignore timing entirely — the exact byte/counter gate).

``train`` and ``system`` accept ``--trace PATH``: a
:mod:`repro.obs` tracer + metrics registry is installed for the run and
the JSONL trace (spans + final metrics snapshot) is written to PATH.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from dataclasses import replace

from repro.data.registry import DATASETS

__all__ = ["main"]


@contextlib.contextmanager
def _traced(path: str | None, run: str):
    """Under ``--trace PATH``, install tracer + metrics for the body and
    write the JSONL trace to PATH afterwards; otherwise do nothing."""
    if not path:
        yield
        return
    from repro import obs

    tracer = obs.Tracer(run=run)
    registry = obs.MetricsRegistry()
    prev_tracer = obs.set_tracer(tracer)
    prev_metrics = obs.set_metrics(registry)
    try:
        yield
    finally:
        obs.set_metrics(prev_metrics)
        obs.set_tracer(prev_tracer)
        obs.write_jsonl(path, tracer, registry)
        print(f"trace written to {path}")


def _fraction(text: str) -> float:
    """argparse type: a subset fraction in (0, 1]."""
    if not 0.0 < float(text) <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {text}")
    return float(text)


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return int(text)


def _nonnegative_int(text: str) -> int:
    """argparse type: an integer >= 0 (a numpy seed)."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return int(text)


def _positive_float(text: str) -> float:
    """argparse type: a finite float > 0."""
    if not 0.0 < float(text) < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return float(text)


def _cmd_info(args) -> int:
    print(f"{'dataset':13s} {'classes':>7s} {'train':>8s} {'B/image':>8s} "
          f"{'model':>9s} {'full%':>6s} {'nessa%':>7s} {'subset%':>8s}")
    for name, info in DATASETS.items():
        print(
            f"{name:13s} {info.num_classes:>7d} {info.train_size:>8,d} "
            f"{info.bytes_per_image:>8,d} {info.model:>9s} "
            f"{info.paper_full_acc:>6.2f} {info.paper_nessa_acc:>7.2f} "
            f"{info.paper_subset_pct:>8d}"
        )
    return 0


def _cmd_train(args) -> int:
    from repro.core.config import NeSSAConfig, TrainRecipe
    from repro.pipeline.experiment import make_data, run_method

    train_set, test_set = make_data(args.dataset, scale=args.scale, seed=args.data_seed)
    recipe = replace(
        TrainRecipe().scaled(args.epochs),
        batch_size=args.batch_size,
        lr=args.lr,
        clip_grad_norm=5.0,
    )
    nessa_config = None
    if args.method.startswith("nessa"):
        nessa_config = NeSSAConfig(
            subset_fraction=args.fraction or DATASETS[args.dataset].subset_fraction,
            biasing_drop_period=max(3, args.epochs // 3),
            seed=args.seed,
        )
    with _traced(args.trace, run=f"train-{args.method}-{args.dataset}"):
        result = run_method(
            args.dataset,
            args.method,
            train_set,
            test_set,
            recipe,
            subset_fraction=args.fraction,
            nessa_config=nessa_config,
            seed=args.seed,
        )
    history = result.history
    print(f"{args.method} on {args.dataset}: "
          f"final={100 * history.final_accuracy:.2f}% "
          f"stable={100 * history.stable_accuracy():.2f}% "
          f"best={100 * history.best_accuracy:.2f}%")
    print(f"samples trained: {history.total_samples_trained:,} "
          f"(mean subset {100 * history.mean_subset_fraction:.1f}%)")
    if args.save_history:
        from repro.core.metrics import save_history

        path = save_history(history, args.save_history)
        print(f"history written to {path}")
    return 0


def _cmd_system(args) -> int:
    from repro import obs
    from repro.pipeline.system import SystemModel, average_speedups, data_movement_summary

    model = SystemModel(args.dataset)
    with _traced(args.trace, run=f"system-{args.dataset}"):
        pricers = {
            "full": model.full_epoch,
            "craig": model.craig_epoch,
            "kcenters": model.kcenters_epoch,
            "nessa": model.nessa_epoch,
        }
        table = {}
        for name, price in pricers.items():
            # Modelled (not measured) numbers ride as span attributes; the
            # modelled_* byte attr keeps them out of the report's measured
            # data-moved reconciliation.
            with obs.span("strategy_price", key=name, dataset=args.dataset) as sp:
                timing = table[name] = price()
                sp.set(
                    modelled_ingest_s=timing.ingest_time,
                    modelled_select_s=timing.selection_time,
                    modelled_compute_s=timing.compute_time,
                    modelled_total_s=timing.total,
                    modelled_link_bytes=int(timing.movement.over_host_interconnect),
                )
    print(f"per-epoch strategy costs for {args.dataset} (modelled seconds):")
    for name, timing in table.items():
        print(f"  {name:9s} ingest={timing.ingest_time:8.2f} "
              f"select={timing.selection_time:8.2f} "
              f"compute={timing.compute_time:8.2f} total={timing.total:8.2f}")
    print("\nper-epoch energy (joules):")
    for name, joules in model.energy_table().items():
        print(f"  {name:9s} {joules:10.1f} J")
    speedups = average_speedups()
    movement = data_movement_summary()
    print(f"\ncross-dataset averages: "
          f"{speedups['full']:.2f}x vs full (paper 5.37x), "
          f"{movement['average']:.2f}x less movement (paper 3.47x)")
    return 0


def _cmd_kernel(args) -> int:
    from repro.smartssd.kernel import SelectionKernel

    kernel = SelectionKernel()
    usage = kernel.resource_usage()
    print("selection kernel on the KU15P (paper Table 4):")
    for res, pct in kernel.utilization_percent().items():
        print(f"  {res:5s} {usage[res]:>9,d}  {pct:6.2f}%")
    print(f"  int8 throughput {kernel.macs_per_second / 1e9:.0f} GMAC/s, "
          f"max on-chip tile {kernel.max_chunk_for_onchip()}^2")
    return 0


def _cmd_report(args) -> int:
    from repro import obs

    try:
        trace = obs.read_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"report: {exc}")
        return 2
    if not trace["spans"]:
        print(f"report: {args.trace} holds no spans (run {trace['meta'].get('run', '?')})")
        return 0
    print(obs.render_report(trace))
    if args.chrome:
        path = obs.write_chrome_trace(args.chrome, trace["spans"],
                                      run=trace["meta"].get("run", "run"))
        print(f"\nchrome trace written to {path} "
              "(load in chrome://tracing or ui.perfetto.dev)")
    if args.flame:
        path = obs.write_folded(args.flame, trace["spans"],
                                weight=args.flame_weight)
        print(f"\nfolded stacks ({args.flame_weight}) written to {path} "
              "(render with flamegraph.pl or speedscope)")
    return 0


def _cmd_obsdiff(args) -> int:
    from repro import obs

    try:
        diff = obs.diff_trace_files(
            args.trace_a,
            args.trace_b,
            tolerance=args.tolerance,
            min_dur_s=args.min_dur,
        )
    except (OSError, ValueError) as exc:
        print(f"obsdiff: {exc}")
        return 2
    if args.format == "json":
        import json

        print(json.dumps(diff.to_dict(), indent=2))
    else:
        print(diff.render())
    fail_floor = {"none": len(obs.diff.VERDICTS), "regressed": 1,
                  "structural-drift": 2}[args.fail_on]
    return 1 if diff.severity >= fail_floor else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="print the dataset registry")

    train = sub.add_parser("train", help="run one accuracy experiment")
    train.add_argument("--dataset", choices=sorted(DATASETS), default="cifar10")
    train.add_argument(
        "--method",
        default="nessa",
        choices=["full", "nessa", "nessa-vanilla", "nessa-sb", "nessa-pa",
                 "craig", "kcenters", "random"],
    )
    train.add_argument("--fraction", type=_fraction, default=None)
    train.add_argument("--epochs", type=_positive_int, default=24)
    train.add_argument("--batch-size", type=_positive_int, default=64)
    train.add_argument("--lr", type=_positive_float, default=0.03)
    train.add_argument("--scale", type=_positive_float, default=0.6)
    train.add_argument("--seed", type=_nonnegative_int, default=1)
    train.add_argument("--data-seed", type=_nonnegative_int, default=3)
    train.add_argument("--save-history", default=None, metavar="PATH")
    train.add_argument("--trace", default=None, metavar="PATH",
                       help="record a repro.obs run-trace (JSONL) to PATH")

    system = sub.add_parser("system", help="price the per-epoch strategies")
    system.add_argument("--dataset", choices=sorted(DATASETS), default="cifar10")
    system.add_argument("--trace", default=None, metavar="PATH",
                        help="record a repro.obs run-trace (JSONL) to PATH")

    sub.add_parser("kernel", help="synthesize the selection kernel (Table 4)")

    report = sub.add_parser("report", help="aggregate a recorded run-trace")
    report.add_argument("trace", metavar="TRACE",
                        help="JSONL trace written by a --trace run")
    report.add_argument("--chrome", default=None, metavar="PATH",
                        help="also write a Chrome trace_event JSON for "
                             "chrome://tracing / Perfetto")
    report.add_argument("--flame", default=None, metavar="PATH",
                        help="also write a collapsed-stack flamegraph "
                             "(flamegraph.pl / speedscope folded format)")
    report.add_argument("--flame-weight", choices=["wall", "bytes"],
                        default="wall",
                        help="flame weight: self wall-time (default) or "
                             "data-movement bytes")

    obsdiff = sub.add_parser(
        "obsdiff", help="diff two recorded run-traces (regression gate)")
    obsdiff.add_argument("trace_a", metavar="TRACE_A",
                         help="baseline JSONL trace")
    obsdiff.add_argument("trace_b", metavar="TRACE_B",
                         help="candidate JSONL trace")
    obsdiff.add_argument("--tolerance", type=float, default=0.25,
                         help="allowed relative wall-time slowdown per span "
                              "(default 0.25; 'inf' ignores timing)")
    obsdiff.add_argument("--min-dur", type=float, default=0.005,
                         help="ignore wall-time deltas when both sides are "
                              "below this many seconds (default 0.005)")
    obsdiff.add_argument("--format", choices=["text", "json"], default="text")
    obsdiff.add_argument("--fail-on",
                         choices=["none", "regressed", "structural-drift"],
                         default="regressed",
                         help="lowest verdict that exits non-zero "
                              "(default: regressed)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "info": _cmd_info,
        "train": _cmd_train,
        "system": _cmd_system,
        "kernel": _cmd_kernel,
        "report": _cmd_report,
        "obsdiff": _cmd_obsdiff,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
