"""End-to-end simulated training systems.

:mod:`repro.pipeline.system` composes the SmartSSD device model, the GPU
compute model and the host ingest model into per-epoch timing and
data-movement ledgers for each training strategy (full-data, CRAIG,
k-centers, NeSSA) — the machinery behind Figure 4 and the paper's
3.47x / 5.37x / 2.14x headline numbers.  It prices the paper-scale
hardware; nothing here replays a measured training run.

:mod:`repro.pipeline.experiment` is the glue the benchmarks use to run
accuracy experiments (trainers over synthetic data) with consistent
configuration and reporting.

Nothing is re-exported, so training loads no device or timing model.
"""
