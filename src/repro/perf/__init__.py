"""Performance models: GPU throughput, FLOP counting, epoch-time breakdown.

The paper's timing figures are measurements on V100/A100 testbeds; this
package recomputes them from first principles — per-model FLOP counts,
device throughput envelopes with a small-model utilization penalty, and a
host data-ingest model (storage read + decode + collate) — calibrated
against the figures' published anchor points (Figure 2's 5.4%/40.4%
data-movement shares, Figure 6's link throughputs).

Nothing is re-exported, so the selection path loads :mod:`repro.perf.flops` alone.
"""
