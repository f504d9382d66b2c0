"""Extension benches: §2.2 suitability criteria and the energy story.

Not a table in the paper, but the quantitative backbone of two of its
arguments: (a) subset selection is a *suitable* near-storage workload
(high data ratio + low operational intensity, after [33]); (b) doing it
on the 7.5 W FPGA beats burning GPU or CPU watts (§2.2's K1200/A100
comparison).
"""

from repro.data.registry import DATASETS
from repro.perf.suitability import analyze_selection_workload
from repro.pipeline.system import SystemModel
from repro.smartssd.link import p2p_link

from benchmarks._shared import write_table


def test_ext_suitability_criteria():
    def analyze_all():
        sustained = p2p_link().sustained_bytes_per_s
        out = {}
        for name, info in DATASETS.items():
            model = SystemModel(name)
            # The head reads one int8 byte per embedding dimension.
            head = analyze_selection_workload(
                bytes_read_per_sample=model.embedding_dim,
                macs_per_sample=model.embedding_dim * info.num_classes,
                subset_fraction=info.subset_fraction,
                drive_bytes_per_s=sustained,
            )
            full_cnn = analyze_selection_workload(
                bytes_read_per_sample=info.bytes_per_image,
                macs_per_sample=model.forward_flops / 2.0,
                subset_fraction=info.subset_fraction,
                drive_bytes_per_s=sustained,
            )
            out[name] = (head, full_cnn)
        return out

    reports = analyze_all()

    lines = ["Near-storage suitability (paper §2.2 criteria, per dataset)"]
    lines.append(f"{'dataset':13s} {'data ratio':>10s} {'head kernel':>28s} {'full-CNN kernel':>18s}")
    for name, (head, full_cnn) in reports.items():
        lines.append(
            f"{name:13s} {head.data_ratio:>9.2f}x "
            f"{head.kernel_bytes_per_s / 1e9:>12.2f} GB/s ({'OK' if head.suitable else 'NO'})"
            f"{full_cnn.kernel_bytes_per_s / 1e9:>12.3f} GB/s ({'OK' if full_cnn.suitable else 'NO'})"
        )
    write_table("ext_suitability", lines)

    for name, (head, full_cnn) in reports.items():
        # Head scoring passes both criteria everywhere...
        assert head.suitable, name
        # ...while full-CNN scoring bottlenecks the drive everywhere.
        assert not full_cnn.saturates_drive, name
        # Data ratio = |V|/|S| is 2.6-6.7x across the paper's fractions.
        assert 2.5 < head.data_ratio < 7.0


def test_ext_energy_per_epoch():
    def energy_all():
        return {name: SystemModel(name).energy_table() for name in DATASETS}

    tables = energy_all()

    lines = ["Per-epoch energy (modelled joules)"]
    lines.append(f"{'dataset':13s} {'full':>10s} {'craig':>10s} {'kcenters':>10s} {'nessa':>10s}")
    for name, table in tables.items():
        lines.append(
            f"{name:13s} {table['full']:>10.0f} {table['craig']:>10.0f} "
            f"{table['kcenters']:>10.0f} {table['nessa']:>10.0f}"
        )
    write_table("ext_energy", lines)

    for name, table in tables.items():
        assert table["nessa"] == min(table.values()), name
        # The energy win is at least 2x vs full training.
        assert table["full"] / table["nessa"] > 2.0, name
