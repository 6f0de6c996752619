"""One-call reproduction summary: every headline number, paper vs measured.

``reproduction_summary()`` evaluates the fast experiments (everything that
doesn't train a network) and returns structured rows;
``render_summary()`` formats them as the table printed by
``python -m repro.cli report``.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..climate.stats import PAPER_DATASET
from ..comm.coordinator import (
    ReadinessSchedule,
    centralized_negotiation,
    hierarchical_negotiation,
)
from ..core.flops import network_flop_table, paper_conv_example_flops, paper_network
from ..core.losses import class_weights, tc_penalty_ratio
from ..hpc.specs import SUMMIT, V100
from ..io.readers import scaled_read_bandwidth
from ..io.staging import plan_staging
from .memory import max_batch
from .report import format_table
from .scaling import weak_scaling_curve
from .singlegpu import PAPER_FIG2, figure2_table

__all__ = ["SummaryRow", "reproduction_summary", "render_summary"]


@dataclass(frozen=True)
class SummaryRow:
    """One headline comparison."""

    experiment: str
    metric: str
    paper: str
    measured: str


def reproduction_summary() -> list[SummaryRow]:
    """Evaluate the model-based experiments and collect the comparisons."""
    import numpy as np

    rows: list[SummaryRow] = []

    # Section VI worked example.
    rows.append(SummaryRow("Sec VI", "3x3 conv example GFLOPs", "48.9",
                           f"{paper_conv_example_flops()/1e9:.1f}"))

    # Figure 2 operation counts + one rate per network.
    for r in network_flop_table():
        rows.append(SummaryRow("Fig 2", f"{r.name} TF/sample",
                               f"{r.paper_tf_per_sample}",
                               f"{r.tf_per_sample:.2f}"))
    for p in figure2_table():
        paper = PAPER_FIG2[(p.network, p.gpu, p.precision)]
        rows.append(SummaryRow(
            "Fig 2", f"{p.network} {p.gpu} {p.precision} samples/s",
            f"{paper[1]}", f"{p.samples_per_second:.2f}"))

    # Memory-capacity batch limits (Section VII-A).
    dl = paper_network("deeplabv3+")
    rows.append(SummaryRow("Sec VII-A", "DeepLab V100 max batch fp32/fp16",
                           "1 / 2",
                           f"{max_batch(dl, (16, 768, 1152), 'fp32', V100, 3)}"
                           f" / {max_batch(dl, (16, 768, 1152), 'fp16', V100, 4)}"))

    # Figure 4 anchors.
    daint = weak_scaling_curve("tiramisu_4ch", "piz_daint", "fp32", lag=0,
                               gpu_counts=[5300])[0]
    rows.append(SummaryRow("Fig 4", "Piz Daint 5300 GPUs PF/s @ eff",
                           "21.0 @ 79.0%",
                           f"{daint.sustained_pflops:.1f} @ "
                           f"{daint.efficiency*100:.1f}%"))
    for prec, paper in (("fp32", "325.8 @ 90.7%"), ("fp16", "999.0 @ 90.7%")):
        p = weak_scaling_curve("deeplabv3+", "summit", prec, lag=1,
                               gpu_counts=[27360])[0]
        rows.append(SummaryRow("Fig 4", f"Summit 27360 {prec} PF/s @ eff",
                               paper,
                               f"{p.sustained_pflops:.0f} @ "
                               f"{p.efficiency*100:.1f}%"))

    # Staging (Section V-A1).
    fb, nf = PAPER_DATASET.sample_bytes, PAPER_DATASET.num_samples
    naive = plan_staging(SUMMIT, nf, fb, 1024, strategy="naive")
    dist = plan_staging(SUMMIT, nf, fb, 1024, strategy="distributed")
    rows.append(SummaryRow("Sec V-A1", "naive staging @1024 nodes",
                           "10-20 min", f"{naive.total_time_s/60:.1f} min"))
    rows.append(SummaryRow("Sec V-A1", "distributed staging @1024 nodes",
                           "< 3 min", f"{dist.total_time_s/60:.2f} min"))
    rows.append(SummaryRow("Sec V-A1", "8-thread read speedup", "6.7x",
                           f"{scaled_read_bandwidth(8, 1.79e9)/1.79e9:.2f}x"))

    # Control plane (Section V-A3).
    s = ReadinessSchedule.random(4096, 110, seed=0)
    c = centralized_negotiation(s)
    h = hierarchical_negotiation(s, radix=4)
    rows.append(SummaryRow("Sec V-A3", "control msgs/step @4096 ranks",
                           "millions -> thousands",
                           f"{c.controller_load:,} -> "
                           f"{int((h.messages_sent + h.messages_received).max()):,}"))

    # Weighted loss (Section V-B1).
    freqs = np.array([0.9822, 0.00073, 0.017])
    ratio = tc_penalty_ratio(class_weights(freqs, "inverse_sqrt"))
    rows.append(SummaryRow("Sec V-B1", "TC FN/FP penalty ratio", "~37x",
                           f"{ratio:.1f}x"))
    return rows


def render_summary() -> str:
    rows = reproduction_summary()
    return format_table(
        ["experiment", "metric", "paper", "measured"],
        [[r.experiment, r.metric, r.paper, r.measured] for r in rows],
        title="Reproduction summary - paper vs measured",
    )
