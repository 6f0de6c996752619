"""The paper's evaluation numbers, one checked row each.

Every :class:`Claim` pairs one number the paper reports (Figs 2-9,
Sections V-A to VII-A, measured the Section VI way) with the callable that
measures the same quantity here, a band around the paper value and the
reason for that band.  ``CLAIMS`` is the only place those numbers live.

A row whose measurement is known to miss its band carries a
:class:`Deviation`: the value it reads today, pinned to ±1 %, the ROADMAP
item that owns the fix, and why.  A deviation never widens a band, and a
change that moves a pinned value fails until the row is restated.

``repro report`` prints the fast rows (cost models and counts, well under
a second); ``repro report --trained`` adds the rows that train scaled-down
networks (:mod:`repro.perf.trained`, imported only then).  Either exits 1
when a row is out of its band.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from math import inf
from typing import Callable

import numpy as np

from ..climate.stats import PAPER_DATASET
from ..comm.coordinator import (
    ReadinessSchedule,
    centralized_negotiation,
    hierarchical_negotiation,
)
from ..core.flops import network_flop_table, paper_conv_example_flops, paper_network
from ..core.losses import class_weights, tc_penalty_ratio
from ..core.networks import tiramisu_modified, tiramisu_original
from ..core.optim.schedules import paper_lr_for_gpus
from ..framework.init import shape_only
from ..hpc.specs import SUMMIT, V100
from ..io.pipeline import PipelineSimulator, pipeline_throughput
from ..io.readers import scaled_read_bandwidth
from ..io.staging import plan_staging
from .breakdown import kernel_breakdown
from .memory import max_batch
from .report import format_table
from .scaling import step_time_model, weak_scaling_curve
from .singlegpu import figure2_table
from .staging_model import aggregate_demand, figure5_curves

__all__ = ["Band", "Deviation", "Claim", "CLAIMS", "DEVIATIONS", "paper_value",
           "check", "render", "report"]

#: A deviation's pinned value may move this much (relative) before the row
#: fails and has to be restated.
PIN = 0.01


@dataclass(frozen=True)
class Band:
    """Allowed distance below and above the paper value."""

    below: float
    above: float
    relative: bool = False
    unit: str = ""

    def holds(self, paper: float, value: float) -> bool:
        scale = abs(paper) if self.relative else 1.0
        return paper - self.below * scale <= value <= paper + self.above * scale

    def __str__(self) -> str:
        if self.below == self.above == 0:
            return "exact"
        if self.below == inf:
            return "≤"
        if self.above == inf:
            return "≥"
        if self.relative:
            return f"±{self.below * 100:g}%"
        if self.below == 0:
            return f"+{self.above:g}{self.unit}"
        return f"±{self.below:g}{self.unit}"


def rel(fraction: float) -> Band:
    return Band(fraction, fraction, relative=True)


def pm(distance: float, unit: str = "") -> Band:
    return Band(distance, distance, unit=unit)


EXACT = Band(0.0, 0.0)
AT_MOST = Band(inf, 0.0)
AT_LEAST = Band(0.0, inf)


@dataclass(frozen=True)
class Deviation:
    """A known miss: the value read today, the ROADMAP item, the cause."""

    value: float
    item: int
    reason: str


@dataclass(frozen=True)
class Claim:
    """One paper number, how it is measured here, and the band it must meet."""

    id: str
    section: str
    metric: str
    paper: float
    measure: Callable[[], float]
    band: Band
    reason: str
    trained: bool = False
    deviation: Deviation | None = None


@dataclass(frozen=True)
class Result:
    claim: Claim
    value: float
    verdict: str

    @property
    def failed(self) -> bool:
        return self.verdict == "FAIL"


def check(claim: Claim) -> Result:
    """Measure one row and judge it against its band (or its pin)."""
    value = float(claim.measure())
    dev = claim.deviation
    if dev is None:
        ok = claim.band.holds(claim.paper, value)
        return Result(claim, value, "ok" if ok else "FAIL")
    pinned = abs(value - dev.value) <= PIN * abs(dev.value)
    return Result(claim, value, f"item {dev.item}" if pinned else "FAIL")


# -- shared measurements ---------------------------------------------------

@lru_cache(maxsize=None)
def _fig2_table() -> dict:
    return {(p.network, p.precision): p for p in figure2_table()}


def _fig2(network: str, precision: str):
    return _fig2_table()[(network, precision)]


@lru_cache(maxsize=None)
def _tf_per_sample() -> dict[str, float]:
    return {r.name: r.tf_per_sample for r in network_flop_table()}


@lru_cache(maxsize=None)
def _breakdown(network: str, precision: str):
    return kernel_breakdown(network, precision)


def _conv_pct(network: str, precision: str) -> float:
    pct = _breakdown(network, precision).time_pct()
    return pct.get("conv_fwd", 0.0) + pct.get("conv_bwd", 0.0)


def _scaling(network: str, system: str, precision: str, gpus: int, lag: int):
    return weak_scaling_curve(network, system, precision, lag=lag,
                              gpu_counts=[gpus])[0]


@lru_cache(maxsize=None)
def _fig5(gpus: int):
    return figure5_curves(gpu_counts=[gpus])[0]


def _staging(nodes: int, strategy: str):
    return plan_staging(SUMMIT, PAPER_DATASET.num_samples,
                        PAPER_DATASET.sample_bytes, nodes, strategy=strategy)


#: Per-GPU input demand the paper measured for Tiramisu (§V-A1), B/s.
INPUT_PER_GPU = 189e6
#: Seconds to read and decode one 58 MB HDF5 sample on one reader.
PREP_S = 0.7
#: Tensors negotiated per step ("over a hundred", §V-A3).
TENSORS = 110
#: BG, TC, AR pixel shares behind the paper's ~37x TC penalty (§V-B1).
PENALTY_FREQUENCIES = (0.9822, 0.00073, 0.017)


def _pipeline_keeps_up() -> float:
    """Worst ratio of 4-worker pipeline rate to a V100 network's rate."""
    worst = inf
    for network in ("deeplabv3+", "tiramisu"):
        for precision in ("fp32", "fp16"):
            step = 1.0 / _fig2(network, precision).samples_per_second
            worst = min(worst, pipeline_throughput(step, PREP_S, 4) * step)
    return worst


def _hdf5_threads_ratio() -> float:
    """Step time of 4 HDF5-locked reader threads over 1 reader."""
    step = 1.0 / _fig2("deeplabv3+", "fp16").samples_per_second
    locked = PipelineSimulator(step, PREP_S, 4, 8, serialized_workers=True).run(80)
    single = PipelineSimulator(step, PREP_S, 1, 8).run(80)
    return locked.achieved_step_time_s / single.achieved_step_time_s


@lru_cache(maxsize=None)
def _hierarchical_load(ranks: int) -> int:
    h = hierarchical_negotiation(ReadinessSchedule.random(ranks, TENSORS, seed=0),
                                 radix=4)
    return int((h.messages_sent + h.messages_received).max())


def _load_reduction() -> float:
    s = ReadinessSchedule.random(4096, TENSORS, seed=0)
    return centralized_negotiation(s).controller_load / _hierarchical_load(4096)


def _per_tensor_bound() -> float:
    """Worst per-tensor message count over its 2 (r + 1) bound."""
    s = ReadinessSchedule.random(1024, TENSORS, seed=0)
    return max(hierarchical_negotiation(s, radix=r).per_tensor_max_messages()
               / (2 * (r + 1)) for r in (2, 4, 8))


def _radix_spread() -> float:
    s = ReadinessSchedule.random(512, TENSORS, seed=0)
    t = [hierarchical_negotiation(s, radix=r, hop_latency=5e-6).decision_times[-1]
         for r in (2, 4, 8)]
    return (max(t) - min(t)) / max(t)


def _lag_gain_pp() -> float:
    """Smallest lag-1 over lag-0 efficiency gain, DeepLab FP16 on Summit."""
    return min((_scaling("deeplabv3+", "summit", "fp16", n, 1).efficiency
                - _scaling("deeplabv3+", "summit", "fp16", n, 0).efficiency) * 100
               for n in (1536, 6144, 27360))


def _receptive_field_ratio() -> float:
    """Down-path receptive field of the modified Tiramisu over the original."""
    def field(cfg) -> int:
        # Each dense layer adds (k - 1) px at its scale; each pool doubles it.
        rf, scale = 1 + (cfg.kernel - 1), 1
        for layers in (*cfg.down_layers, cfg.bottleneck_layers):
            rf += layers * (cfg.kernel - 1) * scale
            scale *= 2
        return rf

    with shape_only():
        original, modified = tiramisu_original().config, tiramisu_modified().config
    return field(modified) / field(original)


def _trained(experiment: str, key: str) -> Callable[[], float]:
    """A trained row's measure: import the training code only when run."""
    def measure() -> float:
        from . import trained
        return getattr(trained, experiment)()[key]
    return measure


# -- reasons ---------------------------------------------------------------

COUNTED = "closed-form count; the paper prints three significant figures"
LAYERS = ("counted from our layer lists; widths the paper does not give "
          "(stem, ASPP, decoder) move a count by a few percent")
FITTED = "the kernel efficiency caps were fitted to these five Fig 2 rates"
PEAK = ("% of peak is rate x op count / peak, so it carries both rows' "
        "errors (P100: +7 % rate, +6 % count)")
EXACT_INT = "an integer the model must reproduce exactly"
SHARE = ("the roofline fit holds the step total, not the split by "
         "category; item 10 owns the per-category ±3 pp")
UNFITTED = ("not fitted: the 24-GPU profile adds all-reduce and idle time "
            "the single-GPU fit never saw")
TRAFFIC = "item 10's target for modeled memory traffic"
SCALE_PF = "sustained PF/s inherits the Fig 2 rate (±10 %) at full scale"
SCALE_EFF = ("straggler sigma and all-reduce exposure were fitted to the "
             "Fig 4 efficiencies")
PAPER_RANGE = "the paper gives this as a range or a bound"
ARITHMETIC = "arithmetic on the paper's own inputs and Summit's node count"
SHAPE = "the paper states this qualitatively; the band is its direction"
NO_DIFF = "the paper reports no measurable difference"
SCALED_DOWN = ("scaled-down network on 13 synthetic 32x48 images; the paper "
               "trained on ~63k CAM5 snapshots at 1152x768")
NO_SCORE = ("the paper publishes no score for its heuristic labels (§III-A2); "
            "the bound is the fidelity the labels must have to train on")


def _copies(value: float) -> Deviation:
    return Deviation(value, 10, "DeepLab FP16 copies and NCHW<->NHWC "
                     "transposes are missing from the traced graph (copy 1.1 % "
                     "vs 26.1 % of step time), so its FP16 step runs fast")


def _traffic(value: float) -> Deviation:
    return Deviation(value, 10, "we count algorithmic traffic only; cuDNN "
                     "workspace and layout traffic is not modeled")


#: Every known miss, pinned at the value it reads today: row id -> deviation.
DEVIATIONS = {
    "fig2.rate.deeplabv3+.fp16": _copies(3.36),
    "fig2.peak.deeplabv3+.fp16": _copies(37.05),
    "fig3.conv_pct.deeplabv3+.fp16": _copies(76.6),
    "fig9.step_ms.deeplabv3+.fp16": _copies(597.0),
    "fig8.traffic_gb.tiramisu.fp32": _traffic(87.82),
    "fig8.traffic_gb.tiramisu.fp16": _traffic(87.8),
    "fig9.traffic_gb.deeplabv3+.fp32": _traffic(95.47),
    "fig9.traffic_gb.deeplabv3+.fp16": _traffic(95.41),
    "fig4.pflops.deeplabv3+.fp16.summit": Deviation(
        1145.0, 10, "carries the DeepLab FP16 step (fig2.rate.deeplabv3+.fp16) "
        "to 27360 GPUs"),
    "fig5.global_eff.2048": Deviation(
        68.11, 10, "demand sits at the 112 GB/s cap, so the global run's loss "
        "follows the P100 rate (fig2.rate.tiramisu_4ch.fp32, +7 %)"),
    "fig7.iou.deeplabv3+": Deviation(
        0.327, 22, "at 13 images the ResNet-50 encoder collapses to "
        "background: TC and AR IoU are 0"),
}


# -- the table -------------------------------------------------------------

_NETWORKS = {"deeplabv3+": "DeepLabv3+", "tiramisu": "Tiramisu",
             "tiramisu_4ch": "Tiramisu 4-ch"}
_SYSTEMS = {"summit": "Summit", "piz_daint": "Piz Daint"}

#: Fig 2: (network, precision) -> (samples/s, % of peak).
_FIG2 = {
    ("deeplabv3+", "fp16"): (2.67, 31.0),
    ("deeplabv3+", "fp32"): (0.87, 80.0),
    ("tiramisu", "fp16"): (5.00, 17.0),
    ("tiramisu", "fp32"): (1.91, 51.0),
    ("tiramisu_4ch", "fp32"): (1.20, 48.0),
}

#: Figs 3/8/9: (network, precision) -> (conv fwd+bwd % time, step ms, GB).
_DETAIL = {
    ("tiramisu", "fp32"): (80.6, 549.9, 308.5),
    ("tiramisu", "fp16"): (63.6, 417.3, 262.1),
    ("deeplabv3+", "fp32"): (82.3, 1215.9, 220.9),
    ("deeplabv3+", "fp16"): (54.8, 817.3, 203.6),
}

#: Fig 4 (Section VII-B): (network, system, precision, gpus) -> (eff %, PF/s).
#: Piz Daint ran without gradient lag, Summit with lag 1.
_FIG4 = {
    ("tiramisu_4ch", "piz_daint", "fp32", 5300): (79.0, 21.0),
    ("tiramisu", "summit", "fp32", 24576): (90.0, 176.8),
    ("tiramisu", "summit", "fp16", 24576): (90.0, 492.2),
    ("deeplabv3+", "summit", "fp32", 27360): (90.7, 325.8),
    ("deeplabv3+", "summit", "fp16", 27360): (90.7, 999.0),
}


def _fig4(network: str, system: str, precision: str, gpus: int):
    return _scaling(network, system, precision, gpus,
                    lag=0 if system == "piz_daint" else 1)


def _fig(network: str) -> int:
    """Fig 8 details Tiramisu, Fig 9 DeepLabv3+."""
    return 8 if network == "tiramisu" else 9


_ROWS = (
    Claim("sec6.conv_example", "Sec VI", "3x3 conv 1152x768 48->32 ch batch 2, GFLOP",
          48.9, lambda: paper_conv_example_flops() / 1e9, rel(0.01), COUNTED),
    *(Claim(f"fig2.flops.{net}", "Fig 2", f"{_NETWORKS[net]} TF/sample", paper,
            lambda net=net: _tf_per_sample()[net], rel(0.10), LAYERS)
      for net, paper in (("deeplabv3+", 14.41), ("tiramisu", 4.188),
                         ("tiramisu_4ch", 3.703))),
    *(Claim(f"fig2.rate.{net}.{prec}", "Fig 2",
            f"{_NETWORKS[net]} {'P100' if net == 'tiramisu_4ch' else 'V100'} "
            f"{prec.upper()} samples/s",
            rate, lambda k=(net, prec): _fig2(*k).samples_per_second,
            rel(0.10), FITTED)
      for (net, prec), (rate, _) in _FIG2.items()),
    *(Claim(f"fig2.peak.{net}.{prec}", "Fig 2",
            f"{_NETWORKS[net]} {prec.upper()} % of peak", peak,
            lambda k=(net, prec): _fig2(*k).pct_peak, pm(6, " pp"), PEAK)
      for (net, prec), (_, peak) in _FIG2.items()),
    *(Claim(f"sec7a.max_batch.{net}.{prec}", "Sec VII-A",
            f"{_NETWORKS[net]} V100 max batch {prec.upper()}", paper,
            lambda k=(net, prec): max_batch(paper_network(k[0]), (16, 768, 1152),
                                            k[1], V100, limit=4),
            EXACT, EXACT_INT)
      for net in ("deeplabv3+", "tiramisu")
      for prec, paper in (("fp32", 1), ("fp16", 2))),
    *(Claim(f"fig3.conv_pct.{net}.{prec}", "Fig 3",
            f"{_NETWORKS[net]} {prec.upper()} conv fwd+bwd % of step", share,
            lambda k=(net, prec): _conv_pct(*k), pm(10, " pp"), SHARE)
      for (net, prec), (share, _, _) in _DETAIL.items()),
    *(Claim(f"fig{_fig(net)}.step_ms.{net}.{prec}", f"Fig {_fig(net)}",
            f"{_NETWORKS[net]} {prec.upper()} step, ms", ms,
            lambda k=(net, prec): _breakdown(*k).total_time_s * 1e3,
            rel(0.15), UNFITTED)
      for (net, prec), (_, ms, _) in _DETAIL.items()),
    *(Claim(f"fig{_fig(net)}.traffic_gb.{net}.{prec}", f"Fig {_fig(net)}",
            f"{_NETWORKS[net]} {prec.upper()} memory traffic, GB", gb,
            lambda k=(net, prec): _breakdown(*k).total_bytes / 1e9,
            rel(0.25), TRAFFIC)
      for (net, prec), (_, _, gb) in _DETAIL.items()),
    *(Claim(f"fig4.pflops.{net}.{prec}.{system}", "Fig 4",
            f"{_NETWORKS[net]} {_SYSTEMS[system]} {gpus} GPUs {prec.upper()} PF/s",
            pf, lambda k=(net, system, prec, gpus): _fig4(*k).sustained_pflops,
            rel(0.10), SCALE_PF)
      for (net, system, prec, gpus), (_, pf) in _FIG4.items()),
    *(Claim(f"fig4.eff.{net}.{prec}.{system}", "Fig 4",
            f"{_NETWORKS[net]} {_SYSTEMS[system]} {gpus} GPUs {prec.upper()} eff. %",
            eff, lambda k=(net, system, prec, gpus): _fig4(*k).efficiency * 100,
            pm(3, " pp"), SCALE_EFF)
      for (net, system, prec, gpus), (eff, _) in _FIG4.items()),
    Claim("sec5b4.lag_gain_pp", "Sec V-B4",
          "lag-1 minus lag-0 efficiency pp, DeepLab FP16, worst of 3 scales",
          0.0, _lag_gain_pp, AT_LEAST, SHAPE),
    Claim("fig5.gap_pp.64", "Fig 5", "local minus global FS efficiency @64 GPUs",
          0.0, lambda: (_fig5(64).local.efficiency
                        - _fig5(64).global_fs.efficiency) * 100,
          pm(0.1, " pp"), "the paper's curves coincide at small scale"),
    Claim("fig5.local_eff.2048", "Fig 5", "staged input efficiency % @2048 GPUs",
          83.4, lambda: _fig5(2048).local.efficiency * 100, pm(3, " pp"),
          SCALE_EFF),
    Claim("fig5.global_eff.2048", "Fig 5", "global FS efficiency % @2048 GPUs",
          75.8, lambda: _fig5(2048).global_fs.efficiency * 100, pm(3, " pp"),
          SCALE_EFF),
    Claim("fig5.demand_gb_s.2048", "Fig 5", "input demand @2048 GPUs, GB/s",
          110.0, lambda: aggregate_demand(_fig5(2048).global_fs,
                                          PAPER_DATASET.sample_bytes) / 1e9,
          rel(0.10), "the paper gives the demand as 'nearly 110 GB/s'"),
    Claim("sec5a1.naive_min.1024", "Sec V-A1", "naive staging @1024 nodes, min",
          15.0, lambda: _staging(1024, "naive").total_time_s / 60, pm(5),
          PAPER_RANGE),
    Claim("sec5a1.reads_per_file.1024", "Sec V-A1",
          "naive FS reads per file @1024 nodes", 23.0,
          lambda: _staging(1024, "naive").replication_factor, pm(4),
          "the paper says 'about 23'"),
    *(Claim(f"sec5a1.distributed_min.{nodes}", "Sec V-A1",
            f"distributed staging @{nodes} nodes, min", bound,
            lambda nodes=nodes: _staging(nodes, "distributed").total_time_s / 60,
            AT_MOST, PAPER_RANGE)
      for nodes, bound in ((1024, 3.0), (4500, 7.0))),
    Claim("sec5a1.read_speedup.8", "Sec V-A1",
          "8 reader threads vs 1 (1.79 -> 11.98 GB/s)", 6.7,
          lambda: scaled_read_bandwidth(8, 1.79e9) / 1.79e9, rel(0.02),
          "the paper rounds 11.98 / 1.79 = 6.69 to 6.7"),
    Claim("sec5a1.demand_tb_s.1024", "Sec V-A1",
          "input demand @1024 nodes (189 MB/s per GPU), TB/s", 1.16,
          lambda: INPUT_PER_GPU * SUMMIT.node.gpus * 1024 / 1e12, rel(0.01),
          ARITHMETIC),
    Claim("sec5a1.demand_tb_s.full", "Sec V-A1", "input demand, full Summit, TB/s",
          5.23, lambda: INPUT_PER_GPU * SUMMIT.node.gpus * SUMMIT.nodes / 1e12,
          rel(0.01), ARITHMETIC),
    Claim("sec5a1.demand_over_gpfs", "Sec V-A1",
          "full-system demand / GPFS target ('more than twice')", 2.0,
          lambda: INPUT_PER_GPU * SUMMIT.node.gpus * SUMMIT.nodes
          / SUMMIT.filesystem.peak_read_bandwidth, AT_LEAST, SHAPE),
    Claim("sec5a2.keeps_up", "Sec V-A2",
          "4-worker pipeline rate / V100 training rate, worst network", 1.0,
          _pipeline_keeps_up, rel(0.01),
          "the paper: the pipeline matches both networks, even in FP16"),
    Claim("sec5a2.hdf5_threads", "Sec V-A2",
          "4 HDF5-locked reader threads / 1 reader, step time", 1.0,
          _hdf5_threads_ratio, rel(0.10),
          "the paper: threads behind the HDF5 lock do not scale"),
    Claim("sec5a3.load_reduction.4096", "Sec V-A3",
          "centralized / hierarchical busiest-rank msgs @4096 ranks", 100.0,
          _load_reduction, AT_LEAST,
          "the paper: 'millions' of messages down to 'mere thousands'"),
    Claim("sec5a3.scale_growth", "Sec V-A3",
          "hierarchical busiest-rank msgs, 4096 / 64 ranks", 1.0,
          lambda: _hierarchical_load(4096) / _hierarchical_load(64), rel(0.01),
          "the paper: the tree's load is independent of scale"),
    Claim("sec5a3.per_tensor_bound", "Sec V-A3",
          "msgs per rank per tensor / 2(r+1), worst r in 2, 4, 8", 1.0,
          _per_tensor_bound, AT_MOST,
          "the paper's r+1 bound, counted in both directions"),
    Claim("sec5a3.radix_spread", "Sec V-A3",
          "decision-time spread over r in 2, 4, 8 @512 ranks", 0.01,
          _radix_spread, AT_MOST, NO_DIFF),
    Claim("sec5b1.tc_penalty", "Sec V-B1", "TC false-negative / false-positive cost",
          37.0, lambda: tc_penalty_ratio(class_weights(
              np.array(PENALTY_FREQUENCIES), "inverse_sqrt")), rel(0.05),
          "the paper says '~37x'"),
    Claim("sec5b2.lr_ramp", "Sec V-B2", "paper LR at 6144 / at 384 GPUs", 4096.0,
          lambda: round(paper_lr_for_gpus(6144) / paper_lr_for_gpus(384), 6),
          EXACT, "the paper's LR table: 0.0001 at 384 GPUs, 0.4096 at 6144"),
    Claim("sec5b5.receptive_field", "Sec V-B5",
          "modified / original Tiramisu receptive field", 1.0,
          _receptive_field_ratio, rel(0.01),
          "the paper widened 3x3 to 5x5 'to maintain the same receptive "
          "field'; only the stem differs"),
    Claim("fig6.fp16_time", "Fig 6",
          "Tiramisu FP16 / FP32 wall time per sample @1536 GPUs", 1.0,
          lambda: step_time_model("tiramisu", 1536, "fp16") / 2
          / step_time_model("tiramisu", 1536, "fp32"), AT_MOST, SHAPE),
    # Trained rows: scaled-down networks on synthetic data.
    Claim("fig6.lag_gap", "Fig 6",
          "|lag-1 - lag-0| final loss / initial loss", 0.0,
          _trained("lag_runs", "gap"), Band(0.0, 0.35),
          "24 tiny steps: lag 1 trails by its one-step pipeline fill",
          trained=True),
    Claim("fig6.lag1_converges", "Fig 6", "lag-1 final / initial loss", 0.5,
          _trained("lag_runs", "lag1_ratio"), AT_MOST, SHAPE, trained=True),
    Claim("fig7.iou.tiramisu", "Fig 7", "Tiramisu mean IoU", 0.59,
          _trained("segmentation", "tiramisu_iou"), pm(0.1), SCALED_DOWN,
          trained=True),
    Claim("fig7.iou.deeplabv3+", "Fig 7", "DeepLabv3+ mean IoU", 0.73,
          _trained("segmentation", "deeplab_iou"), pm(0.1), SCALED_DOWN,
          trained=True),
    Claim("fig7.tc_overprediction", "Fig 7",
          "predicted / labeled TC pixel fraction", 1.0,
          _trained("segmentation", "tc_ratio"), AT_LEAST,
          "the paper: the weighted loss makes the network overpredict TCs",
          trained=True),
    Claim("sec5b1.accuracy_trap", "Sec V-B1",
          "unweighted pixel accuracy, % (all-background share)", 98.2,
          _trained("weighting", "unweighted_acc"), pm(2, " pp"),
          "synthetic skies are 99.8 % background against CAM5's 98.2 %",
          trained=True),
    Claim("sec5b1.recall_gain", "Sec V-B1",
          "weighted minus unweighted minority recall", 0.0,
          _trained("weighting", "recall_gain"), AT_LEAST, SHAPE, trained=True),
    Claim("sec5b1.fp16_skips", "Sec V-B1",
          "FP16 overflow skips, inverse minus inverse-sqrt weights", 0.0,
          _trained("weighting", "skip_excess"), AT_LEAST, SHAPE, trained=True),
    Claim("sec5b2.larc_converges", "Sec V-B2",
          "LRs of 0.1, 0.5, 2, 8 where LARC converges", 4.0,
          _trained("larc", "larc_converged"), EXACT,
          "the paper: LARC holds where plain momentum SGD diverges",
          trained=True),
    Claim("sec5b2.sgd_diverges", "Sec V-B2",
          "LRs of 0.5, 2, 8 where momentum SGD diverges", 1.0,
          _trained("larc", "sgd_diverged"), AT_LEAST, SHAPE, trained=True),
    Claim("sec5b3.channels_iou_gain", "Sec V-B3",
          "mean IoU, 16 minus 4 input channels", 0.0,
          _trained("channels", "iou_gain"), AT_LEAST, SHAPE, trained=True),
    Claim("labels.tc_pod", "Sec III-A2", "TC labeler probability of detection",
          0.7, _trained("labels", "tc_pod"), AT_LEAST, NO_SCORE, trained=True),
    Claim("labels.tc_far", "Sec III-A2", "TC labeler false-alarm ratio", 0.35,
          _trained("labels", "tc_far"), AT_MOST, NO_SCORE, trained=True),
    Claim("labels.ar_pod", "Sec III-A2", "AR labeler probability of detection",
          0.5, _trained("labels", "ar_pod"), AT_LEAST, NO_SCORE, trained=True),
)


CLAIMS: tuple[Claim, ...] = tuple(
    replace(c, deviation=DEVIATIONS.get(c.id)) for c in _ROWS)


def paper_value(claim_id: str) -> float:
    """The paper's number behind row ``claim_id``."""
    for claim in CLAIMS:
        if claim.id == claim_id:
            return claim.paper
    raise KeyError(claim_id)


# -- rendering -------------------------------------------------------------

def _num(value: float) -> str:
    return f"{value:.0f}" if abs(value) >= 100 else f"{value:.3g}"


def render(results: list[Result], title: str) -> str:
    """One table of results, its band reasons and its deviations."""
    reasons: dict[str, int] = {}
    rows = []
    for r in results:
        c = r.claim
        key = reasons.setdefault(c.reason, len(reasons) + 1)
        rows.append([c.section, c.id, c.metric, f"{c.paper:g}", _num(r.value),
                     f"{c.band} [{key}]", r.verdict])
    lines = [format_table(["section", "id", "metric", "paper", "measured",
                           "band", "verdict"], rows, title=title), "",
             "bands:"]
    lines += [f"  [{k}] {reason}" for reason, k in reasons.items()]
    deviations: dict[tuple[int, str], list[str]] = {}
    for r in results:
        if (d := r.claim.deviation) is not None:
            deviations.setdefault((d.item, d.reason), []).append(
                f"{r.claim.id} at {_num(d.value)}")
    if deviations:
        lines.append(f"known deviations (pinned ±{PIN * 100:g}%):")
        for (item, reason), pinned in deviations.items():
            lines.append(f"  ROADMAP item {item}: {reason}")
            lines += [f"    {p}" for p in pinned]
    failed = [r.claim.id for r in results if r.failed]
    lines.append(f"{len(results)} rows: {len(results) - len(failed)} in band "
                 f"or pinned, {len(failed)} out of band"
                 + (f": {', '.join(failed)}" if failed else ""))
    return "\n".join(lines)


def report(trained: bool = False) -> tuple[str, bool]:
    """(text, any row out of band) for the fast rows, plus trained ones."""
    blocks, failed = [], False
    groups = [(False, "Reproduction summary: paper vs measured, fast rows")]
    if trained:
        groups.append((True, "Trained rows: scaled-down networks, synthetic data"))
    for kind, title in groups:
        results = [check(c) for c in CLAIMS if c.trained == kind]
        failed = failed or any(r.failed for r in results)
        blocks.append(render(results, title))
    return "\n\n".join(blocks), failed
