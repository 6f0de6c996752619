"""Section VI statistics for the in-process trainer: step time vs rank count.

``DistributedTrainer`` runs its N simulated ranks in one process.  On the
e2e ``train_exchange`` network (DeepLabv3+ at width 0.18 on 8x8 grids, one
sample per rank, FP32 LARC) the ranks stack into one forward/backward, so
the step time grows slower than N.  The table reports, per rank count, the
median step time with its central 68% interval (the paper's 0.16/0.84
percentiles over time) and the sustained samples/s
(:func:`repro.perf.sustained_throughput`).  Run with
``PYTHONPATH=src python -m pytest benchmarks/bench_rank_sweep.py -s``.
"""
import time

import numpy as np

from repro.core import DistributedTrainer, TrainConfig
from repro.core.networks import DeepLabConfig, DeepLabV3Plus
from repro.perf import format_table, sustained_throughput

RANKS = (1, 2, 4, 8)
WARMUP, STEPS = 3, 15
GRID = (8, 8)


def deeplab():
    return DeepLabV3Plus(DeepLabConfig(in_channels=16, width=0.18,
                                       aspp_dilations=(1, 2, 3)),
                         rng=np.random.default_rng(1234))


def step_times(ranks):
    trainer = DistributedTrainer(deeplab, ranks,
                                 TrainConfig(lr=0.01, optimizer="larc"))
    rng = np.random.default_rng(ranks)
    batches = [[(rng.normal(size=(1, 16) + GRID).astype(np.float32),
                 rng.integers(0, 3, size=(1,) + GRID))
                for _ in range(ranks)] for _ in range(WARMUP + STEPS)]
    times = []
    for batch in batches:
        t0 = time.perf_counter()
        trainer.train_step(batch)
        times.append(time.perf_counter() - t0)
    return trainer.stack_width(batches[0]), np.asarray(times[WARMUP:])


def test_rank_sweep(benchmark, emit):
    rows = benchmark.pedantic(lambda: [(n, *step_times(n)) for n in RANKS],
                              rounds=1, iterations=1)
    table = []
    for ranks, width, times in rows:
        lo, med, hi = np.quantile(times * 1e3, [0.16, 0.5, 0.84])
        rate = sustained_throughput(np.ones((len(times), ranks)), times)
        table.append([ranks, width, f"{med:.1f}", f"{lo:.1f}-{hi:.1f}",
                      f"{rate.median:.1f}"])
        assert width == ranks
    emit(format_table(["ranks", "stack", "step ms (median)",
                       "central 68% ms", "samples/s"], table))
