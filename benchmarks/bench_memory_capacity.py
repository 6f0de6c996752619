"""Section VII-A: the batch-size/memory claim.

"For both networks, a single image per GPU is processed per training step
when FP32 precision is used, while for FP16, the lower memory footprint
enables batches of two images per GPU."  The memory model reproduces
exactly that from the traced activation inventory on the 16 GB V100.
"""
import pytest

from repro.core.flops import paper_network
from repro.hpc import V100
from repro.perf import format_table, max_batch, training_memory

FULL = (16, 768, 1152)


def test_batch_limits_match_paper(benchmark, emit):
    def run():
        rows = []
        for name in ("deeplabv3+", "tiramisu"):
            model = paper_network(name)
            for prec in ("fp32", "fp16"):
                mb = max_batch(model, FULL, prec, V100, limit=4)
                budget = training_memory(model, FULL, max(mb, 1), prec)
                rows.append((name, prec, mb, budget))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = []
    for name, prec, mb, budget in rows:
        table.append([name, prec, mb, f"{budget.activations/1e9:.1f}",
                      f"{(budget.weights + budget.master_weights)/1e9:.2f}",
                      f"{budget.total/1e9:.1f}"])
    emit(format_table(
        ["network", "precision", "max batch", "activations GB",
         "weights GB", "total GB"],
        table,
        title="Section VII-A - V100 (16 GB) batch limits "
              "(paper: FP32 batch 1, FP16 batch 2)"))
    limits = {(n, p): mb for n, p, mb, _ in rows}
    assert limits[("deeplabv3+", "fp32")] == 1
    assert limits[("deeplabv3+", "fp16")] == 2
    assert limits[("tiramisu", "fp32")] == 1
    assert limits[("tiramisu", "fp16")] == 2
