"""Integration: every shipped example runs to completion.

These execute the real scripts in subprocesses — the same commands the
README tells a new user to run — and check their key output lines, so the
examples can never silently rot.
"""
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, timeout: int = 420) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, f"{name} failed:\n{proc.stderr[-2000:]}"
    return proc.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "Validation: mean IoU" in out
        assert "class frequencies" in out

    def test_distributed_training(self):
        out = run_example("distributed_training.py")
        assert "replicas bit-identical" in out
        assert "fused collectives" in out

    def test_mixed_precision(self):
        out = run_example("mixed_precision.py")
        assert "steps skipped" in out
        assert "master dtype float32" in out

    def test_scaling_study(self):
        out = run_example("scaling_study.py")
        assert "Weak scaling (Figure 4)" in out
        assert "Data staging (Section V-A1)" in out
        assert "Horovod control plane" in out

    def test_flop_analysis(self):
        out = run_example("flop_analysis.py")
        assert "48.9 GFLOPs (paper: 48.9)" in out
        assert "deeplabv3+" in out

    def test_staging_and_pipeline(self):
        out = run_example("staging_and_pipeline.py")
        assert "consistent=True" in out
        assert "GPU idle" in out

    def test_storm_analytics(self):
        out = run_example("storm_analytics.py")
        assert "storms planted" in out
        assert "Basin summary" in out

    def test_serving(self):
        out = run_example("serving.py")
        assert "served 48/48" in out
        assert "cache hit rate" in out
        assert "replica failures: 1" in out
        assert "No admitted request lost." in out

    def test_model_parallel(self):
        out = run_example("model_parallel.py")
        assert "max abs error" in out
        assert "reduction 5.9x" in out

    def test_trace_training(self):
        out = run_example("trace_training.py")
        assert "trace spans:" in out
        assert "sustained throughput: median" in out
        assert "last step span tree" in out

    def test_cli_report(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "report"],
            capture_output=True, text=True, timeout=420,
        )
        assert proc.returncode == 0
        assert "Reproduction summary" in proc.stdout
        assert "37" in proc.stdout  # the TC penalty-ratio row
