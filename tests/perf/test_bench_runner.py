"""The machine-readable benchmark protocol and its CI perf gate.

Acceptance evidence for the gate lives here: a synthetic 2x slowdown on a
gated metric must flip ``compare()`` to FAIL (and the CLI to exit 1),
while ungated absolute wall-times may drift freely.
"""
import importlib.util
import json
import pathlib
import sys

import numpy as np
import pytest

_BENCH_DIR = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"


def _load_runner():
    if str(_BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(_BENCH_DIR))
    spec = importlib.util.spec_from_file_location(
        "bench_runner_under_test", _BENCH_DIR / "runner.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves field types through sys.modules[cls.__module__];
    # register before exec or @dataclass blows up at import time.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


runner = _load_runner()


def _report(metrics: dict, tag: str = "head") -> dict:
    return {
        "schema": runner.SCHEMA,
        "tag": tag,
        "profile": "quick",
        "suites": ["synthetic"],
        "created_unix": 0.0,
        "commit": "0" * 40,
        "host": {},
        "metrics": metrics,
    }


def _metric(value, *, hib=True, gate=True, tolerance=None):
    out = {"value": value, "unit": "x", "higher_is_better": hib, "gate": gate}
    if tolerance is not None:
        out["tolerance"] = tolerance
    return out


class TestCompare:
    def test_synthetic_2x_slowdown_fails_gate(self):
        """Acceptance: the gate demonstrably fails on a 2x regression."""
        baseline = _report({"kernels.conv_fwd_speedup": _metric(2.2)})
        head = _report({"kernels.conv_fwd_speedup": _metric(1.1)})  # 2x slower
        rows, ok = runner.compare(head, baseline)
        assert not ok
        assert rows[0]["status"] == "regression" and rows[0]["gated"]

    def test_within_band_passes(self):
        baseline = _report({"m": _metric(2.0, tolerance=0.15)})
        head = _report({"m": _metric(1.8)})     # -10%, inside the 15% band
        rows, ok = runner.compare(head, baseline)
        assert ok and rows[0]["status"] == "ok"

    def test_lower_is_better_direction(self):
        baseline = _report({"t": _metric(1.0, hib=False, tolerance=0.10)})
        slower = _report({"t": _metric(1.5, hib=False)})
        _, ok = runner.compare(slower, baseline)
        assert not ok, "bigger time on a lower-is-better metric must fail"
        faster = _report({"t": _metric(0.5, hib=False)})
        rows, ok = runner.compare(faster, baseline)
        assert ok and rows[0]["status"] == "improved"

    def test_ungated_metric_never_fails(self):
        baseline = _report({"ms": _metric(10.0, hib=False, gate=False)})
        head = _report({"ms": _metric(100.0, hib=False, gate=False)})
        rows, ok = runner.compare(head, baseline)
        assert ok
        assert rows[0]["status"] == "regression" and not rows[0]["gated"]

    def test_missing_gated_metric_fails(self):
        baseline = _report({"gone": _metric(1.0)})
        head = _report({})
        rows, ok = runner.compare(head, baseline)
        assert not ok and rows[0]["status"] == "missing"

    def test_missing_ungated_metric_passes(self):
        baseline = _report({"gone": _metric(1.0, gate=False)})
        _, ok = runner.compare(_report({}), baseline)
        assert ok

    def test_new_head_metric_is_reported_not_gated(self):
        baseline = _report({})
        head = _report({"fresh": _metric(3.0)})
        rows, ok = runner.compare(head, baseline)
        assert ok and rows[0]["status"] == "new"

    def test_per_metric_tolerance_overrides_default(self):
        baseline = _report({"m": _metric(2.0, tolerance=0.5)})
        head = _report({"m": _metric(1.2)})     # -40%: outside 15%, inside 50%
        _, ok = runner.compare(head, baseline, default_tolerance=0.15)
        assert ok

    def test_format_compare_is_a_table(self):
        baseline = _report({"m": _metric(2.0)})
        head = _report({"m": _metric(1.0)})
        rows, _ = runner.compare(head, baseline)
        text = runner.format_compare(rows)
        assert "metric" in text and "regression" in text and "±" in text


class TestReportIO:
    def test_write_then_load_roundtrip(self, tmp_path):
        report = _report({"m": _metric(1.0)}, tag="roundtrip")
        path = runner.write_report(report, tmp_path)
        assert path.name == "BENCH_roundtrip.json"
        assert runner.load_report(path) == json.loads(path.read_text())

    def test_load_rejects_wrong_schema(self, tmp_path):
        bad = _report({})
        bad["schema"] = "someone-elses/9"
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match="schema"):
            runner.load_report(p)

    def test_committed_baseline_is_valid(self):
        """The gate's reference document must always parse under the schema
        and contain the headline kernel metrics with sane values."""
        report = runner.load_report(_BENCH_DIR / "baseline.json")
        metrics = report["metrics"]
        fwd = metrics["kernels.conv_fwd_speedup"]
        assert fwd["gate"] and fwd["higher_is_better"]
        assert fwd["value"] >= 2.0, "committed baseline below the 2x claim"
        assert metrics["kernels.conv_wgrad_speedup"]["value"] > 1.0
        for name, m in metrics.items():
            assert np.isfinite(m["value"]), name

    def test_duplicate_metric_names_rejected(self, tmp_path):
        suite = tmp_path / "bench_dup.py"
        suite.write_text(
            "def collect(profile):\n"
            "    return [{'name': 'a', 'value': 1.0},\n"
            "            {'name': 'a', 'value': 2.0}]\n")
        with pytest.raises(ValueError, match="duplicate"):
            runner.run_suites(["dup"], bench_dir=tmp_path)

    def test_suite_without_collect_rejected(self, tmp_path):
        (tmp_path / "bench_empty.py").write_text("x = 1\n")
        with pytest.raises(AttributeError, match="collect"):
            runner.load_suite("empty", tmp_path)


class TestTiming:
    def test_summarize_times(self):
        stats = runner.summarize_times([3.0, 1.0, 2.0, 5.0, 4.0])
        assert stats["median_s"] == 3.0
        assert stats["min_s"] == 1.0
        assert stats["repeats"] == 5
        lo, hi = stats["ci68_s"]
        assert 1.0 <= lo <= stats["median_s"] <= hi <= 5.0

    def test_paired_stats_counts_both_sides(self):
        calls = {"a": 0, "b": 0}
        sa, sb = runner.paired_stats(
            lambda: calls.__setitem__("a", calls["a"] + 1),
            lambda: calls.__setitem__("b", calls["b"] + 1),
            repeats=4, warmup=2)
        assert calls == {"a": 6, "b": 6}        # 2 warmup + 4 timed each
        assert sa["repeats"] == sb["repeats"] == 4


class TestCLIGate:
    def test_cli_exits_1_on_regression(self, tmp_path, monkeypatch):
        """End-to-end: a baseline doctored 2x above reality trips exit 1."""
        suite = tmp_path / "bench_synth.py"
        suite.write_text(
            "def collect(profile):\n"
            "    return [{'name': 'synth.speedup', 'value': 1.0,\n"
            "             'unit': 'x', 'gate': True}]\n")
        inflated = _report({"synth.speedup": _metric(2.0)}, tag="baseline")
        base_path = tmp_path / "baseline.json"
        base_path.write_text(json.dumps(inflated))
        monkeypatch.setattr(runner, "BENCH_DIR", tmp_path)
        rc = runner.main([
            "--suite", "synth", "--tag", "head", "--out", str(tmp_path / "out"),
            "--against", str(base_path)])
        assert rc == 1
        report = json.loads((tmp_path / "out" / "BENCH_head.json").read_text())
        assert report["metrics"]["synth.speedup"]["value"] == 1.0

    def test_cli_exits_0_when_matching(self, tmp_path, monkeypatch):
        suite = tmp_path / "bench_synth.py"
        suite.write_text(
            "def collect(profile):\n"
            "    return [{'name': 'synth.speedup', 'value': 1.0,\n"
            "             'unit': 'x', 'gate': True}]\n")
        honest = _report({"synth.speedup": _metric(1.0)}, tag="baseline")
        base_path = tmp_path / "baseline.json"
        base_path.write_text(json.dumps(honest))
        monkeypatch.setattr(runner, "BENCH_DIR", tmp_path)
        rc = runner.main([
            "--suite", "synth", "--tag", "head", "--out", str(tmp_path / "out"),
            "--against", str(base_path)])
        assert rc == 0


class TestDirectRun:
    def test_started_as_a_script_accepts_suite_metrics(self, tmp_path):
        """``python runner.py``: a suite's ``from runner import Metric``
        must name the running module's class, not a second copy's."""
        import shutil
        import subprocess

        shutil.copy(_BENCH_DIR / "runner.py", tmp_path / "runner.py")
        (tmp_path / "bench_tiny.py").write_text(
            "def collect(profile):\n"
            "    from runner import Metric\n"
            "    return [Metric('tiny.speedup', 1.5, unit='x')]\n")
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, str(tmp_path / "runner.py"), "--suite", "tiny",
             "--out", str(out)],
            cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        report = json.loads((out / "BENCH_head.json").read_text())
        assert report["metrics"]["tiny.speedup"]["value"] == 1.5
