"""Machine-readable benchmark protocol: run suites, emit JSON, compare.

The figure benchmarks under ``benchmarks/`` print human tables; CI needs
numbers it can diff.  This runner loads a *suite* module
(``bench_<suite>.py``) by path, calls its ``collect(profile)`` hook (a
plain function, no pytest machinery), and writes a schema-versioned
``BENCH_<tag>.json``:

* every metric carries ``value``, ``unit``, ``higher_is_better``, a
  ``gate`` flag and an optional per-metric ``tolerance`` override;
* timed metrics are summarized the paper's way (Section VI): median plus
  the central-68% interval over repeats;
* the report records host fingerprint + git commit so a JSON artifact is
  traceable to the machine and tree that produced it.

``compare()`` implements the CI perf gate: **gated** metrics regress the
build when they move past their tolerance band in the bad direction
(default band 15%); absolute wall-times are recorded ``gate=False``
because they are machine properties, while ratios (speedups) and
deterministic cost-model outputs transfer across hosts.

This script is the one entry point; the CI perf gate runs::

    PYTHONPATH=src python benchmarks/runner.py \
        --suite kernels,serving,allreduce,fleet --profile quick \
        --tag head --against benchmarks/baseline.json
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import pathlib
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

SCHEMA = "repro-bench/1"
BENCH_DIR = pathlib.Path(__file__).resolve().parent
DEFAULT_SUITES = ("kernels", "serving", "allreduce")
PROFILES = ("smoke", "quick", "full")
DEFAULT_TOLERANCE = 0.15

__all__ = [
    "SCHEMA", "DEFAULT_SUITES", "PROFILES", "DEFAULT_TOLERANCE",
    "Metric", "timeit_stats", "summarize_times", "load_suite",
    "run_suites", "write_report", "load_report", "compare",
    "format_compare", "main",
]


@dataclass
class Metric:
    """One benchmark measurement destined for the JSON report."""

    name: str
    value: float
    unit: str = ""
    higher_is_better: bool = True
    gate: bool = True
    tolerance: float | None = None      # per-metric band; None -> default
    ci68: list[float] | None = None     # central-68% interval, value units
    note: str = ""

    def to_json(self) -> dict:
        out = {
            "value": float(self.value),
            "unit": self.unit,
            "higher_is_better": bool(self.higher_is_better),
            "gate": bool(self.gate),
        }
        if self.tolerance is not None:
            out["tolerance"] = float(self.tolerance)
        if self.ci68 is not None:
            out["ci68"] = [float(self.ci68[0]), float(self.ci68[1])]
        if self.note:
            out["note"] = self.note
        return out


# -- timing ----------------------------------------------------------------


def summarize_times(times: list[float]) -> dict:
    """Median + central-68% interval, the paper's throughput convention.

    ``min_s`` rides along: on shared/noisy hosts the minimum is the best
    estimator of the true kernel cost, so speedup *ratios* use it while
    the median/CI pair describes the distribution actually observed.
    """
    ts = sorted(times)
    n = len(ts)
    if n == 0:
        raise ValueError("no samples")
    med = statistics.median(ts)
    lo = ts[max(0, min(n - 1, round(0.16 * (n - 1))))]
    hi = ts[max(0, min(n - 1, round(0.84 * (n - 1))))]
    return {"median_s": med, "ci68_s": [lo, hi], "min_s": ts[0], "repeats": n}


def timeit_stats(fn, repeats: int = 5, warmup: int = 1) -> dict:
    """Wall-time ``fn`` ``repeats`` times after ``warmup`` discarded runs."""
    for _ in range(max(warmup, 0)):
        fn()
    times = []
    for _ in range(max(repeats, 1)):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return summarize_times(times)


def paired_stats(a, b, repeats: int = 5, warmup: int = 1
                 ) -> tuple[dict, dict]:
    """Time two rivals with strictly alternating samples (A, B, A, B, ...).

    Interleaving makes both sides see the same background load, allocator
    and frequency state, so their *ratio* is far more stable than two
    back-to-back blocks — the right shape for A/B speedup metrics.
    """
    for _ in range(max(warmup, 0)):
        a()
        b()
    ta: list[float] = []
    tb: list[float] = []
    for _ in range(max(repeats, 1)):
        t0 = time.perf_counter()
        a()
        ta.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        b()
        tb.append(time.perf_counter() - t0)
    return summarize_times(ta), summarize_times(tb)


# -- suite loading ---------------------------------------------------------


def load_suite(name: str, bench_dir: pathlib.Path | None = None):
    """Import ``bench_<name>.py`` by path and return its module."""
    bench_dir = bench_dir or BENCH_DIR
    path = bench_dir / f"bench_{name}.py"
    if not path.exists():
        raise FileNotFoundError(f"no suite module {path}")
    # Suites import their siblings (``from runner import Metric``); make
    # sure the directory resolves regardless of how we were invoked.
    if str(bench_dir) not in sys.path:
        sys.path.insert(0, str(bench_dir))
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not hasattr(module, "collect"):
        raise AttributeError(f"suite {name!r} defines no collect(profile)")
    return module


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=BENCH_DIR, capture_output=True,
            text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _host_info() -> dict:
    import numpy as np

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": __import__("os").cpu_count(),
    }


def run_suites(suites: list[str], profile: str = "quick", tag: str = "head",
               bench_dir: pathlib.Path | None = None) -> dict:
    """Run every suite's ``collect(profile)`` and build the report dict."""
    if profile not in PROFILES:
        raise ValueError(f"profile must be one of {PROFILES}, got {profile!r}")
    metrics: dict[str, dict] = {}
    for suite in suites:
        module = load_suite(suite, bench_dir)
        for metric in module.collect(profile):
            if not isinstance(metric, Metric):
                metric = Metric(**metric)
            if metric.name in metrics:
                raise ValueError(f"duplicate metric name {metric.name!r}")
            metrics[metric.name] = metric.to_json()
    return {
        "schema": SCHEMA,
        "tag": tag,
        "profile": profile,
        "suites": list(suites),
        "created_unix": time.time(),
        "commit": _git_commit(),
        "host": _host_info(),
        "metrics": metrics,
    }


def write_report(report: dict, out_dir: pathlib.Path) -> pathlib.Path:
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{report['tag']}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def load_report(path) -> dict:
    report = json.loads(pathlib.Path(path).read_text())
    if report.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: schema {report.get('schema')!r} != {SCHEMA!r}")
    return report


# -- the gate --------------------------------------------------------------


def compare(head: dict, baseline: dict,
            default_tolerance: float = DEFAULT_TOLERANCE
            ) -> tuple[list[dict], bool]:
    """Diff two reports; returns (rows, ok).

    A **gated** baseline metric fails the gate when the head value moves
    past its tolerance band in the bad direction, or when it vanished from
    the head report.  Ungated metrics are reported for context only.
    """
    rows: list[dict] = []
    ok = True
    head_metrics = head.get("metrics", {})
    for name, base in sorted(baseline.get("metrics", {}).items()):
        gated = bool(base.get("gate", True))
        tol = float(base.get("tolerance", default_tolerance))
        hm = head_metrics.get(name)
        if hm is None:
            rows.append({"name": name, "status": "missing", "gated": gated,
                         "base": base["value"], "head": None,
                         "ratio": None, "tolerance": tol})
            ok = ok and not gated
            continue
        bv, hv = float(base["value"]), float(hm["value"])
        ratio = hv / bv if bv else float("inf")
        hib = bool(base.get("higher_is_better", True))
        if hib:
            regressed = hv < bv * (1.0 - tol)
            improved = hv > bv * (1.0 + tol)
        else:
            regressed = hv > bv * (1.0 + tol)
            improved = hv < bv * (1.0 - tol)
        status = "regression" if regressed else ("improved" if improved else "ok")
        rows.append({"name": name, "status": status, "gated": gated,
                     "base": bv, "head": hv, "ratio": ratio, "tolerance": tol})
        if gated and regressed:
            ok = False
    for name in sorted(set(head_metrics) - set(baseline.get("metrics", {}))):
        rows.append({"name": name, "status": "new", "gated": False,
                     "base": None, "head": head_metrics[name]["value"],
                     "ratio": None, "tolerance": default_tolerance})
    return rows, ok


def format_compare(rows: list[dict]) -> str:
    headers = ["metric", "baseline", "head", "head/base", "band", "gate", "status"]
    body = []
    for r in rows:
        body.append([
            r["name"],
            "-" if r["base"] is None else f"{r['base']:.4g}",
            "-" if r["head"] is None else f"{r['head']:.4g}",
            "-" if r["ratio"] is None else f"{r['ratio']:.3f}",
            f"±{r['tolerance'] * 100:.3g}%",
            "yes" if r["gated"] else "no",
            r["status"],
        ])
    cols = list(zip(*([headers] + body))) if body else [headers]
    widths = [max(len(str(c)) for c in col) for col in cols]
    lines = ["  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip()
             for row in [headers] + body]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


# -- CLI -------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="runner", description="run benchmark suites, emit/compare JSON")
    ap.add_argument("--suite", default=",".join(DEFAULT_SUITES),
                    help="comma-separated suite names (bench_<name>.py)")
    ap.add_argument("--profile", default="quick", choices=PROFILES)
    ap.add_argument("--tag", default="head", help="report tag (BENCH_<tag>.json)")
    ap.add_argument("--out", default=str(BENCH_DIR / "out"),
                    help="output directory for BENCH_<tag>.json")
    ap.add_argument("--against", default=None,
                    help="baseline JSON to gate against (exit 1 on regression)")
    ap.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                    help="default tolerance band for gated metrics")
    ap.add_argument("--json", action="store_true", dest="json_out",
                    help="print the report JSON to stdout")
    args = ap.parse_args(argv)

    suites = [s.strip() for s in args.suite.split(",") if s.strip()]
    report = run_suites(suites, profile=args.profile, tag=args.tag)
    path = write_report(report, pathlib.Path(args.out))
    print(f"wrote {path}")
    if args.json_out:
        print(json.dumps(report, indent=2, sort_keys=True))
    if args.against:
        baseline = load_report(args.against)
        rows, ok = compare(report, baseline, default_tolerance=args.tolerance)
        print(format_compare(rows))
        if not ok:
            print("PERF GATE: FAIL (gated metric regressed past tolerance)")
            return 1
        print("PERF GATE: ok")
    return 0


if __name__ == "__main__":
    # Suites run ``from runner import Metric``; point that name at this
    # module so it does not load a second copy with its own Metric class.
    sys.modules.setdefault("runner", sys.modules[__name__])
    sys.exit(main())
