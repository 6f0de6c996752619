#!/usr/bin/env python3
"""Compare two end-to-end reports, or show one report's run-to-run spread.

    python3 benchmarks/e2e/compare.py out/E2E_parent.json out/E2E_head.json
    python3 benchmarks/e2e/compare.py out/E2E_head.json

With two reports (``run.py --repeat N --tag ...``) it prints, per workload
row, each end-to-end metric's two medians, the ratio B/A with A as its
base, the bound ``BENCHMARK.json`` fixes and a verdict:

``ok``          B's median is no worse than A's by more than the bound
``regressed``   it is worse by more than the bound
``unresolved``  either side's spread (interquartile range over median) is
                wider than the bound, and not every run of B reads better
                than every run of A

Exit code 1 on any regression.  With one report it prints each metric's
median and spread, which is how the bounds were chosen.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def load_values(path) -> tuple[dict, dict]:
    """``{workload: {metric: [value per run]}}`` and the exact counts,
    ``{(workload, seed): {count: value}}``."""
    report = json.loads(Path(path).read_text())
    values: dict = {}
    counts: dict = {}
    for run in report["runs"]:
        for workload, entry in run["workloads"].items():
            row = values.setdefault(workload, {})
            for metric, m in entry["end_to_end"].items():
                row.setdefault(metric, []).append(m["value"])
            counts[workload, run["seed"]] = entry["detail"]["exact_counts"]
    return values, counts


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[float, str]:
    """``(ratio B/A of the medians, ok | regressed | unresolved)``."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    ratio = med_b / med_a
    worse_by = (1.0 - ratio) if better == "higher" else (ratio - 1.0)
    if max(spread(a), spread(b)) > bound:
        if better == "higher":
            b_wins = min(b) > max(a)
        else:
            b_wins = max(b) < min(a)
        return ratio, "ok" if b_wins else "unresolved"
    return ratio, "regressed" if worse_by > bound else "ok"


def show_spread(values: dict, metrics: list[dict]) -> None:
    print(f"{'workload':<15s} {'metric':<12s} {'median':>12s} "
          f"{'spread':>8s} {'bound':>6s}  runs")
    for workload, row in values.items():
        for m in metrics:
            vals = row[m["name"]]
            sp = spread(vals)
            flag = "" if sp <= m["bound"] / 3 else (
                "  > bound/3" if sp <= m["bound"] else "  > bound")
            print(f"{workload:<15s} {m['name']:<12s} "
                  f"{statistics.median(vals):>12.5g} {sp:>8.2%} "
                  f"{m['bound']:>6.0%}  {len(vals)}{flag}")


def compare(a: dict, b: dict, metrics: list[dict]) -> int:
    regressions = 0
    print(f"{'workload':<15s} {'metric':<12s} {'A':>12s} {'B':>12s} "
          f"{'B/A':>7s} {'bound':>6s}  verdict")
    for workload in a:
        if workload not in b:
            print(f"{workload:<15s} missing from B")
            continue
        for m in metrics:
            va, vb = a[workload][m["name"]], b[workload][m["name"]]
            ratio, word = verdict(va, vb, m["better"], m["bound"])
            regressions += word == "regressed"
            print(f"{workload:<15s} {m['name']:<12s} "
                  f"{statistics.median(va):>12.5g} "
                  f"{statistics.median(vb):>12.5g} {ratio:>7.3f} "
                  f"{m['bound']:>6.0%}  {word}")
    return regressions


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    metrics = json.loads(SPEC_PATH.read_text())["end_to_end"]
    values_a, counts_a = load_values(argv[0])
    if len(argv) == 1:
        show_spread(values_a, metrics)
        return 0
    values_b, counts_b = load_values(argv[1])
    regressions = compare(values_a, values_b, metrics)
    shared = sorted(set(counts_a) & set(counts_b))
    differ = [key for key in shared if counts_a[key] != counts_b[key]]
    print(f"exact counts: {len(shared) - len(differ)} of {len(shared)} "
          f"(workload, seed) pairs identical"
          + "".join(f"\n  differ: {w} seed {s}" for w, s in differ))
    if regressions:
        print(f"{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
