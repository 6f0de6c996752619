#!/usr/bin/env python3
"""End-to-end benchmark: six workloads over train, infer, fleet, campaign.

One workload, the form ``BENCHMARK.json``'s command takes::

    python3 benchmarks/e2e/run.py --workload train_conv --seed 0 \
        --seconds 12 --trace 0

runs in this process and prints every metric by name with its unit, then a
``detail`` line, then (last line) one JSON object with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics from an untraced run; ``--trace 1`` wraps
the layer boundaries, writes ``out/trace_<workload>.json`` and reports the
per-layer metrics instead.

Without ``--workload`` it runs the whole set, each workload in a fresh
subprocess (so peak RSS, plan caches and import cost are per workload),
prints one table and writes ``out/E2E_<tag>.json``::

    python3 benchmarks/e2e/run.py [--seed N] [--trace] [--smoke] \
        [--repeat N] [--tag T]

Exit code 1 when any correctness check fails in a set run.
"""
from __future__ import annotations

import os

# BLAS is pinned to one thread before NumPy loads; the only other threads
# are the two PrefetchPipeline readers of the train workloads.
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import argparse          # noqa: E402
import json              # noqa: E402
import platform          # noqa: E402
import resource          # noqa: E402
import shutil            # noqa: E402
import statistics        # noqa: E402
import subprocess        # noqa: E402
import sys               # noqa: E402
import time              # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"
SCHEMA = "repro-e2e/1"

#: Set-up runs this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: A traced run alternates untraced and traced slices to price the
#: tracing inside one run: this share of the time untraced, in this many
#: slices each, so a slow minute on the host lands on both sides.
UNTRACED_SHARE = 0.25
TRACE_SLICES = 4
SMOKE_SECONDS = 0.4
REFERENCE_SEED = 0
#: Per-layer counts that repeat bit-for-bit whatever the run length, so a
#: traced run of the reference seed must reproduce them.
TRACED_COUNTS = ("comm.wire_bytes_per_step", "comm.messages_per_step",
                 "comm.buckets_per_step", "fleet.hashring_assign_calls",
                 "fleet.cache_get_calls", "fleet.cache_put_calls",
                 "perf.step_time_model_calls")


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def _import_program():
    """Make ``repro`` importable from the checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / "repro").is_dir() or not SPEC_PATH.is_file():
        sys.exit(f"e2e benchmark: no program to measure under {src} "
                 f"(or no {SPEC_PATH.name}); run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


# ---------------------------------------------------------------------------
# one workload, in this process
# ---------------------------------------------------------------------------


def calibrate() -> dict:
    """Fixed 512^3 SGEMM and 64 MB copy: how fast is this host today?"""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((512, 512)).astype(np.float32)
    b = rng.standard_normal((512, 512)).astype(np.float32)
    src = np.zeros(64 << 20, dtype=np.uint8)
    dst = np.empty_like(src)

    def median_ms(fn) -> float:
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return statistics.median(times) * 1e3

    return {"bench.calib_gemm_ms": median_ms(lambda: a @ b),
            "bench.calib_memcpy_ms": median_ms(lambda: np.copyto(dst, src))}


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark, from ``VmHWM``.

    Not ``ru_maxrss``: Linux carries that across ``exec`` from the forked
    copy of whatever launched us, so a workload that peaks below its
    launcher's size (``fleet_replay``: 87 MiB, 104 MiB when started by a
    set run that has NumPy loaded) would report the launcher.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns ``(contract_result, detail)``."""
    from trace import Tracer, write_chrome_trace
    from workloads import Timed, make_workload

    spec = load_spec()
    reference = json.loads((HERE / "reference.json").read_text())[
        "smoke" if smoke else "full"].get(name, {})
    tracer = Tracer()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}-{name}"
    wl = make_workload(name, tracer, workdir, smoke)
    detail: dict = {"workload": name, "seed": seed, "unit": wl.unit,
                    "loop": wl.loop, "smoke": smoke}
    try:
        if trace:
            wl.install()
            tracer.enabled = True
        setups = []
        tracer.op_id = "setup"
        for _ in range(SETUP_REPEATS):
            wl.close()      # the previous repeat's teardown is not set-up
            tracer.reset()
            t0 = time.perf_counter()
            wl.setup(seed)
            setups.append(time.perf_counter() - t0)
        setup_totals = tracer.totals()
        if trace:
            plain, timed = Timed(), Timed()
            traced_wall = 0.0
            tracer.reset()
            for _ in range(TRACE_SLICES):
                tracer.enabled = False
                tracer.restore()
                wl.timed = plain
                wl.run(seconds * UNTRACED_SHARE / TRACE_SLICES)
                wl.install()
                tracer.enabled = True
                wl.timed = timed
                t0 = time.perf_counter()
                with tracer.span("bench.timed"):
                    wl.run(seconds * (1.0 - UNTRACED_SHARE) / TRACE_SLICES)
                traced_wall += time.perf_counter() - t0
            tracer.enabled = False
            timed_totals = tracer.totals()
        else:
            wl.run(seconds)
            timed = wl.timed
        problems = wl.check(reference)
        if not timed.op_ms:
            problems.append("no operation completed in the timed phase")
        detail.update(
            attempted=timed.attempted, failed=timed.failed,
            samples=len(timed.op_ms), input_digest=wl.input_digest,
            setup_runs_s=setups, exact_counts=wl.exact_counts())
        if trace:
            layers = wl.layers(setup_totals, timed_totals)
            layers.update(calibrate())
            layers["bench.trace_overhead_frac"] = (
                statistics.median(timed.unit_s())
                / statistics.median(plain.unit_s()) - 1.0)
            layers["bench.timed_wall_s"] = timed.wall_s
            layers["bench.timed_ops"] = timed.attempted
            declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
            unknown = sorted(set(layers) - set(declared))
            if unknown:
                raise RuntimeError(f"metrics missing from BENCHMARK.json: "
                                   f"{unknown}")
            for key, want in reference.get("traced_counts", {}).items():
                if seed == reference.get("seed") and layers[key] != want:
                    problems.append(f"{key} is {layers[key]!r}, "
                                    f"reference {want!r}")
            metrics = {n: {"value": float(layers.get(n, 0.0)), "unit": u}
                       for n, u in declared.items()}
            trace_path = OUT / f"trace_{name}.json"
            spans = setup_totals.spans + timed_totals.spans
            detail.update(
                trace_file=str(trace_path.relative_to(ROOT)),
                trace_spans=write_chrome_trace(trace_path, spans),
                trace_self_sum_s=timed_totals.main_self_s,
                trace_wall_s=traced_wall)
        else:
            values = {
                "throughput": timed.throughput(),
                "op_ms_p50": timed.op_ms_percentile(50),
                "op_ms_p90": timed.op_ms_percentile(90),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": peak_rss_mb(),
            }
            metrics = {m["name"]: {"value": values[m["name"]],
                                   "unit": m["unit"]}
                       for m in spec["end_to_end"]}
    finally:
        wl.close()
        tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)
    detail["problems"] = problems
    result = {"correct": not problems, "attempted": int(timed.attempted),
              "failed": int(timed.failed), "metrics": metrics}
    return result, detail


def run_single(args) -> int:
    result, detail = measure(args.workload, args.seed, args.seconds,
                             bool(args.trace), args.smoke)
    kind = "per-layer (traced)" if args.trace else "end-to-end"
    print(f"{args.workload} seed={args.seed} {kind}: "
          f"{detail['attempted']} ops attempted, {detail['failed']} failed, "
          f"{detail['samples']} timing samples, unit of work "
          f"{detail['unit']}, {detail['loop']} loop")
    for name, m in result["metrics"].items():
        print(f"  {name:<34s} {m['value']:>16.6g} {m['unit']}")
    for problem in detail["problems"]:
        print(f"CHECK FAILED: {problem}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# the whole set, one subprocess per workload
# ---------------------------------------------------------------------------


def host_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    record = {"nproc": os.cpu_count(), "python": platform.python_version(),
              "numpy": np.__version__, "blas": blas,
              "machine": platform.machine(), "thread_pins": THREAD_PINS,
              "commit": commit}
    record.update(calibrate())
    return record


def _child(workload: str, seed: int, seconds: float, trace: int,
           smoke: bool) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} failed (exit {proc.returncode}):\n"
                           f"{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2].removeprefix("detail "))
    return result


def run_set(args) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke
                               else spec["run_seconds"])
    report = {"schema": SCHEMA, "tag": args.tag, "host": host_record(),
              "seconds": seconds, "smoke": args.smoke, "runs": []}
    ok = True
    for rep in range(args.repeat):
        seed = args.seed + rep
        run = {"seed": seed, "workloads": {}}
        for name in names:
            plain = _child(name, seed, seconds, 0, args.smoke)
            entry = {"correct": plain["correct"],
                     "attempted": plain["attempted"],
                     "failed": plain["failed"],
                     "end_to_end": plain["metrics"],
                     "detail": plain["detail"]}
            if args.trace:
                traced = _child(name, seed, seconds, 1, args.smoke)
                entry["correct"] = entry["correct"] and traced["correct"]
                entry["per_layer"] = traced["metrics"]
                entry["trace_detail"] = traced["detail"]
            run["workloads"][name] = entry
            ok = ok and entry["correct"]
            print(format_row(name, seed, entry), flush=True)
            problems = entry["detail"]["problems"] + entry.get(
                "trace_detail", {}).get("problems", [])
            for problem in problems:
                print(f"  CHECK FAILED: {problem}")
        report["runs"].append(run)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"E2E_{args.tag}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    if args.trace:
        print_layers(report["runs"][-1])
    return 0 if ok else 1


def update_reference(args) -> int:
    """Rewrite ``reference.json`` from fresh runs of the reference seed."""
    names = [w["name"] for w in load_spec()["workloads"]]
    reference = {}
    for profile, smoke in (("full", False), ("smoke", True)):
        seconds = SMOKE_SECONDS if smoke else load_spec()["run_seconds"]
        reference[profile] = {}
        for name in names:
            plain = _child(name, REFERENCE_SEED, seconds, 0, smoke)
            traced = _child(name, REFERENCE_SEED, seconds, 1, smoke)
            reference[profile][name] = {
                "seed": REFERENCE_SEED,
                "counts": plain["detail"]["exact_counts"],
                "traced_counts": {
                    k: traced["metrics"][k]["value"] for k in TRACED_COUNTS
                    if traced["metrics"][k]["value"]},
            }
            print(profile, name, reference[profile][name], flush=True)
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def format_row(name: str, seed: int, entry: dict) -> str:
    cells = [f"{name:<15s} seed={seed:<3d}"]
    for metric, m in entry["end_to_end"].items():
        cells.append(f"{metric}={m['value']:.5g} {m['unit']}")
    failed_frac = entry["failed"] / entry["attempted"]
    cells.append(f"failed_frac={failed_frac:.4g} "
                 f"(n={entry['detail']['samples']})")
    cells.append("ok" if entry["correct"] else "INCORRECT")
    return "  ".join(cells)


def print_layers(run: dict) -> None:
    """Per-layer metrics of the last traced set, non-zero ones only."""
    for name, entry in run["workloads"].items():
        print(f"\n{name} per-layer (trace {entry['trace_detail']['trace_file']})")
        for metric, m in entry["per_layer"].items():
            if m["value"]:
                print(f"  {metric:<34s} {m['value']:>16.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed phase length (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="self-test sizes (about a second per workload)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="sets to run, seeds seed..seed+N-1")
    parser.add_argument("--tag", default="head",
                        help="report name: out/E2E_<tag>.json")
    parser.add_argument("--update-reference", action="store_true",
                        help="rewrite reference.json after an intended "
                             "change of behaviour")
    args = parser.parse_args(argv)
    _import_program()
    if args.update_reference:
        return update_reference(args)
    if args.workload is None:
        return run_set(args)
    if args.seconds is None:
        args.seconds = (SMOKE_SECONDS if args.smoke
                        else load_spec()["run_seconds"])
    return run_single(args)


if __name__ == "__main__":
    sys.exit(main())
