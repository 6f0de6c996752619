"""Command-line interface: regenerate paper experiments from the shell.

Usage::

    python -m repro.cli fig2               # single-GPU performance table
    python -m repro.cli fig4 --system summit --network deeplabv3+ --precision fp16
    python -m repro.cli fig5
    python -m repro.cli flops
    python -m repro.cli staging --nodes 1024
    python -m repro.cli control-plane --ranks 4096
    python -m repro.cli train --samples 16 --epochs 4
    python -m repro.cli trace --steps 3 --out trace_out
    python -m repro.cli faults --ranks 8 --plan "rank_fail@2:rank=1;read_fault@1"
    python -m repro.cli serve --requests 64 --replicas 2 --plan "rank_fail@2:rank=1"
    python -m repro.cli campaign --users 3 --jobs 12 --plan "rank_fail@1:rank=0"
"""
from __future__ import annotations

import argparse
import pathlib
import sys


def _cmd_fig2(args) -> int:
    from .perf import figure2_table, format_table
    from .perf.claims import paper_value

    rows = []
    for p in figure2_table():
        run = f"{p.network}.{p.precision}"
        flops = paper_value(f"fig2.flops.{p.network}")
        rate = paper_value(f"fig2.rate.{run}")
        peak = paper_value(f"fig2.peak.{run}")
        rows.append([p.network, p.gpu, p.precision, p.batch,
                     f"{p.tf_per_sample:.2f} ({flops:g})",
                     f"{p.samples_per_second:.2f} ({rate:g})",
                     f"{p.pct_peak:.1f} ({peak:g})"])
    print(format_table(
        ["network", "gpu", "prec", "batch", "TF/sample (paper)",
         "samples/s (paper)", "% peak (paper)"],
        rows, title="Figure 2 - single GPU performance"))
    return 0


def _cmd_fig4(args) -> int:
    from .perf import format_table, weak_scaling_curve

    points = weak_scaling_curve(args.network, args.system, args.precision,
                                lag=args.lag)
    rows = [[p.gpus, f"{p.images_per_second:,.0f}",
             f"{p.sustained_pflops:,.2f}", f"{p.efficiency*100:.1f}"]
            for p in points]
    print(format_table(["GPUs", "images/s", "PF/s", "eff %"], rows,
                       title=f"Figure 4 - {args.network} on {args.system} "
                             f"{args.precision} lag={args.lag}"))
    return 0


def _cmd_fig5(args) -> int:
    from .perf import figure5_curves, format_table

    rows = [[c.gpus, f"{c.local.images_per_second:.0f}",
             f"{c.global_fs.images_per_second:.0f}",
             f"{c.local.efficiency*100:.1f}", f"{c.global_fs.efficiency*100:.1f}"]
            for c in figure5_curves()]
    print(format_table(
        ["GPUs", "img/s local", "img/s global", "eff% local", "eff% global"],
        rows, title="Figure 5 - staged vs global file system (Piz Daint)"))
    return 0


def _cmd_flops(args) -> int:
    from .core import network_flop_table
    from .perf import format_table
    from .perf.claims import paper_value

    rows = []
    for r in network_flop_table():
        paper = paper_value(f"fig2.flops.{r.name}")
        rows.append([r.name, f"{r.tf_per_sample:.3f}", paper,
                     f"{r.tf_per_sample / paper:.2f}", f"{r.parameters:,}"])
    print(format_table(["network", "TF/sample", "paper", "ratio", "params"],
                       rows, title="Operation counts (Section VI trace)"))
    return 0


def _cmd_staging(args) -> int:
    from .climate import PAPER_DATASET
    from .hpc import SUMMIT
    from .io import plan_staging
    from .perf import format_table

    rows = []
    for strategy in ("naive", "distributed"):
        r = plan_staging(SUMMIT, PAPER_DATASET.num_samples,
                         PAPER_DATASET.sample_bytes, args.nodes,
                         strategy=strategy)
        rows.append([strategy, f"{r.total_time_s/60:.2f}",
                     f"{r.replication_factor:.1f}",
                     f"{r.fs_read_bytes/1e12:.2f}"])
    print(format_table(["strategy", "minutes", "reads/file", "FS read TB"],
                       rows, title=f"Staging at {args.nodes} Summit nodes"))
    return 0


def _cmd_control_plane(args) -> int:
    from .comm import (ReadinessSchedule, centralized_negotiation,
                       hierarchical_negotiation)
    from .perf import format_table

    s = ReadinessSchedule.random(args.ranks, args.tensors, seed=0)
    c = centralized_negotiation(s)
    h = hierarchical_negotiation(s, radix=args.radix)
    rows = [
        ["centralized", c.controller_load],
        [f"hierarchical (r={args.radix})",
         int((h.messages_sent + h.messages_received).max())],
    ]
    print(format_table(["control plane", "busiest-rank msgs/step"], rows,
                       title=f"{args.ranks} ranks x {args.tensors} tensors "
                             f"(orders identical: {c.order == h.order})"))
    return 0


def _cmd_report(args) -> int:
    from .perf.claims import report

    text, failed = report(trained=args.trained)
    print(text)
    return 1 if failed else 0


def _cmd_train(args) -> int:
    import numpy as np

    from .climate import CLASS_NAMES, ClimateDataset, Grid, class_frequencies
    from .core import TrainConfig, Trainer
    from .core.networks import Tiramisu, TiramisuConfig

    grid = Grid(args.grid, args.grid * 3 // 2)
    dataset = ClimateDataset.synthesize(grid, num_samples=args.samples,
                                        seed=args.seed, channels=8)
    freqs = class_frequencies(dataset.labels)
    model = Tiramisu(TiramisuConfig(in_channels=8, base_filters=16, growth=8,
                                    down_layers=(2, 2), bottleneck_layers=2,
                                    kernel=3, dropout=0.0),
                     rng=np.random.default_rng(args.seed))
    trainer = Trainer(model, TrainConfig(lr=args.lr, optimizer="larc"), freqs)
    rng = np.random.default_rng(args.seed + 1)
    for epoch in range(args.epochs):
        losses = [trainer.train_step(x, y).loss
                  for x, y in dataset.batches(dataset.splits.train, 2, rng)]
        print(f"epoch {epoch}: loss {np.mean(losses):.4f}")
    report = trainer.evaluate(
        dataset.batches(dataset.splits.validation, 1, drop_last=False),
        class_names=CLASS_NAMES)
    print(f"validation mean IoU {report.mean_iou:.3f} "
          f"(accuracy {report.accuracy:.3f})")
    return 0


def _training_drill_fixture(args):
    """The tiny seeded training job the trace, faults, comm-drill and
    health drills share.

    Returns ``(dataset, freqs, factory, provider, eval_batches)``: a
    4-channel synthetic dataset on the ``--grid``, its class frequencies, a
    deterministic tiny-Tiramisu ``factory()``, the resilience runner's
    ``provider(step, rank, world_size)`` (one sample per rank per step) and
    the fixed eight-sample evaluation set.
    """
    import numpy as np

    from .climate import ClimateDataset, Grid, class_frequencies
    from .core.networks import Tiramisu, TiramisuConfig

    grid = Grid(args.grid, args.grid * 3 // 2)
    dataset = ClimateDataset.synthesize(grid, num_samples=args.samples,
                                        seed=args.seed, channels=4)
    freqs = class_frequencies(dataset.labels)

    def factory():
        return Tiramisu(
            TiramisuConfig(in_channels=4, base_filters=8, growth=8,
                           down_layers=(2,), bottleneck_layers=2,
                           kernel=3, dropout=0.0),
            rng=np.random.default_rng(args.seed))

    def provider(step, rank, world_size):
        idx = (step * world_size + rank) % len(dataset)
        return dataset.images[idx:idx + 1], dataset.labels[idx:idx + 1]

    eval_idx = list(dataset.splits.validation) + list(dataset.splits.train)
    eval_batches = [(dataset.images[i:i + 1], dataset.labels[i:i + 1])
                    for i in eval_idx[:8]]
    return dataset, freqs, factory, provider, eval_batches


def _cmd_trace(args) -> int:
    """Run a small instrumented training job; write trace + metrics files.

    The whole-run observability artifact: trainer, input-pipeline, and
    gradient-exchange spans land in one Chrome trace (open in
    ``chrome://tracing`` or https://ui.perfetto.dev), alongside a JSONL
    structured log and a paper-style (median, central-68%) metrics report.
    """
    from pathlib import Path

    import numpy as np

    import json

    from .core import DistributedTrainer, TrainConfig
    from .io.pipeline import PrefetchPipeline
    from .perf.stats import sustained_throughput
    from .telemetry import (CrossRankTrace, Telemetry, activate,
                            render_metrics_report, write_chrome_trace,
                            write_jsonl)

    if args.steps < 1 or args.samples < 1 or args.ranks < 1 or args.batch < 1:
        raise SystemExit("trace: --steps, --samples, --ranks, and --batch "
                         "must all be >= 1")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tel = Telemetry()
    step_durations = []
    with activate(tel):
        dataset, freqs, factory, _, _ = _training_drill_fixture(args)
        trainer = DistributedTrainer(
            factory, args.ranks, TrainConfig(lr=args.lr, optimizer="larc"),
            freqs)
        # The input pipeline feeds per-rank batches through the prefetch
        # queue so io spans/latency land in the same trace as the steps.
        need = args.steps * args.ranks * args.batch
        indices = np.resize(np.arange(len(dataset)), need).tolist()
        pipeline = PrefetchPipeline(
            lambda i: (dataset.images[i], dataset.labels[i]),
            indices, num_workers=2, prefetch_depth=4)
        feed = iter(pipeline)
        for step in range(args.steps):
            rank_batches = []
            for _ in range(args.ranks):
                pairs = [next(feed) for _ in range(args.batch)]
                rank_batches.append((np.stack([p[0] for p in pairs]),
                                     np.stack([p[1] for p in pairs])))
            with tel.tracer.span("global_step", category="trainer",
                                 step=step) as sp:
                trainer.train_step(rank_batches)
            step_durations.append(sp.duration_s)

        if args.serve_requests:
            # A small serving drill in the *same* session, so serve.* spans
            # merge into the one trace (PR 4's spans were previously lost).
            from .serve import (InferenceServer, ServeConfig,
                                WorkloadConfig, synth_workload)

            server = InferenceServer(
                factory,
                ServeConfig(window_hw=(8, 8), stride_hw=(4, 4),
                            num_replicas=2, max_batch_size=4,
                            max_wait_s=0.002, forward_batch=16,
                            cache_budget_bytes=0),
                service_window_s=0.001,
                model_key=f"tiramisu-seed{args.seed}")
            server.serve(synth_workload(WorkloadConfig(
                num_requests=args.serve_requests, rate_rps=500.0,
                image_hw=(16, 16), channels=4, repeat_fraction=0.25,
                seed=args.seed)))

    stats = sustained_throughput(
        np.full((args.steps, args.ranks), args.batch, dtype=np.float64),
        np.asarray(step_durations))

    spans = tel.tracer.spans()
    trace_path = out / "trace.json"
    write_chrome_trace(trace_path, spans)
    write_jsonl(out / "telemetry.jsonl", spans, tel.metrics)
    throughput_line = (
        f"per-step throughput: median {stats.median:.2f} samples/s "
        f"(+{stats.err_plus:.2f}/-{stats.err_minus:.2f}, central 68%)")
    (out / "metrics.txt").write_text(render_metrics_report(
        tel.metrics, title="repro trace metrics",
        extra_lines=["", throughput_line]))

    components = sorted({s.category for s in spans})
    if args.json:
        cross = CrossRankTrace(spans)
        by_cat: dict[str, int] = {}
        for s in spans:
            by_cat[s.category] = by_cat.get(s.category, 0) + 1
        doc = {
            "spans": len(spans),
            "components": by_cat,
            "messages": {
                "total": len(cross.links),
                "matched": len(cross.matched()),
                "unmatched": len(cross.unmatched()),
                "dropped": sum(1 for l in cross.links.values() if l.dropped),
            },
            "steps": [b.as_dict() for b in cross.step_breakdowns()],
            "phase_summary": {
                phase: {"median": s.median, "lo": s.lo, "hi": s.hi}
                for phase, s in cross.summarize().items()
            },
            "throughput_samples_per_s": {
                "median": stats.median, "lo": stats.lo, "hi": stats.hi,
            },
            "outputs": {
                "trace": str(trace_path),
                "metrics": str(out / "metrics.txt"),
                "jsonl": str(out / "telemetry.jsonl"),
            },
        }
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        print(f"wrote {trace_path} ({len(spans)} spans; "
              f"components: {', '.join(components)})")
        print(f"wrote {out / 'metrics.txt'} and {out / 'telemetry.jsonl'}")
        print(throughput_line)
    return 0


def _cmd_faults(args) -> int:
    """Fault-injection drill: train under a seeded FaultPlan, verify recovery.

    Runs the same seeded multi-rank training twice — once fault-free, once
    under ``--plan`` — through the resilience runner (elastic world shrink,
    read retries, checkpoint autoresume).  The faulty run must complete
    every step and its final model's loss on a fixed evaluation set must
    match the fault-free run within ``--tolerance``.  Writes a Chrome
    trace whose ``resilience`` lane shows each injected fault and its
    recovery span.  Exit code 1 when recovery fails the tolerance.
    """
    from pathlib import Path

    from .core import TrainConfig
    from .perf import format_table
    from .resilience import (FaultPlan, mean_eval_loss,
                             run_resilient_training)
    from .telemetry import (Telemetry, activate, render_metrics_report,
                            write_chrome_trace)

    if args.steps < 1 or args.ranks < 1 or args.samples < 1:
        raise SystemExit("faults: --steps, --ranks, and --samples must be >= 1")
    plan = FaultPlan.parse(args.plan, seed=args.seed)
    _, freqs, factory, provider, eval_batches = _training_drill_fixture(args)
    config = TrainConfig(lr=args.lr, optimizer="larc")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    baseline = run_resilient_training(
        factory, config, args.ranks, provider, steps=args.steps,
        class_frequencies=freqs)
    base_loss = mean_eval_loss(baseline.trainer, eval_batches)

    tel = Telemetry()
    with activate(tel):
        faulty = run_resilient_training(
            factory, config, args.ranks, provider, steps=args.steps,
            plan=plan, class_frequencies=freqs,
            checkpoint_dir=out / "ckpts", checkpoint_every=args.ckpt_every,
            lr_scaling=args.lr_scaling)
        faulty_loss = mean_eval_loss(faulty.trainer, eval_batches)
    trace_path = out / "trace.json"
    write_chrome_trace(trace_path, tel.tracer.spans())
    (out / "metrics.txt").write_text(render_metrics_report(
        tel.metrics, title="repro faults metrics"))

    rel = (abs(faulty_loss - base_loss) / abs(base_loss)
           if base_loss else float("inf"))
    completed = faulty.steps_completed == args.steps
    recovered = completed and rel <= args.tolerance
    injected = ", ".join(f"{k}={v}" for k, v in sorted(faulty.injected.items()))
    rows = [
        ["plan", plan.describe() or "(empty)"],
        ["injected", injected or "(none)"],
        ["steps completed", f"{faulty.steps_completed}/{args.steps}"],
        ["world size", f"{faulty.start_world_size} -> {faulty.final_world_size}"],
        ["rank failures", str(faulty.rank_failures or "none")],
        ["elastic recoveries", str(faulty.recoveries)],
        ["read retries", str(faulty.read_retries)],
        ["step retries", str(faulty.step_retries)],
        ["checkpoints saved", str(faulty.checkpoints_saved)],
        ["eval loss (fault-free)", f"{base_loss:.4f}"],
        ["eval loss (faulty)", f"{faulty_loss:.4f}"],
        ["relative difference", f"{rel * 100:.2f}% (tolerance {args.tolerance * 100:.0f}%)"],
    ]
    print(format_table(["metric", "value"], rows,
                       title=f"Fault drill - {args.ranks} ranks, seed {args.seed}"))
    print(f"wrote {trace_path} and {out / 'metrics.txt'}")
    print("recovery OK" if recovered else "recovery FAILED")
    return 0 if recovered else 1


def _cmd_comm_drill(args) -> int:
    """Communication drill: compressed training must track dense training.

    Runs the same seeded multi-rank training twice through the adaptive
    gradient-exchange engine — once dense, once with lossy compression and
    error feedback — and compares the final models' weighted eval loss on a
    fixed batch set.  Also reports what the engine did on the wire (fused
    collectives, bytes, per-bucket algorithm choices, overlap).  Exit code 1
    when the compressed run misses ``--tolerance``.
    """
    import json

    from .comm import EngineConfig
    from .core import TrainConfig
    from .perf import format_table
    from .resilience import mean_eval_loss, run_resilient_training

    if args.steps < 1 or args.ranks < 2 or args.samples < 1:
        raise SystemExit(
            "comm-drill: needs --steps >= 1, --ranks >= 2, --samples >= 1")
    _, freqs, factory, provider, eval_batches = _training_drill_fixture(args)
    config = TrainConfig(lr=args.lr, optimizer="larc")
    bucket_bytes = args.bucket_kb * 1024

    dense = run_resilient_training(
        factory, config, args.ranks, provider, steps=args.steps,
        class_frequencies=freqs,
        engine=EngineConfig(bucket_bytes=bucket_bytes))
    dense_loss = mean_eval_loss(dense.trainer, eval_batches)
    dense_report = dense.trainer.engine.last_report

    compressed = run_resilient_training(
        factory, config, args.ranks, provider, steps=args.steps,
        class_frequencies=freqs,
        engine=EngineConfig(bucket_bytes=bucket_bytes,
                            compression=args.compression,
                            compression_ratio=args.ratio))
    comp_loss = mean_eval_loss(compressed.trainer, eval_batches)
    comp_report = compressed.trainer.engine.last_report

    rel = (abs(comp_loss - dense_loss) / abs(dense_loss)
           if dense_loss else float("inf"))
    converged = rel <= args.tolerance
    num_tensors = sum(len(g) for g in (dense_report.fusion.groups or []))
    doc = {
        "ranks": args.ranks,
        "steps": args.steps,
        "compression": args.compression,
        "compression_ratio_setting": args.ratio,
        "gradient_tensors": num_tensors,
        "fused_collectives": dense_report.fusion.num_collectives,
        "collective_reduction": (num_tensors
                                 / dense_report.fusion.num_collectives),
        "dense": {
            "eval_loss": dense_loss,
            "wire_bytes": dense_report.wire_bytes,
            "decisions": {str(k): v
                          for k, v in sorted(dense_report.decisions.items())},
            "overlap_fraction": dense_report.overlap_fraction,
            "replica_divergence": dense.trainer.max_replica_divergence(),
        },
        "compressed": {
            "eval_loss": comp_loss,
            "wire_bytes": comp_report.wire_bytes,
            "measured_compression": comp_report.compression_ratio,
            "replica_divergence":
                compressed.trainer.max_replica_divergence(),
        },
        "relative_difference": rel,
        "tolerance": args.tolerance,
        "converged": converged,
    }
    if args.json:
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        algos = ", ".join(f"{k}:{v}"
                          for k, v in sorted(dense_report.decisions.items()))
        rows = [
            ["gradient tensors", str(num_tensors)],
            ["fused collectives", str(dense_report.fusion.num_collectives)],
            ["collective reduction",
             f"{num_tensors / dense_report.fusion.num_collectives:.1f}x"],
            ["bucket algorithms", algos],
            ["overlap fraction", f"{dense_report.overlap_fraction:.2f}"],
            ["wire MB/step (dense)", f"{dense_report.wire_bytes / 1e6:.2f}"],
            ["wire MB/step (compressed)",
             f"{comp_report.wire_bytes / 1e6:.2f}"],
            ["measured compression",
             f"{comp_report.compression_ratio:.1f}x"],
            ["eval loss (dense)", f"{dense_loss:.4f}"],
            [f"eval loss ({args.compression})", f"{comp_loss:.4f}"],
            ["relative difference",
             f"{rel * 100:.2f}% (tolerance {args.tolerance * 100:.0f}%)"],
        ]
        print(format_table(
            ["metric", "value"], rows,
            title=f"Comm drill - {args.ranks} ranks, "
                  f"{args.compression} compression, seed {args.seed}"))
        print("convergence OK" if converged else "convergence FAILED")
    return 0 if converged else 1


def _cmd_health(args) -> int:
    """Health drill: faulty training under the streaming/health engine.

    Runs a short multi-rank training job on a **simulated clock** under a
    seeded :class:`FaultPlan` with the full observability control plane
    attached: per-step virtual rank spans (stretched by the injector's
    straggler factors), streaming tumbling windows, and the stock health
    rules.  Deterministic under a fixed seed: the same plan fires — and
    resolves — the same alerts at the same virtual times.  Prints the text
    dashboard (or ``--json`` the machine-readable report with the detected
    straggler rank and the full alert lifecycle) and writes the merged
    cross-rank Chrome trace.
    """
    import json
    from pathlib import Path

    from .core import TrainConfig
    from .resilience import FaultPlan, run_resilient_training
    from .telemetry import (CrossRankTrace, SimulatedClock, Telemetry,
                            activate, write_chrome_trace)

    if args.steps < 1 or args.ranks < 1 or args.samples < 1:
        raise SystemExit("health: --steps, --ranks, and --samples must be >= 1")
    plan = FaultPlan.parse(args.plan, seed=args.seed)
    _, freqs, factory, provider, _ = _training_drill_fixture(args)

    clock = SimulatedClock()
    tel = Telemetry(clock=clock)
    tel.attach_health(window_s=args.window)
    base_s = 0.4 * args.window          # nominal per-rank compute (virtual)
    comm_s = 0.1 * args.window

    def on_step(step, result, trainer, original_ids):
        # Emit the step's *virtual* execution: each surviving rank computes
        # for base_s stretched by its straggler factor, then one exchange.
        # The simulated clock then advances one window, so the runner's
        # sample/advance/evaluate closes this step's window deterministically.
        injector = trainer.world.fault_injector
        t0 = clock.now()
        slowest = 0.0
        for orig in original_ids:
            factor = injector.delay_factor(orig) if injector else 1.0
            d = base_s * factor
            slowest = max(slowest, d)
            tel.tracer.emit("rank_compute", start_s=t0, duration_s=d,
                            category="trainer", lane=orig, step=step,
                            rank=orig)
            tel.streams.observe("trainer.rank_step_s", d, t=t0, rank=orig)
        tel.tracer.emit("virtual_exchange", start_s=t0 + slowest,
                        duration_s=comm_s, category="comm", step=step, lane=0)
        tel.streams.observe("trainer.step_time_s", slowest + comm_s, t=t0)
        # World size observed every window (not just at the shrink) so the
        # rate-of-change rule has a "before" to diff against.
        tel.streams.observe("dist.world_size", trainer.world_size, t=t0)
        clock.advance(args.window)

    with activate(tel):
        report = run_resilient_training(
            factory, TrainConfig(lr=args.lr, optimizer="larc"), args.ranks,
            provider, steps=args.steps, plan=plan, class_frequencies=freqs,
            on_step=on_step)
        # Flush: close the final window so trailing breaches/OKs settle.
        clock.advance(args.window)
        tel.streams.sample(tel.metrics)
        tel.health.evaluate(t=clock.now())

    spans = tel.tracer.spans()
    cross = CrossRankTrace(spans)
    straggler = None
    for a in tel.health.alerts:
        if "straggler_rank" in a.context:
            straggler = a.context["straggler_rank"]
            break
    if straggler is None:
        counts = cross.straggler_counts()
        straggler = max(counts, key=counts.get) if counts else None

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / "trace.json"
    write_chrome_trace(trace_path, spans)

    fired = len(tel.health.alerts)
    resolved = len(tel.health.resolved())
    if args.json:
        doc = {
            "plan": plan.describe(),
            "seed": args.seed,
            "steps_completed": report.steps_completed,
            "world": {"start": report.start_world_size,
                      "final": report.final_world_size,
                      "rank_failures": report.rank_failures},
            "straggler_rank": straggler,
            "alerts_fired": fired,
            "alerts_resolved": resolved,
            "health": tel.health.report(),
            "steps": [b.as_dict() for b in cross.step_breakdowns()],
            "messages": {"total": len(cross.links),
                         "matched": len(cross.matched()),
                         "unmatched": len(cross.unmatched())},
            "trace": str(trace_path),
        }
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        print(tel.health.render(
            title=f"Health drill - {args.ranks} ranks, seed {args.seed}"))
        print(f"straggler rank: {straggler}")
        print(f"alerts: {fired} fired, {resolved} resolved")
        print(f"wrote {trace_path}")
    return 0


def _cmd_serve(args) -> int:
    """Serving drill: seeded synthetic load through the inference server.

    Generates a deterministic request stream (Poisson arrivals, priority
    lanes, repeat snapshots), serves it through micro-batching + the
    replica pool + the tile cache + admission control, and prints the
    end-of-run report (served/shed/failed, per-lane p50/p99, cache hit
    rate).  ``--plan`` injects replica failures mid-run; ``--json`` emits
    the machine-readable report the CI smoke job asserts on.  Exit code 1
    if any *admitted* request was lost (the resilience invariant) or any
    request failed, as in ``repro fleet``.
    """
    import json
    from pathlib import Path

    import numpy as np

    from .core.networks import Tiramisu, TiramisuConfig
    from .errors import ReproError
    from .perf import format_table
    from .resilience import FaultPlan
    from .serve import (InferenceServer, ServeConfig, WorkloadConfig,
                        summarize, synth_workload)
    from .telemetry import Telemetry, activate, write_chrome_trace

    if args.requests < 1 or args.replicas < 1 or args.batch < 1:
        raise SystemExit("serve: --requests, --replicas, and --batch "
                         "must all be >= 1")
    slo_s = (("interactive", args.slo_ms / 1e3),) if args.slo_ms else ()
    config = ServeConfig(
        window_hw=(args.window, args.window),
        stride_hw=(args.stride, args.stride) if args.stride else None,
        num_replicas=args.replicas,
        max_batch_size=args.batch,
        max_wait_s=args.max_wait_ms / 1e3,
        forward_batch=args.forward_batch,
        max_depth=args.max_depth,
        slo_s=slo_s,
        cache_budget_bytes=args.cache_mb << 20)
    workload = WorkloadConfig(
        num_requests=args.requests, rate_rps=args.rate,
        image_hw=(args.image, args.image), channels=args.channels,
        repeat_fraction=args.repeat, seed=args.seed)
    plan = FaultPlan.parse(args.plan, seed=args.seed) if args.plan else None
    # A nonzero --service-ms pins virtual service time (deterministic
    # queueing for CI); 0 uses the measured compute wall time.
    service_window_s = args.service_ms / 1e3 if args.service_ms else None

    def factory():
        return Tiramisu(
            TiramisuConfig(in_channels=args.channels, base_filters=8,
                           growth=8, down_layers=(2,), bottleneck_layers=2,
                           kernel=3, dropout=0.0),
            rng=np.random.default_rng(args.seed))

    tel = Telemetry()
    error = None
    with activate(tel):
        server = InferenceServer(factory, config, plan=plan,
                                 service_window_s=service_window_s,
                                 model_key=f"tiramisu-seed{args.seed}")
        try:
            responses = server.serve(synth_workload(workload))
        except ReproError as exc:
            # The failure path must still leave a machine-readable trail:
            # --json consumers (the CI smoke job) parse the report and
            # exit code, never a traceback.
            error = repr(exc)
            responses = []
        report = summarize(responses, server)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        trace_path = out / "trace.json"
        write_chrome_trace(trace_path, tel.tracer.spans())
        if not args.json:
            print(f"wrote {trace_path}")
    if args.json:
        doc = report.as_dict()
        if error is not None:
            doc["error"] = error
        print(json.dumps(doc, indent=1, sort_keys=True))
    elif error is not None:
        print(f"serve failed: {error}")
    else:
        sheds = ", ".join(f"{k}={v}"
                          for k, v in sorted(report.shed_by_reason.items()))
        rows = [
            ["offered", str(report.offered)],
            ["served", str(report.served)],
            ["shed", f"{report.shed}" + (f" ({sheds})" if sheds else "")],
            ["failed", str(report.failed)],
            ["lost admitted", str(report.lost_admitted)],
            ["throughput", f"{report.throughput_rps:,.1f} req/s"],
            ["batches", f"{report.batches} "
                        f"(mean size {report.mean_batch_size:.2f})"],
            ["replicas alive", f"{len(report.alive_replicas)}/"
                               f"{args.replicas} "
                               f"({report.dispatch_retries} retries)"],
        ]
        for lane, summary in report.lanes.items():
            rows.append([f"{lane} p50/p99",
                         f"{summary['p50_ms']:.2f} / {summary['p99_ms']:.2f} "
                         f"ms ({summary['served']} served, "
                         f"{summary['shed']} shed)"])
        if report.cache is not None:
            rows.append(["cache hit rate",
                         f"{report.cache['hit_rate'] * 100:.1f}% "
                         f"({report.cache['hits']}/{report.cache['hits'] + report.cache['misses']})"])
        print(format_table(["metric", "value"], rows,
                           title=f"Serving drill - {args.requests} requests, "
                                 f"{args.replicas} replicas, seed {args.seed}"))
    ok = report.lost_admitted == 0 and report.failed == 0 and error is None
    return 0 if ok else 1


def _cmd_fleet(args) -> int:
    """Fleet drill: a seeded diurnal+burst replay through the serve fleet.

    Generates a columnar replay (~10^6 virtual requests by default in CI,
    smaller interactively), serves it through the autoscaled, consistent-
    hash-sharded multi-cell fleet, and prints the end-of-run report:
    served/shed/spilled, warm-tile hit rate, scale events with measured
    key-remap fractions and hit-rate recovery, autoscaler decisions, and
    fleet health alerts.  ``--plan`` injects replica kills mid-replay
    (``rank`` = global replica id, ``step`` = virtual seconds); ``--out``
    persists the Chrome trace and report JSON; ``--json`` emits the
    machine-readable report the CI smoke job asserts on.  Exit code 1 if
    any admitted request was lost or failed (the fleet invariant).
    """
    import json
    from pathlib import Path

    from .perf import format_table
    from .resilience import FaultPlan
    from .serve import (FleetConfig, FleetServer, ReplayConfig,
                        replay_workload, summarize_fleet)
    from .serve.fleet import AutoscalerConfig
    from .telemetry import SimulatedClock, Telemetry, activate, \
        write_chrome_trace

    if args.requests < 1 or args.replicas < 1:
        raise SystemExit("fleet: --requests and --replicas must be >= 1")
    cells = tuple(c.strip() for c in args.cells.split(",") if c.strip())
    if not cells:
        raise SystemExit("fleet: --cells must name at least one cell")
    bursts = []
    if args.bursts:
        for item in args.bursts.split(","):
            parts = item.split(":")
            if len(parts) != 3:
                raise SystemExit("fleet: --bursts items must be "
                                 "start:duration:multiplier")
            bursts.append(tuple(float(p) for p in parts))
    replay_cfg = ReplayConfig(
        num_requests=args.requests, duration_s=args.duration,
        cells=cells, bursts=tuple(bursts), snapshot_pool=args.pool,
        windows=args.windows, seed=args.seed)
    autoscaler = None if args.no_autoscale else AutoscalerConfig(
        min_replicas=args.min_replicas, max_replicas=args.max_replicas)
    fleet_cfg = FleetConfig(
        cells=cells, initial_replicas=args.replicas,
        slo_s=(("interactive", args.slo_ms / 1e3),) if args.slo_ms else (),
        cache_budget_bytes=args.cache_mb << 20,
        sharded=not args.unsharded, spillover=not args.no_spillover,
        autoscaler=autoscaler)
    plan = FaultPlan.parse(args.plan, seed=args.seed) if args.plan else None

    clock = SimulatedClock()
    tel = Telemetry(clock=clock)
    with activate(tel):
        server = FleetServer(fleet_cfg, clock=clock, plan=plan)
        replay = replay_workload(replay_cfg)
        result = server.run(replay)
        report = summarize_fleet(result, server, replay)

    fired = len(tel.health.alerts) if tel.health else 0
    resolved = len(tel.health.resolved()) if tel.health else 0
    doc = report.as_dict()
    doc["seed"] = args.seed
    doc["plan"] = plan.describe() if plan else None
    doc["alerts_fired"] = fired
    doc["alerts_resolved"] = resolved
    if tel.health is not None:
        doc["health"] = tel.health.report()
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        trace_path = out / "trace.json"
        write_chrome_trace(trace_path, tel.tracer.spans())
        report_path = out / "fleet_report.json"
        report_path.write_text(json.dumps(doc, indent=1, sort_keys=True))
        doc["trace"] = str(trace_path)
        if not args.json:
            print(f"wrote {trace_path}")
            print(f"wrote {report_path}")
    if args.json:
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        sheds = ", ".join(f"{k}={v}"
                          for k, v in sorted(report.shed_by_reason.items()))
        rows = [
            ["offered", str(report.offered)],
            ["served", str(report.served)],
            ["shed", f"{report.shed}" + (f" ({sheds})" if sheds else "")],
            ["spilled", str(report.spilled)],
            ["failed", str(report.failed)],
            ["lost admitted", str(report.lost_admitted)],
            ["throughput", f"{report.throughput_rps:,.1f} req/s"],
            ["hit rate", f"{report.hit_rate * 100:.1f}%"],
            ["retries", str(report.retries)],
            ["scale events", f"{len(report.scale_events)} "
                             f"({report.autoscaler['grows']} grow, "
                             f"{report.autoscaler['shrinks']} shrink)"],
            ["alerts", f"{fired} fired, {resolved} resolved"],
        ]
        for name, cell in sorted(report.cells.items()):
            rows.append([f"cell {name}",
                         f"{cell['served']} served, "
                         f"{cell['replicas']} replicas, "
                         f"hit {cell['hit_rate'] * 100:.1f}%, "
                         f"out {cell['spilled_out']} / "
                         f"in {cell['spilled_in']} spilled"])
        for e in report.scale_events:
            rec = "-" if e.recovered_s is None else f"{e.recovered_s:.0f}s"
            rows.append([f"{e.kind} @{e.t:.0f}s {e.cell}",
                         f"replica {e.replica} -> {e.replicas_after} live, "
                         f"remap {e.remap_fraction * 100:.1f}%, "
                         f"recovered {rec}"])
        print(format_table(["metric", "value"], rows,
                           title=f"Fleet drill - {args.requests} requests, "
                                 f"{len(cells)} cells, seed {args.seed}"))
    return 0 if report.lost_admitted == 0 and report.failed == 0 else 1


def _cmd_campaign(args) -> int:
    """Campaign drill: a seeded multi-user campaign through the orchestrator.

    Synthesizes ``--jobs`` jobs from ``--users`` tenants, drives every one
    of them ``CREATED -> ... -> DONE`` through the Balsam-style campaign
    service (JSONL store, fair-share scheduler, backfill site launcher,
    checkpoint/restart), and prints the end-of-campaign report: makespan,
    utilization, fair-share error, restarts, and per-state dwell medians.
    ``--plan`` injects faults mid-campaign (``rank`` = submit index);
    ``--out`` persists the JSONL log, real ``.npz`` checkpoints, and a
    Chrome trace; ``--json`` emits the machine-readable report the CI
    smoke job asserts on.  Exit code 1 when any job is lost or fails, or
    when the fair-share error exceeds ``--fair-bound``.
    """
    import json
    from pathlib import Path

    from .campaign import (CampaignConfig, CampaignService,
                           CheckpointedRuntime, FairShareScheduler, JobStore,
                           MemoryRuntime, SchedulerConfig, ServiceConfig,
                           SiteConfig, SiteLauncher, synth_campaign)
    from .hpc import PIZ_DAINT, SUMMIT
    from .perf import format_table
    from .resilience import FaultPlan
    from .telemetry import (SimulatedClock, Telemetry, activate,
                            write_chrome_trace)

    if args.users < 1 or args.jobs < 1 or args.nodes < 1:
        raise SystemExit("campaign: --users, --jobs, and --nodes "
                         "must all be >= 1")
    system = SUMMIT if args.system == "summit" else PIZ_DAINT
    site = SiteLauncher(SiteConfig(system=system,
                                   nodes=min(args.nodes, system.nodes)))
    jobs = synth_campaign(CampaignConfig(
        num_users=args.users, num_jobs=args.jobs,
        submit_rate_per_s=args.rate, seed=args.seed))
    plan = FaultPlan.parse(args.plan, seed=args.seed) if args.plan else None
    out = Path(args.out) if args.out else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        store = JobStore(out / "campaign.jsonl")
        runtime = CheckpointedRuntime(out / "jobs", seed=args.seed)
    else:
        store = JobStore()
        runtime = MemoryRuntime()
    clock = SimulatedClock()
    tel = Telemetry(clock=clock)
    with activate(tel):
        service = CampaignService(
            site, store, FairShareScheduler(SchedulerConfig()), runtime,
            ServiceConfig(ckpt_every_s=args.ckpt_every_s), plan=plan,
            clock=clock)
        for job in jobs:
            service.submit(job)
        report = service.run()
    store.close()
    if out is not None:
        trace_path = out / "trace.json"
        write_chrome_trace(trace_path, tel.tracer.spans())
        report_path = out / "report.json"
        report_path.write_text(
            json.dumps(report.as_dict(), indent=1, sort_keys=True) + "\n")
        if not args.json:
            print(f"wrote {out / 'campaign.jsonl'}, {report_path}, "
                  f"and {trace_path}")
    ok = report.all_done and report.fair_share_error <= args.fair_bound
    if args.json:
        print(json.dumps(report.as_dict(), indent=1, sort_keys=True))
        return 0 if ok else 1
    terminal = ", ".join(f"{k}={v}" for k, v in
                         sorted(report.by_terminal_state.items()))
    injected = ", ".join(f"{k}={v}" for k, v in sorted(report.injected.items()))
    resumed = "; ".join(
        f"{jid}: step {v['resume_step']}, "
        f"{v['nodes_before']}->{v['nodes_after']} nodes"
        for jid, v in sorted(report.as_dict()["resumed"].items()))
    rows = [
        ["jobs", f"{report.jobs} ({terminal or 'none terminal'})"],
        ["lost jobs", str(report.lost_jobs or "none")],
        ["injected", injected or "(none)"],
        ["restarts", str(report.restarts)],
        ["resumed", resumed or "(none)"],
        ["checkpoints saved", str(report.checkpoints_saved)],
        ["makespan", f"{report.makespan_s:,.1f} virtual s"],
        ["utilization", f"{report.utilization * 100:.1f}% "
                        f"of {site.total_nodes} nodes"],
        ["fair-share error", f"{report.fair_share_error:.4f} "
                             f"(bound {args.fair_bound})"],
    ]
    for user, ns in sorted(report.node_seconds.items()):
        rows.append([f"{user} usage", f"{ns:,.0f} node-s"])
    for state, dwell in sorted(report.dwell_median_s.items()):
        rows.append([f"dwell p50 {state}", f"{dwell:,.1f} s"])
    print(format_table(["metric", "value"], rows,
                       title=f"Campaign drill - {args.jobs} jobs, "
                             f"{args.users} users, seed {args.seed}"))
    print("campaign OK" if ok else "campaign FAILED")
    return 0 if ok else 1


def _cmd_bench(args) -> int:
    """Run benchmark suites through the machine-readable protocol.

    Wraps ``benchmarks/runner.py``: runs each suite's ``collect(profile)``,
    writes ``BENCH_<tag>.json`` under ``--out``, and — with ``--against`` —
    gates the result against a baseline report, exiting 1 when any gated
    metric regresses past its tolerance band.  This is the CI perf gate.
    """
    import importlib.util
    import pathlib

    bench_dir = pathlib.Path(args.bench_dir).resolve()
    runner_path = bench_dir / "runner.py"
    if not runner_path.exists():
        print(f"error: no benchmark runner at {runner_path}", file=sys.stderr)
        return 2
    spec = importlib.util.spec_from_file_location("runner", runner_path)
    runner = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("runner", runner)
    spec.loader.exec_module(runner)

    argv = ["--suite", args.suite, "--profile", args.profile,
            "--tag", args.tag, "--out", args.out or str(bench_dir / "out"),
            "--tolerance", str(args.tolerance)]
    if args.against:
        argv += ["--against", args.against]
    if args.json:
        argv += ["--json"]
    return runner.main(argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Regenerate experiments from the paper")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("fig2", help="single-GPU performance table").set_defaults(
        fn=_cmd_fig2)

    p4 = sub.add_parser("fig4", help="weak scaling curves")
    p4.add_argument("--network", default="deeplabv3+",
                    choices=["deeplabv3+", "tiramisu", "tiramisu_4ch"])
    p4.add_argument("--system", default="summit",
                    choices=["summit", "piz_daint"])
    p4.add_argument("--precision", default="fp16", choices=["fp16", "fp32"])
    p4.add_argument("--lag", type=int, default=1, choices=[0, 1])
    p4.set_defaults(fn=_cmd_fig4)

    sub.add_parser("fig5", help="staging vs global FS").set_defaults(fn=_cmd_fig5)
    sub.add_parser("flops", help="operation counts").set_defaults(fn=_cmd_flops)

    ps = sub.add_parser("staging", help="staging-time comparison")
    ps.add_argument("--nodes", type=int, default=1024)
    ps.set_defaults(fn=_cmd_staging)

    pc = sub.add_parser("control-plane", help="Horovod negotiation loads")
    pc.add_argument("--ranks", type=int, default=4096)
    pc.add_argument("--tensors", type=int, default=110)
    pc.add_argument("--radix", type=int, default=4)
    pc.set_defaults(fn=_cmd_control_plane)

    prep = sub.add_parser(
        "report", help="every paper number vs measured; exit 1 if one is out "
                       "of its band")
    prep.add_argument("--trained", action="store_true",
                      help="add the rows that train scaled-down networks")
    prep.set_defaults(fn=_cmd_report)

    pt = sub.add_parser("train", help="train a small Tiramisu on synthetic data")
    pt.add_argument("--samples", type=int, default=16)
    pt.add_argument("--epochs", type=int, default=4)
    pt.add_argument("--grid", type=int, default=24)
    pt.add_argument("--lr", type=float, default=0.1)
    pt.add_argument("--seed", type=int, default=0)
    pt.set_defaults(fn=_cmd_train)

    pr = sub.add_parser(
        "trace", help="instrumented tiny training run -> trace.json + metrics.txt")
    pr.add_argument("--samples", type=int, default=8)
    pr.add_argument("--steps", type=int, default=3)
    pr.add_argument("--ranks", type=int, default=2)
    pr.add_argument("--batch", type=int, default=1)
    pr.add_argument("--grid", type=int, default=16)
    pr.add_argument("--lr", type=float, default=0.05)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--out", default="trace_out")
    pr.add_argument("--serve-requests", type=int, default=0,
                    help="also run N requests through the inference server "
                         "so serve.* spans merge into the trace")
    pr.add_argument("--json", action="store_true",
                    help="emit a machine-readable summary (message links, "
                         "per-step phase breakdowns) instead of text")
    pr.set_defaults(fn=_cmd_trace)

    pf = sub.add_parser(
        "faults",
        help="fault-injection drill: recover from a seeded FaultPlan")
    pf.add_argument("--plan",
                    default="rank_fail@2:rank=1;read_fault@1;read_fault@4",
                    help="fault schedule, e.g. 'rank_fail@2:rank=1;"
                         "read_fault@1;drop_msg@3:count=2'")
    pf.add_argument("--ranks", type=int, default=8)
    pf.add_argument("--steps", type=int, default=6)
    pf.add_argument("--samples", type=int, default=16)
    pf.add_argument("--grid", type=int, default=16)
    pf.add_argument("--lr", type=float, default=0.01)
    pf.add_argument("--lr-scaling", default="linear",
                    choices=["linear", "sqrt", "none"],
                    help="LR rescale rule after an elastic shrink")
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument("--ckpt-every", type=int, default=2)
    pf.add_argument("--tolerance", type=float, default=0.05,
                    help="max relative final-loss difference vs fault-free")
    pf.add_argument("--out", default="faults_out")
    pf.set_defaults(fn=_cmd_faults)

    pcd = sub.add_parser(
        "comm-drill",
        help="communication drill: compressed training must track dense")
    pcd.add_argument("--ranks", type=int, default=4)
    pcd.add_argument("--steps", type=int, default=12)
    pcd.add_argument("--samples", type=int, default=16)
    pcd.add_argument("--grid", type=int, default=16)
    pcd.add_argument("--lr", type=float, default=0.01)
    pcd.add_argument("--seed", type=int, default=0)
    pcd.add_argument("--compression", default="int8",
                     choices=["topk", "int8"],
                     help="lossy codec for the compressed run")
    pcd.add_argument("--ratio", type=float, default=0.25,
                     help="top-k keep fraction (ignored for int8)")
    pcd.add_argument("--bucket-kb", type=int, default=4096,
                     help="gradient fusion bucket size in KiB")
    pcd.add_argument("--tolerance", type=float, default=0.05,
                     help="max relative final-eval-loss difference vs dense")
    pcd.add_argument("--json", action="store_true",
                     help="emit the machine-readable report (CI smoke job)")
    pcd.set_defaults(fn=_cmd_comm_drill)

    ph = sub.add_parser(
        "health",
        help="health drill: faulty training under the streaming/health "
             "engine (virtual time)")
    ph.add_argument("--plan",
                    default="straggler@1:rank=3,factor=4;"
                            "rank_fail@6:rank=3;read_fault@2",
                    help="fault schedule; the default stragglers rank 3 "
                         "then kills it")
    ph.add_argument("--ranks", type=int, default=8)
    ph.add_argument("--steps", type=int, default=10)
    ph.add_argument("--samples", type=int, default=16)
    ph.add_argument("--grid", type=int, default=16)
    ph.add_argument("--lr", type=float, default=0.01)
    ph.add_argument("--seed", type=int, default=0)
    ph.add_argument("--window", type=float, default=1.0,
                    help="tumbling-window width in virtual seconds "
                         "(one training step per window)")
    ph.add_argument("--json", action="store_true",
                    help="emit the machine-readable health report")
    ph.add_argument("--out", default="health_out")
    ph.set_defaults(fn=_cmd_health)

    pv = sub.add_parser(
        "serve",
        help="serving drill: synthetic load through the inference server")
    pv.add_argument("--requests", type=int, default=64)
    pv.add_argument("--rate", type=float, default=500.0,
                    help="offered arrival rate, requests/s (Poisson)")
    pv.add_argument("--replicas", type=int, default=2)
    pv.add_argument("--batch", type=int, default=8,
                    help="micro-batch size cap")
    pv.add_argument("--max-wait-ms", type=float, default=2.0,
                    help="max batching delay for the oldest request")
    pv.add_argument("--forward-batch", type=int, default=32,
                    help="windows stacked per model forward")
    pv.add_argument("--window", type=int, default=8)
    pv.add_argument("--stride", type=int, default=4)
    pv.add_argument("--image", type=int, default=16)
    pv.add_argument("--channels", type=int, default=4)
    pv.add_argument("--repeat", type=float, default=0.25,
                    help="fraction of requests resubmitting an earlier "
                         "snapshot (cache redundancy)")
    pv.add_argument("--max-depth", type=int, default=64,
                    help="per-lane queue cap before queue_full shedding")
    pv.add_argument("--slo-ms", type=float, default=0.0,
                    help="interactive-lane queueing SLO; 0 disables "
                         "slo shedding")
    pv.add_argument("--cache-mb", type=int, default=32,
                    help="tile-cache budget in MiB (0 disables)")
    pv.add_argument("--service-ms", type=float, default=0.0,
                    help="fixed virtual service time per window, ms "
                         "(0 = measured compute time)")
    pv.add_argument("--plan", default="",
                    help="fault schedule, e.g. 'rank_fail@2:rank=1' "
                         "(rank = replica id)")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--json", action="store_true",
                    help="emit the report as JSON (CI smoke job)")
    pv.add_argument("--out", default="",
                    help="directory for the Chrome trace (optional)")
    pv.set_defaults(fn=_cmd_serve)

    pf = sub.add_parser(
        "fleet",
        help="fleet drill: diurnal+burst replay through the autoscaled, "
             "sharded serve fleet")
    pf.add_argument("--requests", type=int, default=100_000,
                    help="virtual requests in the replay")
    pf.add_argument("--duration", type=float, default=300.0,
                    help="replay horizon in virtual seconds")
    pf.add_argument("--cells", default="east,west",
                    help="comma-separated cell names")
    pf.add_argument("--replicas", type=int, default=2,
                    help="initial replicas per cell")
    pf.add_argument("--min-replicas", type=int, default=1)
    pf.add_argument("--max-replicas", type=int, default=16)
    pf.add_argument("--bursts", default="",
                    help="overload windows as start:duration:multiplier"
                         "[,...] in virtual seconds")
    pf.add_argument("--pool", type=int, default=5000,
                    help="distinct snapshot keys (Zipf-popular)")
    pf.add_argument("--windows", type=int, default=4,
                    help="tile windows per request")
    pf.add_argument("--slo-ms", type=float, default=250.0,
                    help="interactive-lane estimated-wait budget; "
                         "0 disables SLO spillover/shedding")
    pf.add_argument("--cache-mb", type=int, default=4,
                    help="per-replica tile-cache budget in MiB")
    pf.add_argument("--unsharded", action="store_true",
                    help="least-loaded routing instead of the hash ring "
                         "(ablation)")
    pf.add_argument("--no-spillover", action="store_true",
                    help="disable cross-cell spillover")
    pf.add_argument("--no-autoscale", action="store_true",
                    help="pin every cell at --replicas")
    pf.add_argument("--plan", default="",
                    help="fault schedule, e.g. 'rank_fail@120:rank=1' "
                         "(rank = global replica id, step = virtual "
                         "seconds)")
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument("--json", action="store_true",
                    help="emit the report as JSON (CI smoke job)")
    pf.add_argument("--out", default="",
                    help="directory for the Chrome trace + report JSON")
    pf.set_defaults(fn=_cmd_fleet)

    pg = sub.add_parser(
        "campaign",
        help="campaign drill: multi-user jobs through the orchestrator")
    pg.add_argument("--users", type=int, default=3)
    pg.add_argument("--jobs", type=int, default=12)
    pg.add_argument("--nodes", type=int, default=32,
                    help="site size in nodes (capped at the machine)")
    pg.add_argument("--system", default="summit",
                    choices=["summit", "piz_daint"])
    pg.add_argument("--rate", type=float, default=1.0 / 30.0,
                    help="job arrival rate, jobs/s (Poisson)")
    pg.add_argument("--ckpt-every-s", type=float, default=10.0,
                    help="virtual checkpoint cadence while RUNNING")
    pg.add_argument("--fair-bound", type=float, default=0.25,
                    help="max tolerated fair-share error")
    pg.add_argument("--plan", default="",
                    help="fault schedule, e.g. 'rank_fail@1:rank=0' "
                         "(rank = job submit index, step = scheduler tick)")
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--json", action="store_true",
                    help="emit the report as JSON (CI smoke job)")
    pg.add_argument("--out", default="",
                    help="directory for the JSONL log, checkpoints, "
                         "report.json, and Chrome trace (optional)")
    pg.set_defaults(fn=_cmd_campaign)

    pb = sub.add_parser(
        "bench",
        help="run benchmark suites, emit BENCH_<tag>.json, gate vs baseline")
    pb.add_argument("--suite", default="kernels,serving,allreduce",
                    help="comma-separated suite names (bench_<name>.py)")
    pb.add_argument("--profile", default="quick",
                    choices=["smoke", "quick", "full"])
    pb.add_argument("--tag", default="head",
                    help="report tag: output file is BENCH_<tag>.json")
    pb.add_argument("--out", default=None,
                    help="output directory (default: <bench-dir>/out)")
    pb.add_argument("--against", default=None, metavar="BASELINE_JSON",
                    help="gate against this baseline; exit 1 on regression")
    pb.add_argument("--tolerance", type=float, default=0.15,
                    help="default tolerance band for gated metrics")
    pb.add_argument("--bench-dir",
                    default=str(pathlib.Path(__file__).resolve().parents[2]
                                / "benchmarks"),
                    help="directory holding runner.py and bench_*.py")
    pb.add_argument("--json", action="store_true",
                    help="print the full report JSON to stdout")
    pb.set_defaults(fn=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
