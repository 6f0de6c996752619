"""Command-line interface."""
import pytest

from repro.cli import build_parser, main


class TestCli:
    def test_fig2(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "deeplabv3+" in out and "tiramisu" in out

    def test_fig4_custom(self, capsys):
        assert main(["fig4", "--network", "tiramisu_4ch", "--system",
                     "piz_daint", "--precision", "fp32", "--lag", "0"]) == 0
        out = capsys.readouterr().out
        assert "piz_daint" in out
        assert "eff %" in out

    def test_fig5(self, capsys):
        assert main(["fig5"]) == 0
        assert "global" in capsys.readouterr().out

    def test_flops(self, capsys):
        assert main(["flops"]) == 0
        assert "TF/sample" in capsys.readouterr().out

    def test_staging(self, capsys):
        assert main(["staging", "--nodes", "256"]) == 0
        out = capsys.readouterr().out
        assert "naive" in out and "distributed" in out

    def test_control_plane(self, capsys):
        assert main(["control-plane", "--ranks", "128", "--tensors", "20"]) == 0
        out = capsys.readouterr().out
        assert "centralized" in out
        assert "orders identical: True" in out

    def test_train_tiny(self, capsys):
        assert main(["train", "--samples", "8", "--epochs", "1",
                     "--grid", "16"]) == 0
        out = capsys.readouterr().out
        assert "validation mean IoU" in out

    def test_trace_writes_artifacts(self, capsys, tmp_path):
        import json

        out = tmp_path / "trace_out"
        assert main(["trace", "--samples", "4", "--steps", "2",
                     "--grid", "16", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "per-step throughput: median" in printed
        assert "central 68%" in printed
        doc = json.loads((out / "trace.json").read_text())
        complete = [r for r in doc["traceEvents"] if r.get("ph") == "X"]
        span_cats = {r["cat"] for r in complete}
        # Spans from at least trainer, io, and comm in one trace.
        assert {"trainer", "io", "comm"} <= span_cats
        assert all(r["ts"] >= 0 and r["dur"] > 0 for r in complete)
        metrics = (out / "metrics.txt").read_text()
        assert "trainer.step_time_s" in metrics
        assert "per-step throughput: median" in metrics
        assert (out / "telemetry.jsonl").exists()

    def test_faults_drill_recovers(self, capsys, tmp_path):
        import json

        out = tmp_path / "faults_out"
        # The ISSUE acceptance drill: 8 ranks, one rank death at step 2,
        # two injected read faults.  Exit 0 asserts the faulty run finished
        # and recovered to within tolerance of the fault-free baseline.
        assert main(["faults",
                     "--plan", "rank_fail@2:rank=1;read_fault@1;read_fault@4",
                     "--ranks", "8", "--steps", "6", "--samples", "16",
                     "--grid", "16", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "world size" in printed and "8 -> 7" in printed
        assert "elastic recoveries" in printed
        assert "recovery OK" in printed
        doc = json.loads((out / "trace.json").read_text())
        cats = {r.get("cat") for r in doc["traceEvents"]}
        assert "resilience" in cats
        names = {r.get("name") for r in doc["traceEvents"]}
        assert "elastic_recovery" in names and "fault_injected" in names
        assert (out / "ckpts").exists()
        assert (out / "metrics.txt").exists()

    def test_campaign_drill_restarts_and_drains(self, capsys, tmp_path):
        import json

        out = tmp_path / "campaign_out"
        # The ISSUE acceptance drill: a seeded 3-user campaign with one
        # mid-run kill; the killed job must restart from its checkpoint on
        # fewer nodes and the whole campaign must drain to DONE.
        assert main(["campaign", "--users", "3", "--jobs", "12",
                     "--plan", "rank_fail@1:rank=0", "--json",
                     "--out", str(out)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["all_done"] is True
        assert doc["by_terminal_state"] == {"DONE": 12}
        assert doc["lost_jobs"] == []
        assert doc["injected"]["rank_fail"] == 1
        assert doc["restarts"] == 1
        (resumed,) = doc["resumed"].values()
        assert resumed["resume_step"] > 0
        assert resumed["nodes_after"] == resumed["nodes_before"] - 1
        assert doc["fair_share_error"] <= 0.25
        assert 0 < doc["utilization"] <= 1
        # Persisted artifacts: JSONL log, report, trace, real checkpoints.
        assert (out / "campaign.jsonl").exists()
        assert json.loads((out / "report.json").read_text()) == doc
        trace = json.loads((out / "trace.json").read_text())
        names = {r.get("name") for r in trace["traceEvents"]}
        assert {"stage_in", "job_run", "job_restart"} <= names
        assert list(out.glob("jobs/*/ckpts/*.npz"))

    def test_campaign_drill_is_deterministic(self, capsys):
        import json

        argv = ["campaign", "--users", "2", "--jobs", "6", "--json",
                "--plan", "rank_fail@1:rank=0", "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert json.loads(first)["all_done"] is True

    def test_campaign_text_report(self, capsys):
        assert main(["campaign", "--users", "2", "--jobs", "4"]) == 0
        printed = capsys.readouterr().out
        assert "Campaign drill" in printed
        assert "fair-share error" in printed
        assert "campaign OK" in printed

    def test_campaign_rejects_bad_args(self):
        with pytest.raises(SystemExit):
            main(["campaign", "--users", "0"])

    def test_trace_json_mode_merges_serve_and_matches_messages(self, capsys,
                                                               tmp_path):
        import json

        out = tmp_path / "trace_out"
        assert main(["trace", "--samples", "8", "--steps", "2",
                     "--grid", "16", "--ranks", "2", "--serve-requests", "8",
                     "--json", "--out", str(out)]) == 0
        doc = json.loads(capsys.readouterr().out)
        # Every simmpi message on a clean run pairs its send with its recv.
        msgs = doc["messages"]
        assert msgs["total"] > 0
        assert msgs["matched"] == msgs["total"]
        assert msgs["unmatched"] == 0 and msgs["dropped"] == 0
        # Serve spans merged into the same trace as the training run.
        assert doc["components"].get("serve", 0) > 0
        assert doc["components"]["comm.msg"] == 2 * msgs["total"]
        # Per-step attribution partitions each step's elapsed time.
        for step in doc["steps"]:
            parts = (step["compute_s"] + step["comm_s"] + step["io_s"]
                     + step["stall_s"])
            assert parts == pytest.approx(step["total_s"], rel=1e-6)
        assert set(doc["phase_summary"]) == {"compute", "comm", "io",
                                             "stall"}

    def test_health_drill_names_straggler_and_resolves(self, capsys,
                                                       tmp_path):
        import json

        out = tmp_path / "health_out"
        assert main(["health", "--ranks", "4", "--steps", "8",
                     "--samples", "16", "--grid", "16",
                     "--json", "--out", str(out)]) == 0
        doc = json.loads(capsys.readouterr().out)
        # The ISSUE acceptance drill: the injected straggler (rank 3 in the
        # default plan) is named, and at least one rule fired and resolved.
        assert doc["straggler_rank"] == 3
        assert doc["alerts_fired"] >= 1
        assert doc["alerts_resolved"] >= 1
        states = {a["state"] for a in doc["health"]["alerts"]}
        assert "resolved" in states
        assert (out / "trace.json").exists()

    def test_comm_drill_reports_lockstep(self, capsys):
        import json

        main(["comm-drill", "--ranks", "2", "--steps", "2", "--samples", "4",
              "--grid", "8", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["dense"]["replica_divergence"] == 0.0
        assert doc["compressed"]["replica_divergence"] == 0.0

    def test_health_text_dashboard(self, capsys, tmp_path):
        out = tmp_path / "health_out"
        assert main(["health", "--ranks", "4", "--steps", "8",
                     "--samples", "16", "--grid", "16",
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "rules:" in printed
        assert "rank_imbalance" in printed
        assert "straggler" in printed

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_network(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig4", "--network", "alexnet"])


SCRATCH_RPR001 = """\
def sync(world, rank, value):
    if rank == 0:
        world.broadcast(value, root=0)
    return value
"""


class TestLintCli:
    """The ISSUE acceptance demo: a collective under ``if rank == 0:`` in a
    scratch file must surface as RPR001 with file/line/rule in both
    formats, and the exit code is the CI gate."""

    def test_rpr001_text_output(self, capsys, tmp_path):
        scratch = tmp_path / "scratch.py"
        scratch.write_text(SCRATCH_RPR001)
        assert main(["lint", str(scratch)]) == 1
        out = capsys.readouterr().out
        assert "RPR001" in out
        assert "scratch.py:3" in out
        assert "broadcast" in out and "deadlock" in out

    def test_rpr001_json_output(self, capsys, tmp_path):
        import json

        scratch = tmp_path / "scratch.py"
        scratch.write_text(SCRATCH_RPR001)
        assert main(["lint", "--format", "json", str(scratch)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["exit_code"] == 1
        (finding,) = doc["findings"]
        assert finding["rule"] == "RPR001"
        assert finding["path"].endswith("scratch.py")
        assert finding["line"] == 3
        assert doc["summary"]["new_by_rule"] == {"RPR001": 1}

    def test_clean_file_exits_zero(self, capsys, tmp_path):
        scratch = tmp_path / "clean.py"
        scratch.write_text("def add(a, b):\n    return a + b\n")
        assert main(["lint", str(scratch)]) == 0
        assert "0 new" in capsys.readouterr().out

    def test_update_baseline_then_gate(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "legacy.py"
        bad.write_text("import numpy as np\ny = np.random.rand(3)\n")
        assert main(["lint", "--update-baseline", str(bad)]) == 0
        capsys.readouterr()
        assert main(["lint", str(bad)]) == 0    # baselined
        out = capsys.readouterr().out
        assert "1 baselined" in out

    def test_fix_rewrites_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("try:\n    risky()\nexcept:\n    pass\n")
        main(["lint", "--fix", str(bad)])
        assert "except Exception:" in bad.read_text()

    def test_rules_catalog(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RPR001", "RPR002", "RPR003", "RPR005", "RPR006",
                        "RPR007", "RPR008"):
            assert rule_id in out

    def test_prune_baseline_drops_fixed_debt(self, capsys, tmp_path,
                                             monkeypatch):
        import json

        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "legacy.py"
        bad.write_text("import numpy as np\ny = np.random.rand(3)\n")
        assert main(["lint", "--update-baseline", str(bad)]) == 0
        capsys.readouterr()
        bad.write_text("import numpy as np\n"
                       "y = np.random.default_rng(0).random(3)\n")
        assert main(["lint", "--prune-baseline", str(bad)]) == 0
        out = capsys.readouterr().out
        assert "baseline pruned: 1 stale entry removed" in out
        doc = json.loads((tmp_path / ".repro-lint-baseline.json").read_text())
        assert doc["entries"] == []


class TestServeCli:
    """The serving drill end-to-end through the CLI entry point."""

    def test_serve_table_output(self, capsys):
        assert main(["serve", "--requests", "12", "--rate", "500",
                     "--replicas", "2", "--service-ms", "0.5",
                     "--channels", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Serving drill" in out
        assert "lost admitted" in out
        assert "p50/p99" in out
        assert "cache hit rate" in out

    def test_serve_json_fault_run_loses_nothing(self, capsys, tmp_path):
        import json

        assert main(["serve", "--requests", "16", "--rate", "1000",
                     "--replicas", "2", "--service-ms", "0.5",
                     "--channels", "2", "--seed", "2",
                     "--plan", "rank_fail@1:rank=1",
                     "--json", "--out", str(tmp_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["offered"] == 16
        assert doc["lost_admitted"] == 0
        assert doc["replica_failures"] == 1
        assert doc["alive_replicas"] == [0]
        assert (tmp_path / "trace.json").exists()

    def test_serve_overload_sheds(self, capsys):
        assert main(["serve", "--requests", "64", "--rate", "50000",
                     "--replicas", "1", "--service-ms", "2.0",
                     "--max-depth", "4", "--channels", "2",
                     "--json"]) == 0
        import json

        doc = json.loads(capsys.readouterr().out)
        assert doc["shed"] > 0
        assert doc["shed_by_reason"].get("queue_full", 0) > 0
        assert doc["lost_admitted"] == 0

    def test_serve_validates_arguments(self):
        with pytest.raises(SystemExit):
            main(["serve", "--requests", "0"])

    def test_serve_json_valid_on_total_loss(self, capsys):
        # Regression: killing the only replica used to short-circuit the
        # JSON emitter (falsy empty TileCache + an escaping ReproError),
        # so automation got a traceback instead of a document.  The shed
        # / lost-request failure path must still print valid JSON.
        import json

        code = main(["serve", "--requests", "16", "--rate", "1000",
                     "--replicas", "1", "--service-ms", "0.5",
                     "--channels", "2", "--seed", "3",
                     "--plan", "rank_fail@0:rank=0", "--json"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["alive_replicas"] == []
        assert doc["cache"] is not None
        assert "hit_rate" in doc["cache"]


class TestFleetCli:
    """The ``repro fleet`` drill end-to-end through the CLI."""

    FAST = ["--requests", "4000", "--duration", "60", "--replicas", "2",
            "--max-replicas", "6", "--bursts", "20:10:3", "--seed", "4"]

    def test_fleet_table_output(self, capsys):
        assert main(["fleet", *self.FAST]) == 0
        out = capsys.readouterr().out
        assert "Fleet drill" in out
        assert "lost admitted" in out
        assert "east" in out and "west" in out

    def test_fleet_json_burst_and_kill(self, capsys, tmp_path):
        import json

        assert main(["fleet", *self.FAST,
                     "--plan", "rank_fail@25:rank=0",
                     "--json", "--out", str(tmp_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["offered"] == 4000
        assert doc["lost_admitted"] == 0
        assert doc["failed"] == 0
        kinds = [e["kind"] for e in doc["scale_events"]]
        assert "kill" in kinds
        # The replica loss fires a health alert that later resolves.
        assert doc["alerts_resolved"] >= 1
        assert (tmp_path / "trace.json").exists()
        report = json.loads((tmp_path / "fleet_report.json").read_text())
        assert report["offered"] == doc["offered"]

    def test_fleet_is_deterministic(self, capsys):
        import json

        docs = []
        for _ in range(2):
            assert main(["fleet", *self.FAST, "--json"]) == 0
            docs.append(json.loads(capsys.readouterr().out))
        assert docs[0] == docs[1]

    def test_fleet_validates_arguments(self):
        with pytest.raises(SystemExit):
            main(["fleet", "--requests", "0"])
        with pytest.raises(SystemExit):
            main(["fleet", "--bursts", "nonsense"])
