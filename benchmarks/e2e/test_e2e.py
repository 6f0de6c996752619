"""Self-tests of the end-to-end benchmark, on ``--smoke`` sizes.

Not part of tier-1 (``testpaths = ["tests"]``); run them with::

    python -m pytest benchmarks/e2e/test_e2e.py -q -p no:cacheprovider

They check the benchmark, not the program: every declared metric comes out
once with its unit, inputs depend on the seed and on nothing else, the
tracer's self times add up to the wall time they cover, and no wrapper
outlives a run.
"""
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402

run._import_program()

from trace import Tracer  # noqa: E402

SPEC = run.load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def smoke():
    """Smoke runs, made once each: ``smoke(name, seed, trace)``."""
    cache = {}

    def get(name, seed=0, trace=False):
        key = (name, seed, trace)
        if key not in cache:
            cache[key] = run.measure(name, seed, run.SMOKE_SECONDS, trace,
                                     smoke=True)
        return cache[key]

    return get


# -- BENCHMARK.json -----------------------------------------------------------


def test_spec_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = NAMES + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT_RE.fullmatch(m["unit"]), m
        assert m["better"] in ("higher", "lower")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 10) <= 3420


# -- every metric, once, with a unit --------------------------------------------


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics(smoke, name):
    result, detail = smoke(name)
    assert detail["problems"] == []
    assert result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert list(result["metrics"]) == list(want)
    for metric, m in result["metrics"].items():
        assert m["unit"] == want[metric]
        assert m["value"] > 0, metric       # end-to-end metrics are never 0
    assert detail["samples"] >= 1


@pytest.mark.parametrize("name", NAMES)
def test_per_layer_metrics(smoke, name):
    result, detail = smoke(name, trace=True)
    assert detail["problems"] == []
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert list(result["metrics"]) == list(want)
    for metric, m in result["metrics"].items():
        assert m["unit"] == want[metric]
    # A layer the workload does not cross reads 0; its own layers do not.
    own = {"train": "framework.backward_busy_s",
           "infer": "serve.serve_busy_s",
           "fleet": "fleet.run_busy_s",
           "campaign": "campaign.run_busy_s"}[name.split("_")[0]]
    assert result["metrics"][own]["value"] > 0
    for metric, m in result["metrics"].items():
        layer = metric.split(".")[0]
        if layer in ("fleet", "campaign") and not name.startswith(layer):
            assert m["value"] == 0, (name, metric)
    trace = json.loads((run.ROOT / detail["trace_file"]).read_text())
    events = trace["traceEvents"]
    assert len(events) == detail["trace_spans"] > 0
    assert {"name", "cat", "ph", "ts", "dur", "args"} <= set(events[0])
    assert all(e["args"]["op_id"] is not None for e in events
               if e["name"] != "bench.timed" and e["tid"] == 0)


# -- inputs come from the seed ---------------------------------------------------


@pytest.mark.parametrize("name", NAMES)
def test_seed_decides_the_inputs(smoke, name):
    same_a = smoke(name, seed=0)[1]["input_digest"]
    same_b = smoke(name, seed=0, trace=True)[1]["input_digest"]
    other = smoke(name, seed=1)[1]["input_digest"]
    assert same_a == same_b
    assert same_a != other
    assert smoke(name, seed=1)[1]["problems"] == []


# -- the tracer -------------------------------------------------------------------


@pytest.mark.parametrize("name", NAMES)
def test_self_times_sum_to_timed_wall(smoke, name):
    detail = smoke(name, trace=True)[1]
    assert detail["trace_self_sum_s"] == pytest.approx(
        detail["trace_wall_s"], rel=0.02)


def test_wrappers_are_removed_after_a_run(smoke):
    from repro.core.optim.base import Optimizer
    from repro.framework.module import Module
    from repro.serve import TileCache
    import repro.serve.replica as serve_replica

    watched = [(Module, "__call__"), (Optimizer, "step"), (TileCache, "get"),
               (serve_replica, "forward_windows")]
    before = [vars(owner)[attr] for owner, attr in watched]
    for name in NAMES:
        smoke(name, trace=True)
    after = [vars(owner)[attr] for owner, attr in watched]
    assert all(a is b for a, b in zip(after, before))
    assert not any(hasattr(fn, "__wrapped__") for fn in after)


def test_tracer_self_time_and_restore():
    class Layer:
        def outer(self):
            return self.inner() + self.inner()

        def inner(self):
            return 1

    tracer = Tracer()
    original = vars(Layer)["outer"]
    tracer.wrap(Layer, "outer", "a.outer")
    tracer.wrap(Layer, "inner", "b.inner", mode="time")
    assert Layer().outer() == 2             # disabled: passes straight through
    assert not tracer.totals().calls
    tracer.enabled = True
    tracer.op_id = "op-7"
    assert Layer().outer() == 2
    totals = tracer.totals()
    assert totals.calls == {"a.outer": 1, "b.inner": 2}
    assert totals.incl_s["a.outer"] == pytest.approx(
        totals.self_s["a.outer"] + totals.incl_s["b.inner"])
    # `time` mode feeds the sums but keeps no span; spans carry the op id.
    assert [(s[1], s[5]) for s in totals.spans] == [("a.outer", "op-7")]
    tracer.restore()
    assert vars(Layer)["outer"] is original and tracer.patched == []


# -- Timed ------------------------------------------------------------------------


def test_one_stalled_slice_does_not_set_the_numbers():
    from workloads import Timed

    timed = Timed()
    for i in range(120):                # ops 40-59: a 10x stall of the host
        ms = 100.0 if 40 <= i < 60 else 10.0
        timed.add(1, 0, 1, ms / 1e3)
        timed.op_ms.append(ms)
    assert timed.throughput() == pytest.approx(100.0)
    assert timed.op_ms_percentile(90) == pytest.approx(10.0)
    # Too few ops for six slices of ten: the pooled percentile.
    few = Timed(op_ms=[10.0] * 17 + [100.0] * 3)
    assert few.op_ms_percentile(90) == pytest.approx(100.0)


# -- compare.py -------------------------------------------------------------------


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [v * 0.97 for v in steady],
                           "higher", 0.08)[1] == "ok"
    assert compare.verdict(steady, [v * 0.80 for v in steady],
                           "higher", 0.08)[1] == "regressed"
    assert compare.verdict(steady, [v * 1.20 for v in steady],
                           "lower", 0.08)[1] == "regressed"
    noisy = [100.0, 130.0, 80.0, 120.0, 90.0]
    assert compare.verdict(noisy, [v * 0.8 for v in noisy],
                           "higher", 0.08)[1] == "unresolved"
    # Wider than the bound, yet every run of B beats every run of A.
    assert compare.verdict(noisy, [v + 100 for v in noisy],
                           "higher", 0.08)[1] == "ok"
    assert compare.spread([5.0]) == 0.0
