"""Per-rule unit tests: one true positive and one true negative each.

Fixtures are inline source strings (never files in this repo, so the
self-check over ``tests/`` stays clean: string literals are data to the
analyzer, not code).
"""
import textwrap

from repro.analysis import FileContext
from repro.analysis.findings import apply_edits
from repro.analysis.rules import (BroadExcept, CollectiveInRankBranch,
                                  Float16OutsidePrecision, MutableDefaultArg,
                                  RawTimeCall, UnseededRng)


def check(rule, source, rel_path="src/repro/scratch.py"):
    ctx = FileContext(rel_path, textwrap.dedent(source))
    return rule.check(ctx)


class TestCollectiveInRankBranch:
    def test_broadcast_under_rank_zero_flagged(self):
        findings = check(CollectiveInRankBranch(), """\
            def sync(world, rank, value):
                if rank == 0:
                    world.broadcast(value, root=0)
                return value
            """)
        assert len(findings) == 1
        f = findings[0]
        assert f.rule_id == "RPR001" and f.severity == "error"
        assert f.line == 3 and "broadcast" in f.message

    def test_else_branch_and_attribute_rank_flagged(self):
        findings = check(CollectiveInRankBranch(), """\
            def sync(self, grads):
                if self.rank != 0:
                    pass
                else:
                    self.world.allreduce_gradients(grads)
            """)
        assert [f.line for f in findings] == [5]

    def test_collective_outside_branch_clean(self):
        findings = check(CollectiveInRankBranch(), """\
            def sync(world, rank, value):
                out = world.broadcast(value, root=0)
                if rank == 0:
                    print("root got", out)
                return out
            """)
        assert findings == []

    def test_nested_def_resets_condition(self):
        # The branch guards the *definition*; every rank can still call it.
        findings = check(CollectiveInRankBranch(), """\
            def build(world, rank):
                if rank == 0:
                    def sync(v):
                        return world.broadcast(v)
                    return sync
            """)
        assert findings == []

    def test_point_to_point_under_rank_branch_clean(self):
        # send/recv under a rank conditional is the normal MPI idiom.
        findings = check(CollectiveInRankBranch(), """\
            def relay(world, rank, v):
                if rank == 0:
                    world.send(v, 0, 1)
                else:
                    v = world.recv(rank, 0)
                return v
            """)
        assert findings == []


class TestBroadExcept:
    def test_bare_except_flagged_with_autofix(self):
        findings = check(BroadExcept(), """\
            try:
                risky()
            except:
                pass
            """)
        assert len(findings) == 1
        assert findings[0].rule_id == "RPR002"
        assert findings[0].fixable

    def test_except_exception_flagged(self):
        findings = check(BroadExcept(), """\
            try:
                risky()
            except Exception:
                log()
            """)
        assert len(findings) == 1 and not findings[0].fixable

    def test_tuple_containing_exception_flagged(self):
        findings = check(BroadExcept(), """\
            try:
                risky()
            except (ValueError, Exception) as exc:
                log(exc)
            """)
        assert len(findings) == 1

    def test_concrete_exception_clean(self):
        findings = check(BroadExcept(), """\
            try:
                risky()
            except ValueError:
                pass
            """)
        assert findings == []

    def test_reraising_handler_exempt(self):
        findings = check(BroadExcept(), """\
            try:
                risky()
            except Exception:
                cleanup()
                raise
            """)
        assert findings == []


class TestUnseededRng:
    def test_np_random_legacy_call_flagged(self):
        findings = check(UnseededRng(), """\
            import numpy as np
            x = np.random.rand(4)
            """)
        assert len(findings) == 1 and findings[0].rule_id == "RPR003"

    def test_unseeded_default_rng_flagged(self):
        findings = check(UnseededRng(), """\
            import numpy as np
            rng = np.random.default_rng()
            """)
        assert len(findings) == 1 and "seed" in findings[0].message

    def test_stdlib_random_module_flagged(self):
        findings = check(UnseededRng(), """\
            import random
            random.shuffle(items)
            """)
        assert len(findings) == 1

    def test_from_import_flagged(self):
        findings = check(UnseededRng(), """\
            from random import choice
            pick = choice(options)
            """)
        assert len(findings) == 1

    def test_seeded_apis_clean(self):
        findings = check(UnseededRng(), """\
            import random
            import numpy as np
            rng = np.random.default_rng(17)
            r = random.Random(17)
            x = rng.normal(size=4)
            y = r.random()
            """)
        assert findings == []

    def test_unimported_random_name_clean(self):
        # A local object that happens to be called "random" is not the module.
        findings = check(UnseededRng(), """\
            def roll(random):
                return random.choice([1, 2])
            """)
        assert findings == []


class TestMutableDefaultArg:
    def test_list_default_flagged_with_autofix(self):
        findings = check(MutableDefaultArg(), """\
            def acc(x, out=[]):
                out.append(x)
                return out
            """)
        assert len(findings) == 1
        assert findings[0].rule_id == "RPR005" and findings[0].fixable

    def test_kwonly_dict_default_flagged(self):
        findings = check(MutableDefaultArg(), """\
            def f(*, table={}):
                return table
            """)
        assert len(findings) == 1

    def test_constructor_call_default_flagged(self):
        findings = check(MutableDefaultArg(), """\
            def f(out=list()):
                return out
            """)
        assert len(findings) == 1

    def test_nonempty_literal_flagged_but_not_autofixed(self):
        findings = check(MutableDefaultArg(), """\
            def f(out=[1, 2]):
                return out
            """)
        assert len(findings) == 1 and not findings[0].fixable

    def test_immutable_defaults_clean(self):
        findings = check(MutableDefaultArg(), """\
            def f(a=None, b=0, c=(), d="x", e=frozenset()):
                return a, b, c, d, e
            """)
        assert findings == []


class TestFloat16OutsidePrecision:
    def test_np_float16_flagged(self):
        findings = check(Float16OutsidePrecision(), """\
            import numpy as np
            y = x.astype(np.float16)
            """, rel_path="src/repro/core/helper.py")
        assert len(findings) == 1 and findings[0].rule_id == "RPR006"

    def test_dtype_string_flagged(self):
        findings = check(Float16OutsidePrecision(), """\
            y = x.astype("float16")
            """, rel_path="src/repro/core/helper.py")
        assert len(findings) == 1

    def test_precision_layer_exempt(self):
        findings = check(Float16OutsidePrecision(), """\
            import numpy as np
            HALF = np.float16
            """, rel_path="src/repro/framework/precision.py")
        assert findings == []

    def test_float32_clean(self):
        findings = check(Float16OutsidePrecision(), """\
            import numpy as np
            y = x.astype(np.float32)
            """, rel_path="src/repro/core/helper.py")
        assert findings == []


class TestRawTimeCall:
    def test_module_attribute_call_flagged(self):
        findings = check(RawTimeCall(), """\
            import time

            def measure():
                t0 = time.perf_counter()
                return time.perf_counter() - t0
            """)
        assert len(findings) == 2
        assert all(f.rule_id == "RPR008" for f in findings)
        assert "telemetry session clock" in findings[0].message

    def test_aliased_import_and_from_import_flagged(self):
        findings = check(RawTimeCall(), """\
            import time as _t
            from time import perf_counter as pc

            def stamp():
                return _t.monotonic() + pc()
            """)
        assert len(findings) == 2

    def test_clock_module_exempt(self):
        findings = check(RawTimeCall(), """\
            import time

            def now():
                return time.perf_counter()
            """, rel_path="src/repro/telemetry/clock.py")
        assert findings == []

    def test_uninstrumented_paths_clean(self):
        source = """\
            import time

            def now():
                return time.time()
            """
        assert check(RawTimeCall(), source, rel_path="tools/bench.py") == []
        assert check(RawTimeCall(), source,
                     rel_path="tests/perf/test_x.py") == []

    def test_non_clock_time_functions_clean(self):
        findings = check(RawTimeCall(), """\
            import time

            def nap():
                time.sleep(0.1)
                return time.strftime("%H:%M")
            """)
        assert findings == []

    def test_unimported_time_name_clean(self):
        findings = check(RawTimeCall(), """\
            def use(time):
                return time.perf_counter()   # some other object named time
            """)
        assert findings == []
