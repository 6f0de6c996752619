"""Walker behavior: suppressions, stale-disable detection, cache, telemetry."""
import json
import textwrap

from repro.analysis import Analyzer, run_lint
from repro.analysis.walker import parse_suppressions
from repro.telemetry import Telemetry, activate

BROAD = textwrap.dedent("""\
    try:
        risky()
    except Exception:
        pass
    """)


def write(tmp_path, name, source):
    p = tmp_path / name
    p.write_text(textwrap.dedent(source))
    return p


class TestSuppressions:
    def test_line_disable_suppresses(self, tmp_path):
        write(tmp_path, "a.py", """\
            try:
                risky()
            except Exception:  # repro-lint: disable=RPR002
                pass
            """)
        report = run_lint([tmp_path], root=tmp_path)
        assert report.exit_code == 0
        assert report.suppressed_count == 1

    def test_disable_for_other_rule_does_not_suppress(self, tmp_path):
        write(tmp_path, "a.py", """\
            try:
                risky()
            except Exception:  # repro-lint: disable=RPR001
                pass
            """)
        report = run_lint([tmp_path], root=tmp_path)
        # The RPR002 finding survives AND the RPR001 pragma is stale.
        rules = {f.rule_id for f in report.new_findings}
        assert rules == {"RPR002", "RPR007"}

    def test_file_level_disable(self, tmp_path):
        write(tmp_path, "a.py", """\
            # repro-lint: disable-file=RPR002
            try:
                risky()
            except Exception:
                pass

            try:
                risky()
            except:
                pass
            """)
        report = run_lint([tmp_path], root=tmp_path)
        assert report.exit_code == 0 and report.suppressed_count == 2

    def test_multiple_ids_one_comment(self, tmp_path):
        write(tmp_path, "a.py", """\
            def f(out=[]):  # repro-lint: disable=RPR005,RPR003
                out.append(1)
                return out
            """)
        report = run_lint([tmp_path], root=tmp_path)
        # RPR005 suppressed; the unused RPR003 half does NOT make the
        # pragma stale (one of its IDs fired).
        assert report.suppressed_count == 1
        assert [f.rule_id for f in report.new_findings] == []

    def test_pragma_inside_string_is_not_a_suppression(self, tmp_path):
        write(tmp_path, "a.py", '''\
            FIXTURE = """
            x = 1  # repro-lint: disable=RPR002
            """
            try:
                risky()
            except Exception:
                pass
            ''')
        report = run_lint([tmp_path], root=tmp_path)
        assert [f.rule_id for f in report.new_findings] == ["RPR002"]

    def test_stale_disable_detected_with_removal_fix(self, tmp_path):
        write(tmp_path, "a.py", """\
            x = 1  # repro-lint: disable=RPR006
            """)
        report = run_lint([tmp_path], root=tmp_path)
        assert len(report.new_findings) == 1
        stale = report.new_findings[0]
        assert stale.rule_id == "RPR007" and stale.fixable
        assert "matches no finding" in stale.message

    def test_pragma_on_multiline_call_continuation_suppresses(self, tmp_path):
        """A finding spans its whole node (``end_line``); a pragma on any
        line of a multi-line call — not just the opening line — matches."""
        write(tmp_path, "a.py", """\
            out = np.random.normal(
                0.0,
                1.0,  # repro-lint: disable=RPR003
            )
            """)
        report = run_lint([tmp_path], root=tmp_path)
        assert report.exit_code == 0
        assert report.suppressed_count == 1

    def test_pragma_past_the_call_span_does_not_suppress(self, tmp_path):
        write(tmp_path, "a.py", """\
            out = np.random.normal(
                0.0,
                1.0,
            )
            x = 1  # repro-lint: disable=RPR003
            """)
        report = run_lint([tmp_path], root=tmp_path)
        rules = sorted(f.rule_id for f in report.new_findings)
        # The finding survives and the out-of-range pragma is stale.
        assert rules == ["RPR003", "RPR007"]

    def test_parse_suppressions_coordinates(self):
        sups = parse_suppressions(
            "x = 1  # repro-lint: disable=RPR001, RPR002\n")
        assert len(sups) == 1
        assert sups[0].rule_ids == ("RPR001", "RPR002")
        assert sups[0].scope == "line" and sups[0].line == 1


class TestCache:
    def test_second_run_hits_cache(self, tmp_path):
        proj = tmp_path / "proj"
        proj.mkdir()
        write(proj, "a.py", BROAD)
        cache = tmp_path / "cache.json"
        r1 = run_lint([proj], root=proj, cache_path=cache)
        assert r1.cache_hits == 0 and cache.exists()
        r2 = run_lint([proj], root=proj, cache_path=cache)
        assert r2.cache_hits == 1
        assert [f.as_dict() for f in r2.findings] == [
            f.as_dict() for f in r1.findings]

    def test_edited_file_invalidates_its_entry(self, tmp_path):
        proj = tmp_path / "proj"
        proj.mkdir()
        write(proj, "a.py", BROAD)
        write(proj, "b.py", "x = 1\n")
        cache = tmp_path / "cache.json"
        run_lint([proj], root=proj, cache_path=cache)
        write(proj, "a.py", "x = 2\n")      # fixed: finding disappears
        r2 = run_lint([proj], root=proj, cache_path=cache)
        assert r2.cache_hits == 1           # only b.py reused
        assert r2.findings == []

    def test_rule_set_change_invalidates_whole_cache(self, tmp_path):
        proj = tmp_path / "proj"
        proj.mkdir()
        write(proj, "a.py", BROAD)
        cache = tmp_path / "cache.json"
        run_lint([proj], root=proj, cache_path=cache)
        doc = json.loads(cache.read_text())
        doc["signature"] = "different"
        cache.write_text(json.dumps(doc))
        analyzer = Analyzer(root=proj, cache_path=cache)
        report = analyzer.run([proj])
        assert report.cache_hits == 0

    def test_rule_version_bump_invalidates_whole_cache(self, tmp_path):
        """Bumping one rule's ``version`` changes the rule-set signature,
        so every cached per-file result is discarded — cached findings
        computed under the old rule semantics must never be replayed."""
        from repro.analysis.rules import BroadExcept, default_rules

        proj = tmp_path / "proj"
        proj.mkdir()
        write(proj, "a.py", BROAD)
        write(proj, "b.py", "x = 1\n")
        cache = tmp_path / "cache.json"

        class BumpedSwallow(BroadExcept):
            version = BroadExcept.version + 1

        rules = default_rules()
        analyzer = Analyzer(rules=rules, root=proj, cache_path=cache)
        analyzer.run([proj])
        bumped = [BumpedSwallow() if isinstance(r, BroadExcept)
                  else r for r in rules]
        analyzer2 = Analyzer(rules=bumped, root=proj, cache_path=cache)
        report = analyzer2.run([proj])
        assert report.cache_hits == 0
        # Same rule set again: everything is reused.
        analyzer3 = Analyzer(rules=bumped, root=proj, cache_path=cache)
        assert analyzer3.run([proj]).cache_hits == 2

    def test_pycache_and_hidden_dirs_skipped(self, tmp_path):
        proj = tmp_path / "proj"
        (proj / "__pycache__").mkdir(parents=True)
        (proj / ".hidden").mkdir()
        write(proj / "__pycache__", "junk.py", BROAD)
        write(proj / ".hidden", "junk.py", BROAD)
        write(proj, "ok.py", "x = 1\n")
        report = run_lint([proj], root=proj)
        assert report.files == 1 and report.findings == []


class TestParseErrors:
    def test_syntax_error_reported_not_fatal(self, tmp_path):
        write(tmp_path, "bad.py", "def broken(:\n")
        write(tmp_path, "good.py", BROAD)
        report = run_lint([tmp_path], root=tmp_path)
        assert len(report.parse_errors) == 1
        assert "bad.py" in report.parse_errors[0]
        assert [f.rule_id for f in report.new_findings] == ["RPR002"]


class TestTelemetry:
    def test_per_rule_counters_emitted(self, tmp_path):
        write(tmp_path, "a.py", BROAD)
        write(tmp_path, "b.py", "def f(out=[]):\n    return out\n")
        tel = Telemetry()
        with activate(tel):
            run_lint([tmp_path], root=tmp_path)
        m = tel.metrics
        assert m.counter("analysis.files_scanned").value == 2
        assert m.counter("analysis.findings", rule="RPR002").value == 1
        assert m.counter("analysis.findings", rule="RPR005").value == 1
        assert m.counter("analysis.new_findings", rule="RPR005").value == 1
