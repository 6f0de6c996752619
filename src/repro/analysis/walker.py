"""Project walker: files -> findings, with suppressions, cache, and fixes.

The :class:`Analyzer` turns paths into per-file finding lists:

* ``*.py`` files are discovered recursively (hidden directories and
  ``__pycache__`` are skipped);
* inline ``# repro-lint: disable=RPR001[,RPR002]`` comments suppress
  findings on their line, ``# repro-lint: disable-file=RPR003`` suppresses
  a rule for the whole file, and a disable that silences nothing becomes
  its own ``RPR007`` finding (with an autofix that deletes the comment);
* per-file results are cached keyed on the content hash and the rule-set
  signature, so unchanged files are never re-parsed — the cache file is
  what CI restores between runs;
* :func:`run_lint` composes the analyzer with the committed baseline and
  the ``--fix`` path, and emits telemetry counters per rule.

Comments are located with :mod:`tokenize`, not substring search, so a
disable pragma inside a string literal (e.g. in this package's own tests)
is never mistaken for a suppression.
"""
from __future__ import annotations

import ast
import hashlib
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

from .baseline import Baseline
from .findings import Edit, Finding, apply_edits
from .rules import (FileContext, Rule, StaleSuppression, default_rules,
                    rules_signature)

__all__ = ["Analyzer", "AnalysisReport", "Suppression", "run_lint"]

_CACHE_VERSION = 2      # v2: findings carry end_line; deep-pragma semantics

#: Deep (inter-procedural) rule IDs live in the RPR1xx range.  The shallow
#: walker cannot see their findings, so pragmas mentioning them are exempt
#: from stale-suppression detection (the deep pass is what they silence).
_DEEP_ID_RE = re.compile(r"RPR1\d{2}$")

_DISABLE_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<scope>disable|disable-file)\s*=\s*"
    r"(?P<ids>[A-Za-z0-9_,\s]+?)\s*$")


@dataclass
class Suppression:
    """One parsed ``# repro-lint: disable[-file]=...`` comment."""

    line: int               # 1-based line of the comment
    col: int                # 0-based column where the comment starts
    end_col: int
    scope: str              # "line" | "file"
    rule_ids: tuple[str, ...]
    used: set = field(default_factory=set)

    def matches(self, finding: Finding) -> bool:
        if finding.rule_id not in self.rule_ids and "all" not in self.rule_ids:
            return False
        if self.scope == "file":
            return True
        # A pragma anywhere on the offending expression counts, so a
        # multi-line call can carry its disable on any of its lines.
        last = max(finding.end_line, finding.line)
        return finding.line <= self.line <= last

    def removal_edit(self, source_line: str) -> Edit:
        """Delete the comment (and the spaces separating it from code)."""
        start = self.col
        while start > 0 and source_line[start - 1] in " \t":
            start -= 1
        return Edit(self.line, start, self.line, self.end_col, "")


def parse_suppressions(source: str) -> list[Suppression]:
    """Find disable pragmas via the token stream (never inside strings)."""
    out: list[Suppression] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = _DISABLE_RE.match(tok.string)
            if not m:
                continue
            ids = tuple(part.strip() for part in m.group("ids").split(",")
                        if part.strip())
            if not ids:
                continue
            scope = "file" if m.group("scope") == "disable-file" else "line"
            out.append(Suppression(
                line=tok.start[0], col=tok.start[1],
                end_col=tok.start[1] + len(tok.string),
                scope=scope, rule_ids=ids))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    return out


@dataclass
class AnalysisReport:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    files: int = 0
    cache_hits: int = 0
    fixed: int = 0
    parse_errors: list[str] = field(default_factory=list)
    pruned_entries: list[dict] = field(default_factory=list)
    deep_stats: dict | None = None      # set when run_lint(deep=True)

    @property
    def new_findings(self) -> list[Finding]:
        return [f for f in self.findings if f.new]

    @property
    def suppressed_count(self) -> int:
        return sum(1 for f in self.findings if f.suppressed)

    @property
    def baselined_count(self) -> int:
        return sum(1 for f in self.findings if f.baselined)

    @property
    def exit_code(self) -> int:
        return 1 if self.new_findings else 0

    def by_rule(self, new_only: bool = False) -> dict[str, int]:
        counts: dict[str, int] = {}
        for f in (self.new_findings if new_only else self.findings):
            counts[f.rule_id] = counts.get(f.rule_id, 0) + 1
        return dict(sorted(counts.items()))


class Analyzer:
    """Applies the rule pack file by file, with content-hash caching."""

    def __init__(self, rules: list[Rule] | None = None,
                 root: str | Path | None = None,
                 cache_path: str | Path | None = None):
        self.rules = list(rules) if rules is not None else default_rules()
        self.root = Path(root if root is not None else ".").resolve()
        self.cache_path = Path(cache_path) if cache_path else None
        self._signature = rules_signature(self.rules)
        self._cache = self._load_cache()
        self._stale_rule = next(
            (r for r in self.rules if isinstance(r, StaleSuppression)),
            StaleSuppression())

    # -- cache -------------------------------------------------------------

    def _load_cache(self) -> dict:
        empty = {"version": _CACHE_VERSION, "signature": self._signature,
                 "files": {}}
        if self.cache_path is None or not self.cache_path.exists():
            return empty
        try:
            doc = json.loads(self.cache_path.read_text())
        except (OSError, json.JSONDecodeError):
            return empty
        if (doc.get("version") != _CACHE_VERSION
                or doc.get("signature") != self._signature):
            return empty        # rule set changed: every entry is invalid
        doc.setdefault("files", {})
        return doc

    def save_cache(self) -> None:
        if self.cache_path is None:
            return
        self.cache_path.parent.mkdir(parents=True, exist_ok=True)
        self.cache_path.write_text(json.dumps(self._cache, indent=1))

    # -- analysis ----------------------------------------------------------

    def rel_path(self, path: Path) -> str:
        path = Path(path).resolve()
        try:
            return path.relative_to(self.root).as_posix()
        except ValueError:
            return path.as_posix()

    def analyze_source(self, source: str, rel_path: str) -> list[Finding]:
        """Run every rule over one source blob; suppressions applied."""
        ctx = FileContext(rel_path, source)
        findings: list[Finding] = []
        for rule in self.rules:
            findings.extend(rule.check(ctx))
        suppressions = parse_suppressions(source)
        for f in findings:
            for sup in suppressions:
                if sup.matches(f):
                    f.suppressed = True
                    sup.used.add(f.rule_id)
        # Stale-disable detection: a pragma none of whose IDs silenced
        # anything is itself a finding (with a comment-removal autofix).
        for sup in suppressions:
            if sup.used or "all" in sup.rule_ids:
                continue
            if self._stale_rule.id in sup.rule_ids:
                continue        # suppressing RPR007 itself: honor it
            if any(_DEEP_ID_RE.match(rid) for rid in sup.rule_ids):
                continue        # deep-rule pragma: only --deep can use it
            line_text = ctx.line_text(sup.line)
            stale = Finding(
                rule_id=self._stale_rule.id,
                severity=self._stale_rule.severity,
                path=rel_path, line=sup.line, col=sup.col,
                message=(f"suppression "
                         f"'{', '.join(sup.rule_ids)}' matches no finding "
                         f"on this {'file' if sup.scope == 'file' else 'line'};"
                         f" remove the stale comment"),
                line_text=line_text,
                edits=(sup.removal_edit(ctx.lines[sup.line - 1]),))
            findings.append(stale)
        findings.sort(key=lambda f: (f.line, f.col, f.rule_id))
        return findings

    def analyze_file(self, path: Path) -> tuple[list[Finding], bool]:
        """Findings for one file; returns ``(findings, from_cache)``."""
        rel = self.rel_path(path)
        source = Path(path).read_text()
        digest = hashlib.sha256(source.encode()).hexdigest()
        entry = self._cache["files"].get(rel)
        if entry is not None and entry.get("sha256") == digest:
            return [Finding.from_dict(d) for d in entry["findings"]], True
        findings = self.analyze_source(source, rel)
        self._cache["files"][rel] = {
            "sha256": digest,
            "findings": [f.as_dict() for f in findings],
        }
        return findings, False

    def discover(self, paths: list[str | Path]) -> list[Path]:
        files: list[Path] = []
        for p in paths:
            p = Path(p)
            if p.is_dir():
                files.extend(
                    f for f in sorted(p.rglob("*.py"))
                    if not any(part.startswith(".") or part == "__pycache__"
                               for part in f.parts))
            elif p.suffix == ".py":
                files.append(p)
        seen: set[Path] = set()
        unique = []
        for f in files:
            r = f.resolve()
            if r not in seen:
                seen.add(r)
                unique.append(f)
        return unique

    def run(self, paths: list[str | Path]) -> AnalysisReport:
        report = AnalysisReport()
        for path in self.discover(paths):
            try:
                findings, cached = self.analyze_file(path)
            except SyntaxError as exc:
                report.parse_errors.append(f"{self.rel_path(path)}: {exc}")
                continue
            report.files += 1
            report.cache_hits += int(cached)
            report.findings.extend(findings)
        self.save_cache()
        return report


def _apply_fixes(analyzer: Analyzer, report: AnalysisReport,
                 paths: list[str | Path]) -> AnalysisReport:
    """Apply every autofix, rewrite the files, then re-analyze."""
    by_path: dict[str, list[Edit]] = {}
    fixable = 0
    for f in report.findings:
        if f.edits and not f.suppressed:
            by_path.setdefault(f.path, []).extend(f.edits)
            fixable += 1
    if not by_path:
        return report
    for rel, edits in by_path.items():
        abs_path = analyzer.root / rel
        source = abs_path.read_text()
        fixed_source, _ = apply_edits(source, edits)
        if fixed_source != source:
            abs_path.write_text(fixed_source)
    fresh = analyzer.run(paths)
    fresh.fixed = fixable
    return fresh


def _emit_telemetry(report: AnalysisReport) -> None:
    try:
        from ..telemetry import get_active
    except ImportError:         # numpy-less environment: analyzer still works
        return
    metrics = get_active().metrics
    metrics.counter("analysis.files_scanned").inc(report.files)
    metrics.counter("analysis.cache_hits").inc(report.cache_hits)
    if report.fixed:
        metrics.counter("analysis.fixed").inc(report.fixed)
    for rule_id, count in report.by_rule().items():
        metrics.counter("analysis.findings", rule=rule_id).inc(count)
    for rule_id, count in report.by_rule(new_only=True).items():
        metrics.counter("analysis.new_findings", rule=rule_id).inc(count)


def _run_deep(analyzer: Analyzer, report: AnalysisReport,
              paths: list[str | Path],
              deep_cache: str | Path | None) -> None:
    """Run the whole-program pass and fold its findings into ``report``.

    Deep findings honor the same inline pragmas as shallow ones (a
    ``# repro-lint: disable=RPR101`` anywhere on the offending call), and
    flow through baseline matching with the rest of the report.
    """
    from .project import ProjectAnalyzer      # deferred: heavier import

    project = ProjectAnalyzer(root=analyzer.root, cache_path=deep_cache)
    deep = project.run(analyzer.discover(paths))
    by_path: dict[str, list[Finding]] = {}
    for f in deep.findings:
        by_path.setdefault(f.path, []).append(f)
    for rel, findings in by_path.items():
        try:
            source = (analyzer.root / rel).read_text()
        except OSError:
            continue
        for sup in parse_suppressions(source):
            for f in findings:
                if sup.matches(f):
                    f.suppressed = True
                    sup.used.add(f.rule_id)
    report.findings.extend(deep.findings)
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    report.parse_errors.extend(
        e for e in deep.parse_errors if e not in report.parse_errors)
    report.deep_stats = deep.stats()


def run_lint(paths: list[str | Path],
             root: str | Path | None = None,
             baseline_path: str | Path | None = None,
             update_baseline: bool = False,
             prune_baseline: bool = False,
             fix: bool = False,
             cache_path: str | Path | None = None,
             rules: list[Rule] | None = None,
             deep: bool = False,
             deep_cache: str | Path | None = None) -> AnalysisReport:
    """One full lint run: analyze, (fix,) baseline-match, telemetry.

    Returns an :class:`AnalysisReport` whose ``exit_code`` is 0 iff every
    finding is suppressed or baselined (always 0 after
    ``update_baseline``, which rewrites the baseline to match).
    ``prune_baseline`` is the shrink-only counterpart: entries that no
    longer match any current finding are dropped (and reported in
    ``pruned_entries``) so the accepted-debt file tracks fixes without
    ever accepting new findings.  ``deep=True`` additionally runs the
    whole-program pass (RPR101–RPR104, see :mod:`repro.analysis.project`)
    with its own summary cache at ``deep_cache``.
    """
    analyzer = Analyzer(rules=rules, root=root, cache_path=cache_path)
    report = analyzer.run(paths)
    if fix:
        report = _apply_fixes(analyzer, report, paths)
    if deep:
        _run_deep(analyzer, report, paths, deep_cache)
    if baseline_path is not None:
        baseline_path = Path(baseline_path)
        if update_baseline:
            Baseline.from_findings(
                [f for f in report.findings if not f.suppressed]
            ).save(baseline_path)
        baseline = Baseline.load(baseline_path)
        if prune_baseline and not update_baseline:
            baseline, removed = baseline.prune(report.findings)
            report.pruned_entries = removed
            if removed:
                baseline.save(baseline_path)
        baseline.apply(report.findings)
    _emit_telemetry(report)
    return report
