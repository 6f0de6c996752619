"""Static analysis for distributed correctness (``repro lint``).

A stdlib-``ast`` analyzer purpose-built for this codebase's hazard
classes: collectives inside rank-conditional branches (deadlock),
broad ``except`` clauses that swallow :class:`repro.errors.ReproError`,
unseeded module-global RNG (rank divergence), mutable default arguments,
and raw ``float16`` outside the loss-scaled precision layer.

The moving parts:

* :class:`~.rules.Rule` — pluggable rule base class; the pack lives in
  :mod:`repro.analysis.rules` (``RPR001``–``RPR008``).
* :class:`~.walker.Analyzer` — project walker with per-file caching keyed
  on content hash + rule-set signature, inline
  ``# repro-lint: disable=RPRxxx`` suppressions (plus ``disable-file=``),
  and stale-suppression detection.
* :class:`~.baseline.Baseline` — the committed
  ``.repro-lint-baseline.json``: legacy findings don't gate CI, new ones
  do.
* :func:`~.walker.run_lint` — one-call programmatic entry point, the same
  path the ``repro lint`` CLI takes.
* The **deep** (whole-program) pass behind ``repro lint --deep``:
  :mod:`~repro.analysis.callgraph` (symbol table + import/call resolution),
  :mod:`~repro.analysis.flow` (per-function CFGs + taint/reaching-defs
  dataflow), :mod:`~repro.analysis.summaries` (cacheable per-function
  summaries), :mod:`~repro.analysis.deeprules` (inter-procedural rules
  RPR101–RPR104), and :class:`~.project.ProjectAnalyzer` (the
  dependency-hash project cache that re-analyzes only changed files).

Typical programmatic use::

    from repro.analysis import run_lint
    report = run_lint(["src/repro"], baseline_path=".repro-lint-baseline.json")
    for f in report.new_findings:
        print(f.location(), f.rule_id, f.message)
"""
from .baseline import DEFAULT_BASELINE_NAME, Baseline
from .callgraph import SymbolTable, module_name, parse_module
from .deeprules import DEEP_RULES, deep_rules, deep_rules_signature
from .findings import Edit, Finding, apply_edits
from .flow import CFG, ReachingDefinitions, build_cfg, solve_forward
from .project import DeepReport, ProjectAnalyzer
from .render import json_document, render_json, render_text
from .rules import (DEFAULT_RULES, FileContext, Rule, default_rules,
                    rule_catalog, rules_signature)
from .summaries import FunctionSummary, summarize_function
from .walker import Analyzer, AnalysisReport, Suppression, run_lint

__all__ = [
    "Analyzer",
    "AnalysisReport",
    "Baseline",
    "CFG",
    "DEEP_RULES",
    "DEFAULT_BASELINE_NAME",
    "DEFAULT_RULES",
    "DeepReport",
    "Edit",
    "FileContext",
    "Finding",
    "FunctionSummary",
    "ProjectAnalyzer",
    "ReachingDefinitions",
    "Rule",
    "Suppression",
    "SymbolTable",
    "apply_edits",
    "build_cfg",
    "deep_rules",
    "deep_rules_signature",
    "default_rules",
    "json_document",
    "module_name",
    "parse_module",
    "render_json",
    "render_text",
    "rule_catalog",
    "rules_signature",
    "run_lint",
    "solve_forward",
    "summarize_function",
]
