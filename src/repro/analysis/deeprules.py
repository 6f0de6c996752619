"""Inter-procedural rule pack RPR101–RPR104.

Consumes the per-function :class:`~repro.analysis.summaries.FunctionSummary`
records plus the :class:`~repro.analysis.callgraph.SymbolTable` and runs the
whole-program phase:

1. resolve every recorded call ref to a project qname (or None);
2. fixpoint *reachability*: which functions transitively reach a collective
   or checkpoint call (with a witness chain for messages);
3. fixpoint *taint resolution*: rewrite symbolic ``call:k`` / ``param:i``
   labels into concrete ``fp16`` / ``rng`` facts, function by function;
4. fixpoint *sink parameters*: which parameters of which functions flow
   into an accumulation/loss (fp16) or RNG-draw (rng) sink, so a caller
   passing tainted data is flagged at the call site.

The rules then read those tables:

RPR101  rank-guarded call whose callee transitively reaches a collective
        (the direct case is RPR001's; this closes the call-chain hole).
RPR102  raw fp16 values flowing into accumulation/loss sites outside the
        sanctioned precision modules.
RPR103  unseeded RNG taint reaching a draw, through returns/defaults/args.
RPR104  broad exception handler swallowing errors on the path of a
        collective or checkpoint call.

All four stay deliberately quiet on anything unresolvable — see the
module docstrings of :mod:`repro.analysis.flow` and
:mod:`repro.analysis.callgraph` for the under-approximation stance.
"""
from __future__ import annotations

from .callgraph import SymbolTable, split_qname
from .findings import Finding
from .summaries import FunctionSummary

__all__ = [
    "DeepRule",
    "DEEP_RULES",
    "deep_rules",
    "deep_rules_signature",
    "run_deep_rules",
]

#: Module whose functions count as checkpoint entry points when a call
#: resolves into it.
_CHECKPOINT_MODULE = "repro.core.checkpoint"

#: Modules where raw-fp16 flow into accumulations is sanctioned (the
#: precision machinery itself) or meaningless (the analyzer's own tests).
_FP16_EXEMPT_PREFIXES = (
    "repro.framework.precision", "repro.framework.dtypes",
    "repro.analysis", "tests.framework", "tests.analysis",
)

_RNG_EXEMPT_PREFIXES = ("repro.analysis", "tests.analysis")

_MAX_ROUNDS = 50
_CHAIN_LIMIT = 5


class DeepRule:
    """Catalog entry for an inter-procedural rule (reporting metadata only;
    the logic lives in :func:`run_deep_rules`)."""

    id = "RPR1xx"
    name = ""
    severity = "error"
    version = 1
    autofix = False
    description = ""


class CollectiveBehindRankBranch(DeepRule):
    id = "RPR101"
    name = "collective-behind-rank-branch"
    severity = "error"
    description = ("A call made under a rank-conditional branch resolves to "
                   "a function that (transitively) performs a collective: "
                   "ranks on the other path never enter it and the job "
                   "deadlocks. RPR001 catches the direct case; this closes "
                   "the call-chain hole.")


class Fp16IntoAccumulation(DeepRule):
    id = "RPR102"
    name = "fp16-into-accumulation"
    severity = "warning"
    description = ("A raw float16 value flows (possibly through calls and "
                   "returns) into an accumulation or loss computation "
                   "outside framework.precision. Accumulate in fp32 "
                   "(dtypes.compute_dtype) or route through the loss "
                   "scaler.")


class UnseededRngFlow(DeepRule):
    id = "RPR103"
    name = "unseeded-rng-flow"
    severity = "warning"
    description = ("An unseeded RNG (default_rng()/Random()/RandomState() "
                   "with no seed), possibly obtained through a return value "
                   "or default argument, is drawn from: runs are not "
                   "reproducible. Thread a seeded generator instead.")


class SwallowedErrorOnCollectivePath(DeepRule):
    id = "RPR104"
    name = "swallowed-error-on-collective-path"
    severity = "error"
    description = ("A broad exception handler swallows errors around a call "
                   "that (transitively) performs a collective or checkpoint: "
                   "one rank eats the failure, its peers block in the "
                   "collective forever or the checkpoint silently rots. "
                   "Catch concrete exceptions or re-raise.")


DEEP_RULES = (CollectiveBehindRankBranch, Fp16IntoAccumulation,
              UnseededRngFlow, SwallowedErrorOnCollectivePath)


def deep_rules() -> list[DeepRule]:
    return [cls() for cls in DEEP_RULES]


def deep_rules_signature() -> str:
    """Stable signature of the deep rule pack (cache invalidation key)."""
    return ";".join(f"{r.id}:{r.name}:{r.version}" for r in deep_rules())


def _short(qname_str: str) -> str:
    module, dotted = split_qname(qname_str)
    leaf = module.rsplit(".", 1)[-1]
    return f"{leaf}.{dotted}"


class _Program:
    """Resolved tables shared by all four rules."""

    def __init__(self, summaries: dict, symtab: SymbolTable):
        self.summaries = summaries
        self.symtab = symtab
        # call target resolution: qname -> [callee qname | None per CallSite]
        self.targets: dict[str, list] = {}
        for q, summ in summaries.items():
            module, dotted = split_qname(q)
            cls = dotted.rsplit(".", 1)[0] if "." in dotted else None
            resolved = [symtab.resolve(site.ref, module, cls)
                        for site in summ.calls]
            self.targets[q] = [c if c in summaries else None
                               for c in resolved]
        self.reach_coll: dict[str, tuple] = {}
        self.reach_ckpt: dict[str, tuple] = {}
        self._reachability()
        self.resolved_labels: dict[str, dict] = {}
        self._resolve_taint()
        self.sink_params: dict[str, set] = {}
        self._sink_params()

    # -- checkpoint classification -------------------------------------------

    def _is_checkpoint_call(self, caller: str, k: int) -> bool:
        callee = self.targets[caller][k]
        if callee is None:
            return False
        module, _ = split_qname(callee)
        return module == _CHECKPOINT_MODULE

    # -- reachability --------------------------------------------------------

    def _reachability(self) -> None:
        """Fill ``reach_coll``/``reach_ckpt``: qname -> witness, where a
        witness is ("direct", name, line) or ("call", k, callee)."""
        for q, summ in self.summaries.items():
            if summ.collectives:
                name, line = summ.collectives[0][0], summ.collectives[0][1]
                self.reach_coll[q] = ("direct", name, line)
            for k in range(len(summ.calls)):
                if self._is_checkpoint_call(q, k):
                    self.reach_ckpt[q] = (
                        "direct", summ.calls[k].ref, summ.calls[k].line)
                    break
        for table in (self.reach_coll, self.reach_ckpt):
            for _ in range(_MAX_ROUNDS):
                changed = False
                for q, summ in self.summaries.items():
                    if q in table:
                        continue
                    for k, callee in enumerate(self.targets[q]):
                        if callee is not None and callee in table:
                            table[q] = ("call", k, callee)
                            changed = True
                            break
                if not changed:
                    break

    def chain(self, table: dict, start: str) -> str:
        """Human-readable witness chain from ``start`` to the terminal."""
        parts, q = [], start
        for _ in range(_CHAIN_LIMIT):
            witness = table.get(q)
            if witness is None:
                break
            if witness[0] == "direct":
                parts.append(f"{_short(q)} -> {witness[1]}()")
                return " -> ".join(parts)
            _, _k, callee = witness
            parts.append(_short(q))
            q = callee
        parts.append("...")
        return " -> ".join(parts)

    # -- taint label resolution ----------------------------------------------

    def _param_offset(self, qname_str: str) -> int:
        params = self.summaries[qname_str].params
        return 1 if params and params[0] in ("self", "cls") else 0

    def _arg_labels(self, caller: str, k: int, callee: str,
                    param_index: int) -> set:
        """Caller-side labels feeding ``callee``'s ``param:<param_index>``
        at call ``k`` (positional + keyword, best effort)."""
        site = self.summaries[caller].calls[k]
        callee_summ = self.summaries[callee]
        offset = self._param_offset(callee)
        pos = param_index - offset
        out: set = set()
        if 0 <= pos < len(site.arg_labels):
            out |= set(site.arg_labels[pos])
        if 0 <= param_index < len(callee_summ.params):
            pname = callee_summ.params[param_index]
            out |= set(site.kw_labels.get(pname, ()))
        return out

    def _resolve_in(self, caller: str, labels, ret: dict,
                    memo: dict, guard: set) -> set:
        """Concrete+param facts for ``labels`` seen inside ``caller``."""
        out: set = set()
        for label in labels:
            if label.startswith("call:"):
                key = (caller, label)
                if key in memo:
                    out |= memo[key]
                    continue
                if key in guard:      # cycle (e.g. x = f(x) in a loop)
                    continue
                guard.add(key)
                k = int(label.split(":", 1)[1])
                callee = self.targets[caller][k]
                facts: set = set()
                if callee is not None:
                    for m in ret.get(callee, set()):
                        if m.startswith("param:"):
                            j = int(m.split(":", 1)[1])
                            facts |= self._resolve_in(
                                caller, self._arg_labels(caller, k, callee, j),
                                ret, memo, guard)
                        else:
                            facts.add(m)
                guard.discard(key)
                memo[key] = facts
                out |= facts
            else:
                out.add(label)
        return out

    def _resolve_taint(self) -> None:
        """Fixpoint for return-label resolution, then materialize resolved
        labels for every call argument and sink."""
        ret: dict[str, set] = {q: set() for q in self.summaries}
        for _ in range(_MAX_ROUNDS):
            changed = False
            for q, summ in self.summaries.items():
                resolved = self._resolve_in(q, summ.return_labels, ret,
                                            {}, set())
                # Keep only concrete facts and this function's own params.
                resolved = {m for m in resolved
                            if not m.startswith("call:")}
                if resolved != ret[q]:
                    ret[q] = resolved
                    changed = True
            if not changed:
                break
        self.ret = ret
        for q, summ in self.summaries.items():
            memo: dict = {}
            per_fn = {"sinks": [], "calls": []}
            for sink in summ.sinks:
                per_fn["sinks"].append(
                    self._resolve_in(q, sink.labels, ret, memo, set()))
            for k, site in enumerate(summ.calls):
                per_fn["calls"].append(
                    [self._resolve_in(q, labels, ret, memo, set())
                     for labels in site.arg_labels])
            self.resolved_labels[q] = per_fn

    # -- sink parameters -----------------------------------------------------

    def _sink_params(self) -> None:
        """(kind, param index) pairs per function whose parameter feeds a
        sink of that kind, transitively."""
        kinds = {"acc": "fp16", "loss": "fp16", "draw": "rng"}
        table: dict[str, set] = {q: set() for q in self.summaries}
        for q, summ in self.summaries.items():
            for sink, resolved in zip(summ.sinks,
                                      self.resolved_labels[q]["sinks"]):
                concrete_kind = kinds[sink.kind]
                for m in resolved:
                    if m.startswith("param:"):
                        table[q].add((concrete_kind, int(m.split(":", 1)[1])))
        for _ in range(_MAX_ROUNDS):
            changed = False
            for q, summ in self.summaries.items():
                for k, callee in enumerate(self.targets[q]):
                    if callee is None or not table.get(callee):
                        continue
                    for kind, j in table[callee]:
                        labels = self._arg_labels(q, k, callee, j)
                        resolved = self._resolve_in(q, labels, self.ret,
                                                    {}, set())
                        for m in resolved:
                            if m.startswith("param:"):
                                pair = (kind, int(m.split(":", 1)[1]))
                                if pair not in table[q]:
                                    table[q].add(pair)
                                    changed = True
            if not changed:
                break
        self.sink_params = table


def _make_finding(rule: DeepRule, rel_path: str, lines: list,
                  line: int, col: int, end_line: int,
                  message: str) -> Finding:
    text = lines[line - 1].rstrip("\n") if 0 < line <= len(lines) else ""
    return Finding(rule_id=rule.id, severity=rule.severity, path=rel_path,
                   line=line, col=col, message=message, line_text=text,
                   end_line=end_line)


def run_deep_rules(summaries: dict, symtab: SymbolTable,
                   sources: dict) -> list[Finding]:
    """Run RPR101–RPR104 over the whole program.

    ``summaries``: qname -> :class:`FunctionSummary`;
    ``sources``: module name -> ``(rel_path, list_of_source_lines)``.
    """
    program = _Program(summaries, symtab)
    r101, r102, r103, r104 = (CollectiveBehindRankBranch(),
                              Fp16IntoAccumulation(), UnseededRngFlow(),
                              SwallowedErrorOnCollectivePath())
    findings: list[Finding] = []

    for q, summ in sorted(summaries.items()):
        if summ.module not in sources:
            continue
        rel_path, lines = sources[summ.module]
        targets = program.targets[q]
        resolved = program.resolved_labels[q]
        fp16_exempt = summ.module.startswith(_FP16_EXEMPT_PREFIXES)
        rng_exempt = summ.module.startswith(_RNG_EXEMPT_PREFIXES)

        # -- RPR101 / RPR104 on resolved calls -------------------------------
        for k, site in enumerate(summ.calls):
            callee = targets[k]
            if callee is not None:
                if site.rank_guard is not None and \
                        callee in program.reach_coll:
                    chain = program.chain(program.reach_coll, callee)
                    findings.append(_make_finding(
                        r101, rel_path, lines, site.line, site.col,
                        site.end_line,
                        f"'{site.ref}' is called under a rank-conditional "
                        f"branch (line {site.rank_guard}) and reaches a "
                        f"collective via {chain}; ranks on the other path "
                        f"deadlock"))
                if site.broad_handler is not None:
                    for table, what in ((program.reach_coll, "collective"),
                                        (program.reach_ckpt, "checkpoint")):
                        if callee in table:
                            chain = program.chain(table, callee)
                            findings.append(_make_finding(
                                r104, rel_path, lines, site.line, site.col,
                                site.end_line,
                                f"broad handler (line {site.broad_handler}) "
                                f"swallows errors around '{site.ref}', which "
                                f"reaches a {what} via {chain}; peers hang "
                                f"or state rots silently"))
                            break

            # fp16/rng flowing into a sink parameter of the callee.
            if callee is not None and program.sink_params.get(callee):
                for kind, j in sorted(program.sink_params[callee]):
                    if kind == "fp16" and fp16_exempt:
                        continue
                    if kind == "rng" and rng_exempt:
                        continue
                    offset = program._param_offset(callee)
                    pos = j - offset
                    if not (0 <= pos < len(resolved["calls"][k])):
                        continue
                    if kind in resolved["calls"][k][pos]:
                        rule = r102 if kind == "fp16" else r103
                        noun = ("a raw-float16 value"
                                if kind == "fp16" else "an unseeded RNG")
                        findings.append(_make_finding(
                            rule, rel_path, lines, site.line, site.col,
                            site.end_line,
                            f"{noun} is passed to '{site.ref}' "
                            f"(parameter '{program.summaries[callee].params[j]}'"
                            f") which feeds it into a "
                            f"{'precision-sensitive accumulation' if kind == 'fp16' else 'random draw'}"
                            f" inside {_short(callee)}"))
                        break

        # -- RPR104 on direct collectives under broad handlers ---------------
        for name, line, col, end_line, _rank, broad in summ.collectives:
            if broad is not None:
                findings.append(_make_finding(
                    r104, rel_path, lines, line, col, end_line,
                    f"broad handler (line {broad}) swallows errors around "
                    f"collective '{name}'; a rank that fails here leaves "
                    f"its peers blocked in the collective"))

        # -- RPR102 / RPR103 on local sinks ----------------------------------
        for sink, sink_labels in zip(summ.sinks, resolved["sinks"]):
            if sink.kind in ("acc", "loss"):
                if fp16_exempt or "fp16" not in sink_labels:
                    continue
                findings.append(_make_finding(
                    r102, rel_path, lines, sink.line, sink.col,
                    sink.end_line,
                    f"a raw-float16 value flows into "
                    f"{'loss computation' if sink.kind == 'loss' else 'accumulation'}"
                    f" '{sink.name}'; accumulate in fp32 "
                    f"(framework.dtypes.compute_dtype) or use the loss "
                    f"scaler"))
            elif sink.kind == "draw":
                if rng_exempt or "rng" not in sink_labels:
                    continue
                findings.append(_make_finding(
                    r103, rel_path, lines, sink.line, sink.col,
                    sink.end_line,
                    f"draw '{sink.name}' uses an unseeded RNG (created "
                    f"without a seed, possibly via a return value or "
                    f"default argument); runs are not reproducible"))

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings
