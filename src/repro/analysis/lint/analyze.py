"""Two-phase whole-program analysis: per-file checkers + graph rules.

:func:`analyze_paths` is the one entry point the CLI, CI and the
self-check test all use.  It parses every module exactly once, runs the
per-file checker suite (phase one), builds the project-wide
:class:`~repro.analysis.lint.graph.Project` — symbol table, import
resolution, call graph — and runs the interprocedural rules on it
(phase two).  Graph findings honor the same ``# repro: noqa RULE-ID``
inline suppressions as per-file findings: a graph finding is reported at
its sink line, so the annotation lives next to the code it excuses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

from .findings import Finding
from .framework import (
    Checker,
    LintResult,
    ModuleContext,
    _select,
    default_checkers,
    lint_context,
    load_contexts,
)
from .graph import GraphRule, Project, default_graph_rules


@dataclass
class AnalysisResult:
    """Everything one whole-program analysis run produced."""

    findings: List[Finding]
    suppressed: int = 0
    files_checked: int = 0
    #: The project graph, for ``--graph-json`` / ``--api-report`` dumps.
    project: Optional[Project] = field(default=None, repr=False)


def run_graph_rules(
    project: Project,
    rules: Optional[Sequence[GraphRule]] = None,
) -> LintResult:
    """Run interprocedural rules over a built project.

    Inline suppressions are applied per module: each finding is filtered
    against the ``# repro: noqa`` map of the module it is reported in.
    """
    suite = list(rules) if rules is not None else default_graph_rules()
    raw: List[Finding] = []
    for rule in suite:
        raw.extend(rule.check(project))
    kept: List[Finding] = []
    suppressed = 0
    by_path: Dict[str, ModuleContext] = {
        path: ms.context for path, ms in project.modules.items()
    }
    for finding in raw:
        ctx = by_path.get(finding.path)
        rules_at_line = (
            ctx.suppressions().get(finding.line, _MISSING)
            if ctx is not None
            else _MISSING
        )
        if rules_at_line is _MISSING:
            kept.append(finding)
        elif rules_at_line is None or finding.rule in rules_at_line:  # type: ignore[operator]
            suppressed += 1
        else:
            kept.append(finding)
    kept.sort(key=Finding.sort_key)
    return LintResult(
        findings=kept, suppressed=suppressed, files_checked=len(by_path)
    )


_MISSING = object()


def analyze_contexts(
    contexts: Sequence[ModuleContext],
    *,
    checkers: Optional[Sequence[Checker]] = None,
    graph_rules: Optional[Sequence[GraphRule]] = None,
    select: Optional[Set[str]] = None,
    ignore: Optional[Set[str]] = None,
    build_graph: bool = True,
) -> AnalysisResult:
    """Run both phases over pre-parsed modules (the test entry point)."""
    suite = list(checkers) if checkers is not None else default_checkers()
    suite = _select(suite, select, ignore)
    findings: List[Finding] = []
    suppressed = 0
    for ctx in contexts:
        result = lint_context(ctx, suite)
        findings.extend(result.findings)
        suppressed += result.suppressed

    project: Optional[Project] = None
    if build_graph:
        project = Project(contexts)
        rule_suite = (
            list(graph_rules)
            if graph_rules is not None
            else default_graph_rules()
        )
        rule_suite = _select(rule_suite, select, ignore)
        graph_result = run_graph_rules(project, rule_suite)
        findings.extend(graph_result.findings)
        suppressed += graph_result.suppressed

    findings.sort(key=Finding.sort_key)
    return AnalysisResult(
        findings=findings,
        suppressed=suppressed,
        files_checked=len(contexts),
        project=project,
    )


def analyze_paths(
    paths: Sequence[Path],
    *,
    checkers: Optional[Sequence[Checker]] = None,
    graph_rules: Optional[Sequence[GraphRule]] = None,
    select: Optional[Set[str]] = None,
    ignore: Optional[Set[str]] = None,
    build_graph: bool = True,
) -> AnalysisResult:
    """Analyze every Python file under ``paths``, both phases, parse once."""
    contexts, errors = load_contexts(paths)
    result = analyze_contexts(
        contexts,
        checkers=checkers,
        graph_rules=graph_rules,
        select=select,
        ignore=ignore,
        build_graph=build_graph,
    )
    result.findings.extend(errors)
    result.findings.sort(key=Finding.sort_key)
    result.files_checked += len(errors)
    return result
