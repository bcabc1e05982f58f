"""AST-walking framework for the determinism linter.

The linter enforces, by machine, the conventions that keep every
experiment in this repository bit-for-bit reproducible (see
``docs/ARCHITECTURE.md`` § *Determinism contract*).  It is deliberately
self-contained — standard library only — so it runs in CI and in the
leanest dev environment alike.

The moving parts:

* :class:`ModuleContext` — one parsed module plus the path helpers
  checkers use to scope themselves ("skip tests", "only hot packages");
* :class:`Checker` — base class; a checker owns one rule id and yields
  :class:`~repro.analysis.lint.findings.Finding` objects from an AST;
* :func:`lint_source` / :func:`lint_paths` — run a checker suite over a
  source string (unit tests) or a file tree (CLI and CI);
* inline suppression — a ``# repro: noqa RULE-ID`` comment on the
  offending line silences that rule there; ``# repro: noqa`` with no id
  silences every rule on the line.  Suppressions are counted, never
  silently dropped.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .findings import Finding, Severity

#: Rule id reported for files the linter cannot parse at all.
PARSE_RULE = "PARSE"

_RULE_ID_RE = re.compile(r"[A-Z]+\d+")
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa\b:?(?P<rest>[^\n]*)")


def parse_noqa(lines: Sequence[str]) -> Dict[int, Optional[Set[str]]]:
    """Map 1-based line numbers to suppressed rule ids.

    ``None`` means "all rules"; a set means only those ids.  Ids are read
    left-to-right from the comment until the first token that is not a
    rule id, so trailing prose is allowed::

        x = risky()  # repro: noqa ORD001 - sorted three lines below
    """
    suppressions: Dict[int, Optional[Set[str]]] = {}
    for number, line in enumerate(lines, start=1):
        match = _NOQA_RE.search(line)
        if match is None:
            continue
        rules: Set[str] = set()
        for token in re.split(r"[,\s]+", match.group("rest").strip()):
            if not token:
                continue
            if _RULE_ID_RE.fullmatch(token):
                rules.add(token)
            else:
                break
        suppressions[number] = rules or None
    return suppressions


@dataclass
class ModuleContext:
    """One module as the checkers see it."""

    #: Path relative to the ``repro`` package root, POSIX-style
    #: (``"sim/rng.py"``), or a caller-chosen pseudo-path for snippets.
    module_path: str
    source: str
    tree: ast.AST
    #: Physical source lines (for suppression parsing and reporters).
    lines: List[str] = field(default_factory=list)
    #: Whether the module lives in a test tree (checkers commonly opt out).
    is_tests: bool = False
    #: Whether ``import repro...`` can reach the module: false for a file
    #: outside every ``repro`` package directory, whatever its path says.
    importable: bool = True
    #: Lazily-computed ``# repro: noqa`` map (see :func:`parse_noqa`).
    _noqa: Optional[Dict[int, Optional[Set[str]]]] = field(
        default=None, repr=False, compare=False
    )

    def suppressions(self) -> Dict[int, Optional[Set[str]]]:
        """The module's inline-suppression map, parsed once per context."""
        if self._noqa is None:
            self._noqa = parse_noqa(self.lines)
        return self._noqa

    # ------------------------------------------------------------------
    # Path predicates used by checkers to scope themselves
    # ------------------------------------------------------------------
    def in_package(self, *packages: str) -> bool:
        """True when the module lives under any of the given subpackages."""
        return any(
            self.module_path.startswith(package.rstrip("/") + "/")
            for package in packages
        )

    def is_module(self, *module_paths: str) -> bool:
        return self.module_path in module_paths

    @property
    def is_cli(self) -> bool:
        """The CLI boundary — the one place wall-clock reads are allowed."""
        name = self.module_path.rsplit("/", 1)[-1]
        return name in ("cli.py", "__main__.py")


class Checker:
    """Base class: one rule, one ``check`` generator.

    Subclasses set the class attributes and implement :meth:`check`.
    ``applies_to`` centralizes scoping so every checker handles test
    trees the same way.
    """

    rule_id: str = ""
    severity: Severity = Severity.WARNING
    description: str = ""
    #: Most invariants constrain simulation code, not its tests.
    skip_tests: bool = True

    def applies_to(self, ctx: ModuleContext) -> bool:
        return not (self.skip_tests and ctx.is_tests)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        ctx: ModuleContext,
        node: ast.AST,
        message: str,
        **extra: object,
    ) -> Finding:
        return Finding(
            rule=self.rule_id,
            severity=self.severity,
            path=ctx.module_path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", -1) + 1,
            message=message,
            extra=dict(extra) if extra else {},
        )


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: List[Finding]
    suppressed: int = 0
    files_checked: int = 0


def default_checkers() -> List[Checker]:
    """The shipped checker suite (imported lazily to avoid cycles)."""
    from .checkers import all_checkers

    return all_checkers()


def _select(
    checkers: Iterable[Checker],
    select: Optional[Set[str]],
    ignore: Optional[Set[str]],
) -> List[Checker]:
    chosen = list(checkers)
    if select:
        chosen = [c for c in chosen if c.rule_id in select]
    if ignore:
        chosen = [c for c in chosen if c.rule_id not in ignore]
    return chosen


def context_from_source(
    source: str,
    module_path: str = "<snippet>",
    *,
    is_tests: bool = False,
    importable: bool = True,
) -> Tuple[Optional[ModuleContext], Optional[Finding]]:
    """Parse one source string into a context, or a ``PARSE`` finding."""
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        finding = Finding(
            rule=PARSE_RULE,
            severity=Severity.ERROR,
            path=module_path,
            line=error.lineno or 0,
            col=error.offset or 0,
            message=f"could not parse module: {error.msg}",
        )
        return None, finding
    ctx = ModuleContext(
        module_path=module_path,
        source=source,
        tree=tree,
        lines=source.splitlines(),
        is_tests=is_tests,
        importable=importable,
    )
    return ctx, None


def apply_noqa(
    findings: Sequence[Finding],
    suppressions: Dict[int, Optional[Set[str]]],
) -> Tuple[List[Finding], int]:
    """Filter findings against one module's inline-suppression map."""
    kept: List[Finding] = []
    suppressed = 0
    for finding in findings:
        rules = suppressions.get(finding.line, _MISSING)
        if rules is _MISSING:
            kept.append(finding)
        elif rules is None or finding.rule in rules:  # type: ignore[operator]
            suppressed += 1
        else:
            kept.append(finding)
    return kept, suppressed


def lint_context(
    ctx: ModuleContext, checkers: Optional[Sequence[Checker]] = None
) -> LintResult:
    """Run the per-file checker suite over one pre-parsed module."""
    suite = list(checkers) if checkers is not None else default_checkers()
    raw: List[Finding] = []
    for checker in suite:
        if checker.applies_to(ctx):
            raw.extend(checker.check(ctx))
    kept, suppressed = apply_noqa(raw, ctx.suppressions())
    kept.sort(key=Finding.sort_key)
    return LintResult(findings=kept, suppressed=suppressed, files_checked=1)


def lint_source(
    source: str,
    module_path: str = "<snippet>",
    *,
    checkers: Optional[Sequence[Checker]] = None,
    is_tests: bool = False,
) -> LintResult:
    """Lint one source string (the unit-test entry point).

    ``module_path`` participates in checker scoping: pass e.g.
    ``"sim/rng.py"`` to exercise a checker's own-module exemption.
    """
    ctx, parse_finding = context_from_source(
        source, module_path, is_tests=is_tests
    )
    if ctx is None:
        assert parse_finding is not None
        return LintResult(findings=[parse_finding], files_checked=1)
    return lint_context(ctx, checkers)


_MISSING = object()


def module_path_for(path: Path) -> str:
    """Derive the package-relative path checkers scope on.

    The segment after the last ``repro`` directory is used, so absolute
    paths, ``src/repro/...`` and ``repro/...`` all normalize identically.
    Paths outside any ``repro`` tree (``tests/``, ``benchmarks/``,
    ``scripts/``) keep their invocation-relative POSIX path, so distinct
    files never collapse onto the same baseline identity.
    """
    parts = path.parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            tail = parts[index + 1:]
            if tail:
                return "/".join(tail)
    if path.is_absolute():
        try:
            path = path.relative_to(Path.cwd())
        except ValueError:
            return path.name
    return path.as_posix()


def _is_test_path(path: Path) -> bool:
    if path.name.startswith("test_") or path.name.endswith("_test.py"):
        return True
    return any(part in ("tests", "test") for part in path.parts)


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Expand files/directories into a deterministic list of ``.py`` files."""
    seen: Set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def load_context(
    file_path: Path,
) -> Tuple[Optional[ModuleContext], Optional[Finding]]:
    """Read and parse one file into a context, or a ``PARSE`` finding."""
    try:
        source = file_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        finding = Finding(
            rule=PARSE_RULE,
            severity=Severity.ERROR,
            path=str(file_path),
            line=0,
            col=0,
            message=f"could not read file: {error}",
        )
        return None, finding
    return context_from_source(
        source,
        module_path_for(file_path),
        is_tests=_is_test_path(file_path),
        importable="repro" in file_path.parts[:-1],
    )


def load_contexts(
    paths: Sequence[Path],
) -> Tuple[List[ModuleContext], List[Finding]]:
    """Parse every Python file under ``paths`` once, collecting errors."""
    contexts: List[ModuleContext] = []
    errors: List[Finding] = []
    for file_path in iter_python_files(paths):
        ctx, parse_finding = load_context(file_path)
        if ctx is not None:
            contexts.append(ctx)
        if parse_finding is not None:
            errors.append(parse_finding)
    return contexts, errors


def lint_paths(
    paths: Sequence[Path],
    *,
    checkers: Optional[Sequence[Checker]] = None,
    select: Optional[Set[str]] = None,
    ignore: Optional[Set[str]] = None,
) -> LintResult:
    """Lint every Python file under ``paths``; findings in path order."""
    suite = list(checkers) if checkers is not None else default_checkers()
    suite = _select(suite, select, ignore)
    contexts, errors = load_contexts(paths)
    findings: List[Finding] = list(errors)
    suppressed = 0
    for ctx in contexts:
        result = lint_context(ctx, suite)
        findings.extend(result.findings)
        suppressed += result.suppressed
    findings.sort(key=Finding.sort_key)
    return LintResult(
        findings=findings,
        suppressed=suppressed,
        files_checked=len(contexts) + len(errors),
    )


def dotted_name(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """Flatten ``a.b.c`` attribute chains into a name tuple, else ``None``."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return tuple(reversed(parts))
    return None
