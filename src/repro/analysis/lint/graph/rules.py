"""Interprocedural rules run over the project call graph.

These are the whole-program successors of the per-file checkers: each
rule sees every module at once, so a nondeterministic source hidden two
calls deep behind an engine entry point — which CLK001/RNG001 cannot see
from inside one file — is caught here.

* **DET001** — determinism taint: functions transitively reachable from
  engine entry points (``run_adoption_experiment``, batch/columnar shard
  replay, the shard task functions, every ``TripletBackend``
  implementation) must not reach wall-clock reads, the global ``random``
  module, environment reads, or unordered-iteration sinks.
* **RNG002** — a ``RandomStream``/``rng`` value captured into a shard
  payload that crosses the ``run_tasks`` process boundary (RNG state
  must be re-derived from ``seed:label`` inside the worker, never
  pickled).
* **SHM001** — module-level mutable containers: shared state that breaks
  the moment the policy engine serves from multiple workers.
* **ASY001** — blocking calls (``time.sleep``, SQLite, file I/O,
  subprocesses) reachable from any ``async def``: they stall the event
  loop the asyncio policy daemon will run on.
* **CCH001** — shard-payload cache-key stability: optional payload keys
  (those the task function reads with ``payload.get(...)``) may only be
  added *off* their defaults, so pre-existing cache entries keep their
  identity when a new knob ships.

Suppression works exactly like the per-file rules: ``# repro: noqa
RULE-ID`` on the *flagged line* (for DET001/ASY001 that is the sink call
site, so one annotation covers every entry point that reaches it).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..checkers.clock import WALL_CLOCK_CALLS
from ..findings import Finding, Severity
from ..framework import dotted_name
from .project import CallSite, Key, Project
from .symbols import FunctionSymbol, ModuleSymbols

# ----------------------------------------------------------------------
# Rule base
# ----------------------------------------------------------------------


class GraphRule:
    """One interprocedural rule: id, severity, ``check(project)``."""

    rule_id: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""

    def check(self, project: Project) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        path: str,
        line: int,
        col: int,
        message: str,
        **extra: object,
    ) -> Finding:
        return Finding(
            rule=self.rule_id,
            severity=self.severity,
            path=path,
            line=line,
            col=col,
            message=message,
            extra=dict(extra) if extra else {},
        )


def _analyzable(ms: ModuleSymbols) -> bool:
    """Graph rules skip test trees, like most per-file checkers."""
    return not ms.is_tests


def _is_cli_module(ms: ModuleSymbols) -> bool:
    name = ms.path.rsplit("/", 1)[-1]
    return name in ("cli.py", "__main__.py")


def _path_text(project: Project, path: List[Key]) -> str:
    return " -> ".join(qualname for _, qualname in path)


# ----------------------------------------------------------------------
# DET001 — determinism taint from engine entry points
# ----------------------------------------------------------------------

#: ``(module_path, function_name)`` engine entry points.
ENTRY_FUNCTIONS: Tuple[Tuple[str, str], ...] = (
    ("core/adoption.py", "run_adoption_experiment"),
    ("scan/batch.py", "batched_adoption_shard"),
    ("scan/columnar.py", "columnar_adoption_shard"),
)

#: Modules whose every public top-level function is an entry point (the
#: shard tasks workers execute).
ENTRY_MODULES: Tuple[str, ...] = ("runner/shards.py",)

#: Classes whose every subclass method is an entry point (storage
#: backends run inside workers and, soon, serving processes).
ENTRY_BASE_CLASSES: Tuple[str, ...] = ("TripletBackend",)

#: The one module allowed to touch :mod:`random` (it wraps it).
RNG_MODULE = "sim/rng.py"

#: Environment / ambient-entropy reads.
ENVIRONMENT_CALLS = frozenset(
    [("os", "getenv"), ("os", "urandom"), ("uuid", "uuid4"), ("uuid", "uuid1")]
)

#: Unordered-iteration sinks: filesystem listings come back in inode
#: order, which differs across hosts and runs.
UNORDERED_CALLS = frozenset(
    [("os", "listdir"), ("os", "scandir"), ("glob", "glob"), ("glob", "iglob")]
)
UNORDERED_METHODS = frozenset(["iterdir", "glob", "rglob"])


@dataclass(frozen=True)
class SinkHit:
    """One nondeterminism sink inside one function."""

    line: int
    col: int
    call: str
    kind: str


def _canonical_chain(
    project: Project, ms: ModuleSymbols, chain: Tuple[str, ...]
) -> Tuple[str, ...]:
    """Rewrite a chain's head through import aliases when possible."""
    from .project import ExternalRef, ModuleRef

    head = project.resolve_name(ms, chain[0])
    if isinstance(head, ExternalRef):
        return head.chain + chain[1:]
    if isinstance(head, ModuleRef):
        dotted = project.modules[head.path].dotted
        if dotted is not None:
            return tuple(dotted.split(".")) + chain[1:]
    return chain


def _classify_chain(chain: Tuple[str, ...]) -> Optional[str]:
    if len(chain) >= 2 and chain[-2:] in WALL_CLOCK_CALLS:
        return "wall-clock"
    if chain[0] == "random":
        return "global-rng"
    if len(chain) >= 2 and chain[:2] == ("os", "environ"):
        return "environment"
    if len(chain) >= 2 and chain[-2:] in ENVIRONMENT_CALLS:
        return "environment"
    if len(chain) >= 2 and chain[-2:] in UNORDERED_CALLS:
        return "unordered-iteration"
    return None


def determinism_sinks(
    project: Project, ms: ModuleSymbols, fn: FunctionSymbol
) -> List[SinkHit]:
    """Nondeterminism sinks syntactically present in one function."""
    hits: Dict[Tuple[int, str], SinkHit] = {}

    def add(line: int, col: int, call: str, kind: str) -> None:
        hits.setdefault((line, kind), SinkHit(line, col, call, kind))

    node = project.nodes.get(fn.key)
    if node is not None:
        for site in node.calls:
            if site.chain is not None:
                kind = _classify_chain(site.chain)
                if kind is not None:
                    add(site.line, site.col, ".".join(site.chain), kind)
            if site.attr in UNORDERED_METHODS and not site.targets:
                add(site.line, site.col, f".{site.attr}()", "unordered-iteration")
    # Attribute reads that are not calls: ``os.environ["K"]``,
    # ``random.seed`` passed as a value, an aliased ``rnd.random``.
    for expr in ast.walk(fn.node):
        if not isinstance(expr, ast.Attribute):
            continue
        chain = dotted_name(expr)
        if chain is None:
            continue
        chain = _canonical_chain(project, ms, chain)
        kind = _classify_chain(chain)
        if kind is not None:
            add(expr.lineno, expr.col_offset + 1, ".".join(chain), kind)
    return [hits[key] for key in sorted(hits)]


#: Why each sink kind breaks the determinism contract.
_SINK_ADVICE = {
    "wall-clock": "read time from the shared virtual Clock (repro.sim.clock)",
    "global-rng": "thread a RandomStream split from the experiment seed",
    "environment": "results must not depend on host environment state",
    "unordered-iteration": "sort the listing before iterating",
}


def iter_entry_points(project: Project) -> List[FunctionSymbol]:
    """The engine entry points DET001 taints from, deterministically ordered."""
    entries: Dict[Key, FunctionSymbol] = {}
    for module_path, name in ENTRY_FUNCTIONS:
        ms = project.modules.get(module_path)
        if ms is not None and name in ms.functions:
            fn = ms.functions[name]
            entries[fn.key] = fn
    for module_path in ENTRY_MODULES:
        ms = project.modules.get(module_path)
        if ms is None:
            continue
        for fn in ms.functions.values():
            if not fn.name.startswith("_"):
                entries[fn.key] = fn
    for cls in project.classes.values():
        names = {cls.name} | {a.name for a in project.ancestors(cls)}
        if not names & set(ENTRY_BASE_CLASSES):
            continue
        for method in cls.methods.values():
            entries[method.key] = method
    return [entries[key] for key in sorted(entries)]


class TaintedEntryPoint(GraphRule):
    rule_id = "DET001"
    severity = Severity.ERROR
    description = (
        "nondeterministic sink (wall-clock, global random, environment, "
        "unordered iteration) transitively reachable from an engine "
        "entry point"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        entries = iter_entry_points(project)
        if not entries:
            return
        skip: Set[Key] = set()
        for ms in project.modules.values():
            if ms.is_tests or _is_cli_module(ms):
                for fn_key in project.nodes:
                    if fn_key[0] == ms.path:
                        skip.add(fn_key)
        parents = project.reachable_from(
            (fn.key for fn in entries), skip=skip
        )
        reported: Set[Tuple[str, int, str]] = set()
        for key in parents:
            module_path, _ = key
            ms = project.modules[module_path]
            if ms.path == RNG_MODULE or _is_cli_module(ms) or ms.is_tests:
                continue
            fn = project.functions[key]
            for hit in determinism_sinks(project, ms, fn):
                identity = (module_path, hit.line, hit.kind)
                if identity in reported:
                    continue
                reported.add(identity)
                path = project.call_path(parents, key)
                entry = path[0]
                yield self.finding(
                    module_path,
                    hit.line,
                    hit.col,
                    f"{hit.kind} sink `{hit.call}` is reachable from "
                    f"engine entry point `{entry[1]}` ({entry[0]}) via "
                    f"{_path_text(project, path)}; "
                    f"{_SINK_ADVICE[hit.kind]}",
                    kind=hit.kind,
                    entry=f"{entry[0]}::{entry[1]}",
                )


# ----------------------------------------------------------------------
# Shared helper: calls that cross the run_tasks process boundary
# ----------------------------------------------------------------------

#: Resolved identities of the process-boundary dispatchers.
DISPATCH_KEYS = frozenset([("runner/pool.py", "run_tasks")])
#: Fallback spellings when the pool module is outside the analyzed set.
DISPATCH_NAMES = frozenset(["run_tasks"])


def _dispatch_sites(
    project: Project, fn: FunctionSymbol
) -> List[CallSite]:
    """Call sites in ``fn`` that hand payloads to the process pool."""
    node = project.nodes.get(fn.key)
    if node is None:
        return []
    sites = []
    for site in node.calls:
        if any(target in DISPATCH_KEYS for target in site.targets):
            sites.append(site)
        elif site.chain is not None and (
            site.chain[-1] in DISPATCH_NAMES
            or (len(site.chain) == 2 and site.chain[-1] == "map")
        ):
            if not site.targets:
                sites.append(site)
    return sites


def _payloads_argument(site: CallSite) -> Optional[ast.expr]:
    call = site.node
    is_method = site.chain is not None and site.chain[-1] == "map"
    index = 1
    if len(call.args) > index:
        return call.args[index]
    for keyword in call.keywords:
        if keyword.arg == "payloads":
            return keyword.value
    if is_method and len(call.args) > index:
        return call.args[index]
    return None


def _payload_expressions(
    fn: FunctionSymbol, expr: Optional[ast.expr]
) -> List[ast.expr]:
    """The expressions that build the payload list (following one Name hop)."""
    if expr is None:
        return []
    if not isinstance(expr, ast.Name):
        return [expr]
    name = expr.id
    found: List[ast.expr] = []
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Assign) and node.value is not None:
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    found.append(node.value)
    return found


# ----------------------------------------------------------------------
# RNG002 — RNG state captured into a shard payload
# ----------------------------------------------------------------------


def _is_rng_expression(expr: ast.expr) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.Call):
            chain = dotted_name(node.func)
            if chain is not None and chain[-1] == "RandomStream":
                return True
        if isinstance(node, ast.Name) and node.id == "rng":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "rng":
            return True
    return False


class RngAcrossProcessBoundary(GraphRule):
    rule_id = "RNG002"
    severity = Severity.ERROR
    description = (
        "RandomStream/rng value captured into a shard payload crossing "
        "the run_tasks process boundary; pass a seed and re-derive"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for ms in project.modules.values():
            if not _analyzable(ms):
                continue
            for key, node in project.nodes.items():
                if key[0] != ms.path:
                    continue
                fn = node.symbol
                for site in _dispatch_sites(project, fn):
                    for expr in _payload_expressions(
                        fn, _payloads_argument(site)
                    ):
                        yield from self._check_payload(ms, expr)

    def _check_payload(
        self, ms: ModuleSymbols, expr: ast.expr
    ) -> Iterator[Finding]:
        for node in ast.walk(expr):
            values: List[ast.expr] = []
            if isinstance(node, ast.Dict):
                values = [v for v in node.values if v is not None]
            elif isinstance(node, (ast.List, ast.Tuple)):
                values = [
                    v for v in node.elts if isinstance(v, (ast.Name, ast.Attribute))
                ]
            for value in values:
                if _is_rng_expression(value):
                    yield self.finding(
                        ms.path,
                        value.lineno,
                        value.col_offset + 1,
                        "RNG state captured into a shard payload: RandomStream "
                        "objects must not cross the run_tasks process "
                        "boundary — pass the integer seed (seed:label "
                        "scheme) and re-derive the stream in the worker",
                    )


# ----------------------------------------------------------------------
# SHM001 — module-level mutable shared state
# ----------------------------------------------------------------------


class SharedMutableModuleState(GraphRule):
    rule_id = "SHM001"
    severity = Severity.WARNING
    description = (
        "module-level mutable container: shared state that diverges "
        "across pool workers and breaks multi-worker serving"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for path in sorted(project.modules):
            ms = project.modules[path]
            if ms.dotted is None or not _analyzable(ms):
                continue
            for name in sorted(ms.globals):
                binding = ms.globals[name]
                if not binding.is_container:
                    continue
                if name.startswith("__"):
                    continue  # __all__ and friends: interpreter protocol
                if (
                    binding.constant_named or binding.is_final
                ) and not binding.mutated:
                    continue
                if binding.mutated:
                    message = (
                        f"module-level container `{name}` is mutated at "
                        "runtime; every pool worker and every serving "
                        "process gets its own divergent copy — move the "
                        "state into an object threaded through the call "
                        "path (or a TripletBackend)"
                    )
                else:
                    message = (
                        f"module-level mutable container `{name}` is "
                        "shared state once multiple workers serve the "
                        "policy engine; freeze it (tuple/frozenset), "
                        "rename it as a CONSTANT, or move it into an "
                        "object threaded through the call path"
                    )
                yield self.finding(
                    ms.path, binding.lineno, binding.col, message, name=name
                )


# ----------------------------------------------------------------------
# ASY001 — blocking calls reachable from async functions
# ----------------------------------------------------------------------

BLOCKING_CALLS = frozenset(
    [
        ("time", "sleep"),
        ("os", "system"),
        ("sqlite3", "connect"),
        ("subprocess", "run"),
        ("subprocess", "call"),
        ("subprocess", "check_call"),
        ("subprocess", "check_output"),
        ("subprocess", "Popen"),
        ("socket", "create_connection"),
    ]
)
BLOCKING_METHODS = frozenset(
    ["read_text", "write_text", "read_bytes", "write_bytes", "commit"]
)


def _blocking_sinks(project: Project, fn: FunctionSymbol) -> List[SinkHit]:
    node = project.nodes.get(fn.key)
    if node is None:
        return []
    hits: List[SinkHit] = []
    for site in node.calls:
        if site.chain is not None:
            if site.chain[-2:] in BLOCKING_CALLS:
                hits.append(
                    SinkHit(site.line, site.col, ".".join(site.chain), "blocking")
                )
                continue
            if site.chain == ("open",):
                hits.append(SinkHit(site.line, site.col, "open", "blocking"))
                continue
        if site.attr in BLOCKING_METHODS and not site.targets:
            hits.append(
                SinkHit(site.line, site.col, f".{site.attr}()", "blocking")
            )
    return hits


class BlockingCallInAsync(GraphRule):
    rule_id = "ASY001"
    severity = Severity.ERROR
    description = (
        "blocking call (sleep, SQLite, file I/O, subprocess) reachable "
        "from an async def; it stalls the event loop"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        async_fns = [
            fn
            for key, fn in sorted(project.functions.items())
            if fn.is_async and _analyzable(project.modules[fn.module_path])
        ]
        # Sync functions only: an async callee runs on the loop and is
        # audited as its own entry, so traversal stops at await points.
        async_keys = {fn.key for fn in async_fns}
        reported: Set[Tuple[str, int, str]] = set()
        for entry in async_fns:
            parents = project.reachable_from(
                [entry.key], skip=async_keys - {entry.key}
            )
            for key in parents:
                fn = project.functions[key]
                ms = project.modules[fn.module_path]
                if ms.is_tests:
                    continue
                for hit in _blocking_sinks(project, fn):
                    identity = (fn.module_path, hit.line, entry.qualname)
                    if identity in reported:
                        continue
                    reported.add(identity)
                    path = project.call_path(parents, key)
                    yield self.finding(
                        fn.module_path,
                        hit.line,
                        hit.col,
                        f"blocking call `{hit.call}` reachable from "
                        f"`async def {entry.qualname}` ({entry.module_path}) "
                        f"via {_path_text(project, path)}; await an async "
                        "equivalent or off-load to a worker thread",
                        entry=f"{entry.module_path}::{entry.qualname}",
                    )


# ----------------------------------------------------------------------
# CCH001 — shard-payload cache-key stability
# ----------------------------------------------------------------------


def optional_payload_keys(fn: FunctionSymbol) -> Set[str]:
    """Keys the task function reads with ``payload.get(...)``.

    Those are the *optional* payload keys: their absence must mean the
    default, so payload constructors may only add them off-default.
    """
    args = getattr(fn.node, "args", None)
    if args is None or not args.args:
        return set()
    first = args.args[0].arg
    if first in ("self", "cls") and len(args.args) > 1:
        first = args.args[1].arg
    keys: Set[str] = set()
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "get"
            and isinstance(func.value, ast.Name)
            and func.value.id == first
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            keys.add(node.args[0].value)
    return keys


def _iter_with_ancestors(
    node: ast.AST, stack: Tuple[ast.AST, ...] = ()
) -> Iterator[Tuple[ast.AST, Tuple[ast.AST, ...]]]:
    yield node, stack
    for child in ast.iter_child_nodes(node):
        yield from _iter_with_ancestors(child, stack + (node,))


class CacheKeyInstability(GraphRule):
    rule_id = "CCH001"
    severity = Severity.ERROR
    description = (
        "optional shard-payload key set unconditionally; add it only "
        "off its default so cached results keep their identity"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for key in sorted(project.nodes):
            caller = project.nodes[key].symbol
            ms = project.modules[caller.module_path]
            if not _analyzable(ms):
                continue
            for site in _dispatch_sites(project, caller):
                task_fn = self._task_function(project, ms, site)
                if task_fn is None:
                    continue
                optional = optional_payload_keys(task_fn)
                if not optional:
                    continue
                payload_exprs = _payload_expressions(
                    caller, _payloads_argument(site)
                )
                yield from self._check_constructor(
                    ms, caller, task_fn, optional, payload_exprs
                )

    def _task_function(
        self, project: Project, ms: ModuleSymbols, site: CallSite
    ) -> Optional[FunctionSymbol]:
        call = site.node
        if not call.args:
            return None
        chain = dotted_name(call.args[0])
        if chain is None:
            return None
        if len(chain) == 1:
            resolved = project.resolve_name(ms, chain[0])
        else:
            resolved, _ = project.resolve_chain(ms, chain)
        return resolved if isinstance(resolved, FunctionSymbol) else None

    def _check_constructor(
        self,
        ms: ModuleSymbols,
        caller: FunctionSymbol,
        task_fn: FunctionSymbol,
        optional: Set[str],
        payload_exprs: Sequence[ast.expr],
    ) -> Iterator[Finding]:
        # Optional keys written as plain dict-literal keys are by
        # construction unconditional.  The blessed conditional idiom is
        # a ``**({...} if knob != default else {})`` unpack, whose inner
        # dict sits under an IfExp and is exempt.
        for expr in payload_exprs:
            for node, stack in _iter_with_ancestors(expr):
                if not isinstance(node, ast.Dict):
                    continue
                conditional = any(
                    isinstance(ancestor, (ast.IfExp, ast.If))
                    for ancestor in stack
                )
                if conditional:
                    continue
                for key_node in node.keys:
                    if (
                        isinstance(key_node, ast.Constant)
                        and isinstance(key_node.value, str)
                        and key_node.value in optional
                    ):
                        yield self._unconditional(
                            ms, task_fn, key_node, key_node.value
                        )
        # ``payload["engine"] = engine`` outside any ``if`` is equally
        # unconditional.  Names assigned from the payload expressions
        # (and the dispatch argument name itself) are the candidates.
        names = self._payload_names(caller, payload_exprs)
        for node, stack in _iter_with_ancestors(caller.node):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in names
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(target.slice.value, str)
                    and target.slice.value in optional
                    and not any(
                        isinstance(ancestor, (ast.If, ast.IfExp))
                        for ancestor in stack
                    )
                ):
                    yield self._unconditional(
                        ms, task_fn, target, target.slice.value
                    )

    def _payload_names(
        self, caller: FunctionSymbol, payload_exprs: Sequence[ast.expr]
    ) -> Set[str]:
        names: Set[str] = set()
        expr_ids = {id(expr) for expr in payload_exprs}
        for node in ast.walk(caller.node):
            if isinstance(node, ast.Assign) and id(node.value) in expr_ids:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            if isinstance(node, (ast.For, ast.comprehension)):
                target = node.target
                if isinstance(target, ast.Name):
                    names.add(target.id)
        return names

    def _unconditional(
        self,
        ms: ModuleSymbols,
        task_fn: FunctionSymbol,
        node: ast.AST,
        key: str,
    ) -> Finding:
        return self.finding(
            ms.path,
            getattr(node, "lineno", 0),
            getattr(node, "col_offset", -1) + 1,
            f"optional payload key `{key}` (read via payload.get in "
            f"`{task_fn.qualname}`, {task_fn.module_path}) is set "
            "unconditionally; add it only off its default — "
            '`**({"' + key + '": v} if v != DEFAULT else {})` — so '
            "existing cache entries keep their identity",
            key=key,
            task=f"{task_fn.module_path}::{task_fn.qualname}",
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

GRAPH_RULE_CLASSES = [
    TaintedEntryPoint,  # DET001
    RngAcrossProcessBoundary,  # RNG002
    SharedMutableModuleState,  # SHM001
    BlockingCallInAsync,  # ASY001
    CacheKeyInstability,  # CCH001
]


def default_graph_rules() -> List[GraphRule]:
    """A fresh instance of every registered interprocedural rule."""
    return [cls() for cls in GRAPH_RULE_CLASSES]
