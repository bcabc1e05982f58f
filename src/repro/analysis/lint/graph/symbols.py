"""Per-module symbol collection for the whole-program analyzer.

One :class:`ModuleSymbols` per parsed module records everything the
cross-module layer (:mod:`~repro.analysis.lint.graph.project`) needs to
resolve names across the project: top-level functions, classes with
their methods and base-class chains, module-level global bindings (with
mutability and in-module mutation tracking for SHM001), and every import
binding — including the lazy in-function imports this codebase uses to
break ``repro.core`` ↔ ``repro.runner`` cycles, which is exactly where a
naive top-level-only import scan would lose the call graph.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..framework import ModuleContext, dotted_name

#: Top-level directories holding project code *outside* the importable
#: ``repro`` package.  Their modules join the analysis (so rules can see
#: e.g. a benchmark building shard payloads) but carry no dotted module
#: name and cannot be the target of ``import repro...`` resolution.
OUT_OF_PACKAGE_PREFIXES = ("tests", "benchmarks", "scripts", "examples")

#: The importable package root all in-package module paths hang off.
ROOT_PACKAGE = "repro"

#: Constructor calls that produce a mutable container.
MUTABLE_CONTAINER_CALLS = frozenset(
    [
        "list",
        "dict",
        "set",
        "bytearray",
        "defaultdict",
        "OrderedDict",
        "Counter",
        "deque",
    ]
)

#: Method calls that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    [
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "extendleft",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "update",
    ]
)


def dotted_module_name(module_path: str) -> Optional[str]:
    """``"core/adoption.py"`` → ``"repro.core.adoption"``.

    Returns ``None`` for snippets and for files outside the package tree
    (``tests/...``, ``benchmarks/...``, ``scripts/...``), which are
    analyzed but not importable as ``repro.*``.
    """
    if not module_path.endswith(".py"):
        return None
    first = module_path.split("/", 1)[0]
    if first in OUT_OF_PACKAGE_PREFIXES or first.startswith("<"):
        return None
    parts = module_path[:-3].split("/")
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join([ROOT_PACKAGE, *parts]) if parts else ROOT_PACKAGE


@dataclass
class ImportBinding:
    """One local name bound by an ``import`` / ``from ... import``."""

    alias: str
    #: Dotted module the binding comes from (relative imports resolved).
    module: str
    #: Imported symbol name, or ``None`` when the module itself is bound.
    name: Optional[str]
    lineno: int


@dataclass
class GlobalBinding:
    """One module-level name binding (``NAME = ...`` / ``NAME: T = ...``)."""

    name: str
    lineno: int
    col: int
    value: Optional[ast.expr]
    #: Bound to a mutable container literal/constructor (SHM001 fodder).
    is_container: bool
    #: ``UPPER_CASE`` naming convention (leading underscores allowed).
    constant_named: bool
    #: Annotated ``Final`` — the author promised not to rebind it.
    is_final: bool = False
    #: Mutated somewhere in its own module (method call, subscript
    #: assignment, ``global`` rebind, augmented assignment).
    mutated: bool = False


@dataclass
class FunctionSymbol:
    """A top-level function or a class method."""

    module_path: str
    #: ``"run_adoption_experiment"`` or ``"SQLiteBackend.get"``.
    qualname: str
    name: str
    lineno: int
    col: int
    is_async: bool
    node: ast.AST = field(repr=False)
    class_name: Optional[str] = None

    @property
    def key(self) -> Tuple[str, str]:
        """The call-graph node identity: ``(module_path, qualname)``."""
        return (self.module_path, self.qualname)


@dataclass
class ClassSymbol:
    """A top-level class with its methods and raw base-class chains."""

    module_path: str
    name: str
    lineno: int
    #: Base classes as written (``("TripletBackend",)``,
    #: ``("backends", "TripletBackend")``); resolved by the project.
    base_chains: List[Tuple[str, ...]]
    methods: Dict[str, FunctionSymbol] = field(default_factory=dict)

    @property
    def key(self) -> Tuple[str, str]:
        return (self.module_path, self.name)


@dataclass
class ModuleSymbols:
    """Everything one module contributes to the project symbol table."""

    context: ModuleContext = field(repr=False)
    path: str = ""
    dotted: Optional[str] = None
    is_tests: bool = False
    is_init: bool = False
    functions: Dict[str, FunctionSymbol] = field(default_factory=dict)
    classes: Dict[str, ClassSymbol] = field(default_factory=dict)
    globals: Dict[str, GlobalBinding] = field(default_factory=dict)
    imports: Dict[str, ImportBinding] = field(default_factory=dict)
    #: ``from x import *`` targets, as dotted module names.
    star_imports: List[Tuple[str, int]] = field(default_factory=list)
    #: ``__all__`` when statically evaluable (a list/tuple of strings).
    explicit_all: Optional[List[str]] = None

    def exported_names(self) -> List[str]:
        """Names a ``from module import *`` would bind."""
        if self.explicit_all is not None:
            return list(self.explicit_all)
        public = []
        for name in (
            list(self.functions)
            + list(self.classes)
            + list(self.globals)
            + list(self.imports)
        ):
            if not name.startswith("_"):
                public.append(name)
        return public


def _is_mutable_container(node: Optional[ast.expr]) -> bool:
    if node is None:
        return False
    if isinstance(
        node,
        (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
    ):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name: Optional[str] = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        return name in MUTABLE_CONTAINER_CALLS
    return False


def _is_constant_named(name: str) -> bool:
    stripped = name.lstrip("_")
    return bool(stripped) and stripped == stripped.upper()


def _annotation_is_final(annotation: Optional[ast.expr]) -> bool:
    if annotation is None:
        return False
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name) and node.id == "Final":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "Final":
            return True
    return False


def _static_all(node: ast.expr) -> Optional[List[str]]:
    if not isinstance(node, (ast.List, ast.Tuple)):
        return None
    names: List[str] = []
    for element in node.elts:
        if not (
            isinstance(element, ast.Constant) and isinstance(element.value, str)
        ):
            return None
        names.append(element.value)
    return names


def _function_symbol(
    module_path: str,
    node: ast.AST,
    class_name: Optional[str] = None,
) -> FunctionSymbol:
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    qualname = f"{class_name}.{node.name}" if class_name else node.name
    return FunctionSymbol(
        module_path=module_path,
        qualname=qualname,
        name=node.name,
        lineno=node.lineno,
        col=node.col_offset + 1,
        is_async=isinstance(node, ast.AsyncFunctionDef),
        node=node,
        class_name=class_name,
    )


def _resolve_relative(
    dotted: Optional[str], is_init: bool, level: int, module: Optional[str]
) -> Optional[str]:
    """Resolve a relative ``from``-import against this module's position."""
    if level == 0:
        return module
    if dotted is None:
        return None
    parts = dotted.split(".")
    # ``from . import x`` refers to the containing package: the module
    # itself for ``__init__.py``, the parent package otherwise; each
    # additional level strips one more package.
    drop = level if not is_init else level - 1
    if drop >= len(parts):
        return None
    base = parts[: len(parts) - drop]
    if module:
        base = base + module.split(".")
    return ".".join(base)


def collect_module(ctx: ModuleContext) -> ModuleSymbols:
    """Build the symbol table for one parsed module."""
    dotted = dotted_module_name(ctx.module_path) if ctx.importable else None
    is_init = ctx.module_path.rsplit("/", 1)[-1] == "__init__.py"
    symbols = ModuleSymbols(
        context=ctx,
        path=ctx.module_path,
        dotted=dotted,
        is_tests=ctx.is_tests,
        is_init=is_init,
    )

    assert isinstance(ctx.tree, ast.Module)
    for stmt in ctx.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            symbol = _function_symbol(ctx.module_path, stmt)
            symbols.functions[symbol.name] = symbol
        elif isinstance(stmt, ast.ClassDef):
            base_chains = []
            for base in stmt.bases:
                chain = dotted_name(base)
                if chain is not None:
                    base_chains.append(chain)
            cls = ClassSymbol(
                module_path=ctx.module_path,
                name=stmt.name,
                lineno=stmt.lineno,
                base_chains=base_chains,
            )
            for child in stmt.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    method = _function_symbol(
                        ctx.module_path, child, class_name=stmt.name
                    )
                    cls.methods[method.name] = method
            symbols.classes[stmt.name] = cls
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            annotation = (
                stmt.annotation if isinstance(stmt, ast.AnnAssign) else None
            )
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if target.id == "__all__" and stmt.value is not None:
                    symbols.explicit_all = _static_all(stmt.value)
                binding = GlobalBinding(
                    name=target.id,
                    lineno=stmt.lineno,
                    col=stmt.col_offset + 1,
                    value=stmt.value,
                    is_container=_is_mutable_container(stmt.value),
                    constant_named=_is_constant_named(target.id),
                    is_final=_annotation_is_final(annotation),
                )
                # First binding wins for location; later rebinds at module
                # level count as mutation of shared state.
                if target.id in symbols.globals:
                    symbols.globals[target.id].mutated = True
                else:
                    symbols.globals[target.id] = binding

    # Imports are collected module-wide: the codebase leans on lazy
    # in-function imports to break package cycles, and the call graph
    # must see through them.
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    symbols.imports[alias.asname] = ImportBinding(
                        alias=alias.asname,
                        module=alias.name,
                        name=None,
                        lineno=node.lineno,
                    )
                else:
                    head = alias.name.split(".", 1)[0]
                    symbols.imports[head] = ImportBinding(
                        alias=head, module=head, name=None, lineno=node.lineno
                    )
        elif isinstance(node, ast.ImportFrom):
            target = _resolve_relative(
                dotted, is_init, node.level, node.module
            )
            if target is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    symbols.star_imports.append((target, node.lineno))
                    continue
                bound = alias.asname or alias.name
                symbols.imports[bound] = ImportBinding(
                    alias=bound,
                    module=target,
                    name=alias.name,
                    lineno=node.lineno,
                )

    _mark_mutations(ctx.tree, symbols)
    return symbols


def _mark_mutations(tree: ast.AST, symbols: ModuleSymbols) -> None:
    """Flag module globals that are mutated anywhere in their module."""
    names = symbols.globals
    declared_global: set = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in MUTATING_METHODS
                and isinstance(func.value, ast.Name)
                and func.value.id in names
            ):
                names[func.value.id].mutated = True
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                inner = target
                while isinstance(inner, (ast.Subscript, ast.Attribute)):
                    inner = inner.value
                if not isinstance(inner, ast.Name):
                    continue
                if inner is target:
                    # Plain rebinds are only mutation when routed through
                    # a ``global`` declaration (module-level rebinds were
                    # handled during collection).
                    if (
                        isinstance(node, ast.AugAssign)
                        or inner.id in declared_global
                    ) and inner.id in names:
                        names[inner.id].mutated = True
                elif inner.id in names:
                    names[inner.id].mutated = True
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                inner = target
                while isinstance(inner, (ast.Subscript, ast.Attribute)):
                    inner = inner.value
                if isinstance(inner, ast.Name) and inner.id in names:
                    names[inner.id].mutated = True
