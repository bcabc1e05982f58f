"""The cross-module layer: name resolution, class hierarchy, call graph.

A :class:`Project` owns every module's symbol table and answers the
questions interprocedural rules ask:

* *what does this name mean here?* — :meth:`Project.resolve_name`
  follows import chains and ``from x import *`` re-exports (with cycle
  guards, so mutually-importing modules terminate);
* *who does this call reach?* — :class:`CallSite` records each call's
  resolved project targets plus a canonical dotted chain for external
  calls (``import random as rnd; rnd.random()`` canonicalizes to
  ``random.random``), and :meth:`Project.reachable_from` runs BFS with
  parent pointers so findings can print the offending call path;
* *who inherits from whom?* — base chains resolve into a class
  hierarchy, ``self.method()`` resolves through ancestors *and*
  subclass overrides (the template-method pattern the
  ``TripletBackend`` implementations use).

Resolution is deliberately conservative: an edge is only added when the
callee is confidently a project symbol (same module, explicit import,
``self.``/local-instance method).  Unknown receivers produce no edge —
for taint rules a missing edge is a missed finding, never a false one.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from ..framework import ModuleContext, dotted_name
from .symbols import (
    ClassSymbol,
    FunctionSymbol,
    ModuleSymbols,
    collect_module,
)

Key = Tuple[str, str]


@dataclass(frozen=True)
class ModuleRef:
    """A resolved reference to a project module (by module path)."""

    path: str


@dataclass(frozen=True)
class ExternalRef:
    """A reference that leaves the project (stdlib/third-party)."""

    chain: Tuple[str, ...]


Resolved = Union[FunctionSymbol, ClassSymbol, ModuleRef, ExternalRef, None]


@dataclass
class CallSite:
    """One call expression inside one function."""

    line: int
    col: int
    #: Dotted chain, canonicalized through import aliases when possible
    #: (``rnd.random`` → ``("random", "random")``); ``None`` when the
    #: callee is not a name/attribute chain.
    chain: Optional[Tuple[str, ...]]
    #: Attribute name for method-style calls (``x.iterdir()`` → ``"iterdir"``).
    attr: Optional[str]
    #: Keys of confidently-resolved project callees.
    targets: Tuple[Key, ...]
    node: ast.Call = field(repr=False)


@dataclass
class FunctionNode:
    """A call-graph node: one function plus its outgoing calls."""

    symbol: FunctionSymbol
    calls: List[CallSite] = field(default_factory=list)


class Project:
    """Whole-program view over a set of parsed modules."""

    def __init__(self, contexts: Sequence[ModuleContext]) -> None:
        self.modules: Dict[str, ModuleSymbols] = {}
        for ctx in contexts:
            self.modules[ctx.module_path] = collect_module(ctx)
        self.by_dotted: Dict[str, str] = {
            ms.dotted: path
            for path, ms in self.modules.items()
            if ms.dotted is not None
        }
        self.functions: Dict[Key, FunctionSymbol] = {}
        self.classes: Dict[Key, ClassSymbol] = {}
        for path, ms in self.modules.items():
            for fn in ms.functions.values():
                self.functions[fn.key] = fn
            for cls in ms.classes.values():
                self.classes[cls.key] = cls
                for method in cls.methods.values():
                    self.functions[method.key] = method
        self._subclasses: Dict[Key, List[ClassSymbol]] = {}
        self._link_hierarchy()
        self._attr_types: Dict[Key, Dict[str, ClassSymbol]] = {}
        self.nodes: Dict[Key, FunctionNode] = {}
        for ms in self.modules.values():
            for fn in ms.functions.values():
                self.nodes[fn.key] = self._build_node(ms, fn)
            for cls in ms.classes.values():
                for method in cls.methods.values():
                    self.nodes[method.key] = self._build_node(ms, method)

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------
    def resolve_name(
        self,
        module: ModuleSymbols,
        name: str,
        _seen: Optional[Set[Tuple[str, str]]] = None,
    ) -> Resolved:
        """What ``name`` means at module scope in ``module``.

        Follows import chains into other project modules and expands
        ``from x import *`` re-exports; cycles (mutually importing
        modules) are cut by the ``_seen`` guard.
        """
        seen = _seen if _seen is not None else set()
        if (module.path, name) in seen:
            return None
        seen.add((module.path, name))

        if name in module.functions:
            return module.functions[name]
        if name in module.classes:
            return module.classes[name]
        binding = module.imports.get(name)
        if binding is not None:
            target_path = self.by_dotted.get(binding.module)
            if binding.name is None:
                if target_path is not None:
                    return ModuleRef(target_path)
                return ExternalRef(tuple(binding.module.split(".")))
            if target_path is not None:
                target = self.modules[target_path]
                resolved = self.resolve_name(target, binding.name, seen)
                if resolved is not None:
                    return resolved
                # ``from repro.scan import batch`` — a submodule import.
                sub = self.by_dotted.get(f"{binding.module}.{binding.name}")
                if sub is not None:
                    return ModuleRef(sub)
                return None
            # The parent package may be absent from the analyzed set
            # (partial trees, fixtures) while the submodule is present.
            sub = self.by_dotted.get(f"{binding.module}.{binding.name}")
            if sub is not None:
                return ModuleRef(sub)
            return ExternalRef((*binding.module.split("."), binding.name))
        if name in module.globals:
            return None
        for star_module, _ in module.star_imports:
            target_path = self.by_dotted.get(star_module)
            if target_path is None:
                continue
            target = self.modules[target_path]
            if name in target.exported_names():
                resolved = self.resolve_name(target, name, seen)
                if resolved is not None:
                    return resolved
        return None

    def resolve_chain(
        self, module: ModuleSymbols, chain: Tuple[str, ...]
    ) -> Tuple[Resolved, Optional[Tuple[str, ...]]]:
        """Resolve a dotted chain like ``scan.batch.replay`` or ``os.path.join``.

        Returns ``(project symbol or None, canonical external chain or
        None)``.  Exactly one of the two is meaningful; both ``None``
        means the chain could not be resolved at all.
        """
        head = self.resolve_name(module, chain[0])
        index = 1
        while isinstance(head, ModuleRef) and index < len(chain):
            target = self.modules[head.path]
            nxt: Resolved = self.resolve_name(target, chain[index])
            if nxt is None and target.dotted is not None:
                sub = self.by_dotted.get(f"{target.dotted}.{chain[index]}")
                if sub is not None:
                    nxt = ModuleRef(sub)
            if nxt is None:
                return None, None
            head = nxt
            index += 1
        if isinstance(head, ExternalRef):
            return None, head.chain + tuple(chain[index:])
        if isinstance(head, ClassSymbol) and index < len(chain):
            candidates = self.method_candidates(head, chain[index])
            if candidates and index == len(chain) - 1:
                return candidates[0], None
            return None, None
        if index == len(chain):
            return head, None
        return None, None

    # ------------------------------------------------------------------
    # Class hierarchy
    # ------------------------------------------------------------------
    def _link_hierarchy(self) -> None:
        self._bases: Dict[Key, List[ClassSymbol]] = {}
        for cls in self.classes.values():
            module = self.modules[cls.module_path]
            bases: List[ClassSymbol] = []
            for chain in cls.base_chains:
                resolved: Resolved
                if len(chain) == 1:
                    resolved = self.resolve_name(module, chain[0])
                else:
                    resolved, _ = self.resolve_chain(module, chain)
                if isinstance(resolved, ClassSymbol):
                    bases.append(resolved)
                    self._subclasses.setdefault(resolved.key, []).append(cls)
            self._bases[cls.key] = bases

    def ancestors(self, cls: ClassSymbol) -> Iterator[ClassSymbol]:
        """All resolved project base classes, nearest first."""
        seen: Set[Key] = {cls.key}
        queue = list(self._bases.get(cls.key, []))
        while queue:
            base = queue.pop(0)
            if base.key in seen:
                continue
            seen.add(base.key)
            yield base
            queue.extend(self._bases.get(base.key, []))

    def descendants(self, cls: ClassSymbol) -> Iterator[ClassSymbol]:
        """All transitive project subclasses."""
        seen: Set[Key] = {cls.key}
        queue = list(self._subclasses.get(cls.key, []))
        while queue:
            sub = queue.pop(0)
            if sub.key in seen:
                continue
            seen.add(sub.key)
            yield sub
            queue.extend(self._subclasses.get(sub.key, []))

    def method_candidates(
        self,
        cls: ClassSymbol,
        name: str,
        include_subclasses: bool = False,
    ) -> List[FunctionSymbol]:
        """Methods a ``cls().name()`` call could dispatch to."""
        candidates: List[FunctionSymbol] = []
        if name in cls.methods:
            candidates.append(cls.methods[name])
        for ancestor in self.ancestors(cls):
            if name in ancestor.methods:
                candidates.append(ancestor.methods[name])
        if include_subclasses:
            for sub in self.descendants(cls):
                if name in sub.methods:
                    candidates.append(sub.methods[name])
        return candidates

    # ------------------------------------------------------------------
    # Call-graph construction
    # ------------------------------------------------------------------
    def _annotation_class(
        self, module: ModuleSymbols, annotation: Optional[ast.expr]
    ) -> Optional[ClassSymbol]:
        """Resolve a type annotation to a project class, if it names one.

        Unwraps ``Optional[T]`` / ``Union[T, None]`` and string
        annotations; container annotations (``List[T]`` etc.) do not
        resolve — the binding's *elements* are typed, not the binding.
        """
        if annotation is None:
            return None
        node: ast.expr = annotation
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, ast.Subscript):
            head = dotted_name(node.value)
            if head is None or head[-1] not in ("Optional", "Union"):
                return None
            inner = node.slice
            elements = (
                list(inner.elts) if isinstance(inner, ast.Tuple) else [inner]
            )
            for element in elements:
                resolved = self._annotation_class(module, element)
                if resolved is not None:
                    return resolved
            return None
        chain = dotted_name(node)
        if chain is None:
            return None
        resolved: Resolved
        if len(chain) == 1:
            resolved = self.resolve_name(module, chain[0])
        else:
            resolved, _ = self.resolve_chain(module, chain)
        return resolved if isinstance(resolved, ClassSymbol) else None

    def _resolve_constructor(
        self, module: ModuleSymbols, value: ast.expr
    ) -> Optional[ClassSymbol]:
        """``ClassName(...)`` on the right-hand side of an assignment."""
        if not isinstance(value, ast.Call):
            return None
        chain = dotted_name(value.func)
        if chain is None:
            return None
        resolved: Resolved
        if len(chain) == 1:
            resolved = self.resolve_name(module, chain[0])
        else:
            resolved, _ = self.resolve_chain(module, chain)
        return resolved if isinstance(resolved, ClassSymbol) else None

    def _instance_types(
        self, module: ModuleSymbols, fn: FunctionSymbol
    ) -> Dict[str, Tuple[ClassSymbol, bool]]:
        """Local name -> (class, dispatch-to-subclasses) bindings.

        Two sources: ``x = ClassName(...)`` pins the concrete class, and
        a local annotation (``x: Base`` — the pre-annotated loop
        variable idiom — or an annotated parameter) declares an
        *interface*, so calls through it may dispatch to any subclass.
        """
        instances: Dict[str, Tuple[ClassSymbol, bool]] = {}
        args = fn.node.args  # type: ignore[attr-defined]
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            annotated = self._annotation_class(module, arg.annotation)
            if annotated is not None:
                instances[arg.arg] = (annotated, True)
        for node in ast.walk(fn.node):
            if isinstance(node, ast.AnnAssign):
                if not isinstance(node.target, ast.Name):
                    continue
                annotated = self._annotation_class(module, node.annotation)
                if annotated is not None:
                    instances[node.target.id] = (annotated, True)
                continue
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            constructed = self._resolve_constructor(module, node.value)
            if constructed is not None:
                instances[target.id] = (constructed, False)
        return instances

    def attribute_types(self, cls: ClassSymbol) -> Dict[str, ClassSymbol]:
        """Instance-attribute name -> class, gathered from the methods.

        Sources, in priority order (first resolution of a name wins,
        ``__init__`` scanned first): ``self.x: T`` annotated
        assignments, ``self.x = ClassName(...)`` constructor calls, and
        ``self.x = param`` where the parameter is annotated with a
        project class.  This is what lets the call graph resolve
        ``self.attr.method()`` — the serving daemon's whole decision
        path hangs off such calls.
        """
        cached = self._attr_types.get(cls.key)
        if cached is not None:
            return cached
        module = self.modules[cls.module_path]
        types: Dict[str, ClassSymbol] = {}
        ordered = sorted(
            cls.methods.values(), key=lambda m: m.name != "__init__"
        )
        for method in ordered:
            args = method.node.args  # type: ignore[attr-defined]
            params: Dict[str, Optional[ClassSymbol]] = {
                arg.arg: self._annotation_class(module, arg.annotation)
                for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]
            }
            for node in ast.walk(method.node):
                target: Optional[ast.expr]
                value: Optional[ast.expr]
                if isinstance(node, ast.AnnAssign):
                    target, value = node.target, node.value
                elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                else:
                    continue
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                name = target.attr
                if name in types:
                    continue
                if isinstance(node, ast.AnnAssign):
                    annotated = self._annotation_class(module, node.annotation)
                    if annotated is not None:
                        types[name] = annotated
                        continue
                if value is None:
                    continue
                constructed = self._resolve_constructor(module, value)
                if constructed is not None:
                    types[name] = constructed
                    continue
                if isinstance(value, ast.Name):
                    annotated = params.get(value.id)
                    if annotated is not None:
                        types[name] = annotated
        self._attr_types[cls.key] = types
        return types

    def _build_node(
        self, module: ModuleSymbols, fn: FunctionSymbol
    ) -> FunctionNode:
        node = FunctionNode(symbol=fn)
        instances = self._instance_types(module, fn)
        for call in ast.walk(fn.node):
            if not isinstance(call, ast.Call):
                continue
            chain = dotted_name(call.func)
            canonical = chain
            targets: List[FunctionSymbol] = []
            if chain is not None and len(chain) == 1:
                resolved = self.resolve_name(module, chain[0])
                if isinstance(resolved, FunctionSymbol):
                    targets = [resolved]
                elif isinstance(resolved, ClassSymbol):
                    targets = self.method_candidates(resolved, "__init__")
                elif isinstance(resolved, ExternalRef):
                    canonical = resolved.chain
            elif chain is not None:
                head = chain[0]
                if head == "self" and fn.class_name is not None:
                    cls = module.classes.get(fn.class_name)
                    if cls is not None and len(chain) == 2:
                        targets = self.method_candidates(
                            cls, chain[1], include_subclasses=True
                        )
                    elif cls is not None and len(chain) >= 3:
                        # self.attr[.attr...].method(): walk each hop
                        # through the attribute's declared/constructed
                        # type, then dispatch on the final receiver (and
                        # its subclasses — it may hold any of them).
                        attr_cls: Optional[ClassSymbol] = cls
                        for attr in chain[1:-1]:
                            if attr_cls is None:
                                break
                            attr_cls = self.attribute_types(attr_cls).get(attr)
                        if attr_cls is not None:
                            targets = self.method_candidates(
                                attr_cls, chain[-1], include_subclasses=True
                            )
                elif head in instances and len(chain) == 2:
                    bound, is_interface = instances[head]
                    targets = self.method_candidates(
                        bound, chain[1], include_subclasses=is_interface
                    )
                else:
                    resolved, external = self.resolve_chain(module, chain)
                    if isinstance(resolved, FunctionSymbol):
                        targets = [resolved]
                    elif isinstance(resolved, ClassSymbol):
                        targets = self.method_candidates(resolved, "__init__")
                    if external is not None:
                        canonical = external
            attr = (
                call.func.attr if isinstance(call.func, ast.Attribute) else None
            )
            node.calls.append(
                CallSite(
                    line=call.lineno,
                    col=call.col_offset + 1,
                    chain=canonical,
                    attr=attr,
                    targets=tuple(t.key for t in targets),
                    node=call,
                )
            )
        return node

    # ------------------------------------------------------------------
    # Reachability
    # ------------------------------------------------------------------
    def reachable_from(
        self,
        entries: Iterable[Key],
        *,
        skip: Optional[Set[Key]] = None,
    ) -> Dict[Key, Optional[Key]]:
        """BFS over call edges; maps each reached key to its parent.

        Entries map to ``None``.  Iteration order is deterministic:
        entries in the given order, callees in call-site order.
        """
        parents: Dict[Key, Optional[Key]] = {}
        queue: List[Key] = []
        for entry in entries:
            if entry in self.nodes and entry not in parents:
                parents[entry] = None
                queue.append(entry)
        while queue:
            key = queue.pop(0)
            for call in self.nodes[key].calls:
                for target in call.targets:
                    if target in parents or target not in self.nodes:
                        continue
                    if skip is not None and target in skip:
                        continue
                    parents[target] = key
                    queue.append(target)
        return parents

    def call_path(
        self, parents: Dict[Key, Optional[Key]], key: Key
    ) -> List[Key]:
        """Entry-to-``key`` path through a :meth:`reachable_from` map."""
        path = [key]
        current: Optional[Key] = key
        while current is not None:
            current = parents.get(current)
            if current is not None:
                path.append(current)
        return list(reversed(path))

    # ------------------------------------------------------------------
    # Dumps and reports
    # ------------------------------------------------------------------
    def call_graph_json(self) -> Dict[str, Any]:
        """The ``--graph-json`` document: every node and resolved edge."""
        nodes = []
        edge_count = 0
        for key in sorted(self.nodes):
            node = self.nodes[key]
            calls = []
            for call in node.calls:
                for target in call.targets:
                    calls.append(
                        {
                            "line": call.line,
                            "target": f"{target[0]}::{target[1]}",
                        }
                    )
                    edge_count += 1
            nodes.append(
                {
                    "module": key[0],
                    "function": key[1],
                    "line": node.symbol.lineno,
                    "async": node.symbol.is_async,
                    "calls": calls,
                }
            )
        return {
            "modules": len(self.modules),
            "functions": len(self.nodes),
            "edges": edge_count,
            "nodes": nodes,
        }

    def referenced_symbols(self) -> Set[Key]:
        """Function/class keys referenced anywhere beyond their definition.

        A reference is a resolved import binding from another module, or
        a name/attribute *use* in any module — including the defining one,
        since a helper only its own module calls is not dead (so functions
        passed as values — e.g. shard task functions handed to
        ``run_tasks`` — count as referenced).
        """
        referenced: Set[Key] = set()
        for path, ms in self.modules.items():
            for binding in ms.imports.values():
                if binding.name is None:
                    continue
                target_path = self.by_dotted.get(binding.module)
                if target_path is None or target_path == path:
                    continue
                resolved = self.resolve_name(
                    self.modules[target_path], binding.name
                )
                if (
                    isinstance(resolved, (FunctionSymbol, ClassSymbol))
                    and resolved.key[0] != path
                ):
                    referenced.add(resolved.key)
            for node in ast.walk(ms.context.tree):
                chain: Optional[Tuple[str, ...]] = None
                if isinstance(node, ast.Name) and isinstance(
                    node.ctx, ast.Load
                ):
                    chain = (node.id,)
                elif isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Load
                ):
                    chain = dotted_name(node)
                if chain is None:
                    continue
                resolved, _ = self.resolve_chain(ms, chain)
                if isinstance(resolved, (FunctionSymbol, ClassSymbol)):
                    referenced.add(resolved.key)
        return referenced

    def attribute_names(self) -> Set[str]:
        """Every attribute name and string constant in any module.

        A method or property counts as referenced when its name shows up
        here: receivers are rarely typed, and a string names a method
        when code patches it by name (``wrap(SMTPSession, "abort", …)``).
        """
        names: Set[str] = set()
        for ms in self.modules.values():
            for node in ast.walk(ms.context.tree):
                if isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(
                    node.value, str
                ):
                    names.add(node.value)
        return names

    def api_report(self) -> Dict[str, Any]:
        """The API-surface / dead-symbol report.

        *Surface* is every name exported from a package module (via
        ``__all__`` when present, public names otherwise); *dead* is
        every public top-level function or class in a package module
        that no other module imports, calls, or names, and every public
        method or property of such a class whose name no module uses as
        an attribute or string.  A class with a direct base outside the
        project offers no method candidates: frameworks call them by name.
        """
        referenced = self.referenced_symbols()
        attributes = self.attribute_names()
        surface = {}
        dead = []
        for path in sorted(self.modules):
            ms = self.modules[path]
            if ms.dotted is None or ms.is_tests:
                continue
            surface[path] = sorted(ms.exported_names())
            if ms.is_init:
                continue
            candidates: List[Tuple[str, int]] = [
                (fn.qualname, fn.lineno)
                for fn in ms.functions.values()
                if not fn.name.startswith("_")
            ] + [
                (cls.name, cls.lineno)
                for cls in ms.classes.values()
                if not cls.name.startswith("_")
            ]
            unused = [
                (qualname, lineno)
                for qualname, lineno in candidates
                if (path, qualname) not in referenced
            ]
            for cls in ms.classes.values():
                # A base the project cannot resolve lies outside it.
                outside_base = len(self._bases[cls.key]) < len(cls.base_chains)
                if cls.name.startswith("_") or outside_base:
                    continue
                unused.extend(
                    (method.qualname, method.lineno)
                    for method in cls.methods.values()
                    if not method.name.startswith("_")
                    and method.name not in attributes
                )
            for qualname, lineno in sorted(unused):
                dead.append({"module": path, "symbol": qualname, "line": lineno})
        return {"surface": surface, "dead_symbols": dead}
