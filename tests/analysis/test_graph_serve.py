"""Call-graph resolution features the serving layer's audit depends on.

The ASY001 rule can only audit what the call graph resolves.  The
daemon's whole decision path flows through ``self.attr.method()`` calls
(``self.chain.decide(...)``) and interface-annotated loop variables
(``plugin: PolicyPlugin``), so this file pins both halves:

* fixture tests for each typed-binding source the resolver understands
  (annotated ``self`` attributes, constructor assignments, annotated
  parameters, pre-annotated locals, string/Optional annotations);
* real-tree tests that the serve coroutines are audited as async
  entries and that the audit actually *sees through* to the plugin
  chain and the durable backends' blocking sinks.
"""

from pathlib import Path

import pytest
from graph_fixtures import project_from_sources as project

import repro
from repro.analysis.lint.analyze import run_graph_rules
from repro.analysis.lint.framework import load_contexts
from repro.analysis.lint.graph import Project


def edges(proj, module_path, qualname):
    node = proj.nodes[(module_path, qualname)]
    return sorted({target for call in node.calls for target in call.targets})


class TestAttributeTypeResolution:
    def test_annotated_self_attribute(self):
        proj = project(
            {
                "core/a.py": """\
                class Store:
                    def get(self):
                        pass

                class Engine:
                    def __init__(self, store):
                        self.store: Store = store

                    def step(self):
                        return self.store.get()
                """
            }
        )
        assert ("core/a.py", "Store.get") in edges(
            proj, "core/a.py", "Engine.step"
        )

    def test_constructor_assigned_self_attribute(self):
        proj = project(
            {
                "core/a.py": """\
                class Store:
                    def get(self):
                        pass

                class Engine:
                    def __init__(self):
                        self.store = Store()

                    def step(self):
                        return self.store.get()
                """
            }
        )
        assert ("core/a.py", "Store.get") in edges(
            proj, "core/a.py", "Engine.step"
        )

    def test_annotated_parameter_flows_to_attribute(self):
        # The PolicyServer idiom: ``__init__(self, chain: PluginChain)``
        # then ``self.chain = chain`` — calls through self.chain resolve.
        proj = project(
            {
                "core/a.py": """\
                class Chain:
                    def decide(self):
                        pass

                class Server:
                    def __init__(self, chain: Chain):
                        self.chain = chain

                    def handle(self):
                        return self.chain.decide()
                """
            }
        )
        assert ("core/a.py", "Chain.decide") in edges(
            proj, "core/a.py", "Server.handle"
        )

    def test_attribute_dispatch_includes_subclasses(self):
        # The attribute is typed as the base; the concrete object may be
        # any subclass, so overrides must be reachable.
        proj = project(
            {
                "core/base.py": """\
                class Backend:
                    def flush(self):
                        pass
                """,
                "core/impl.py": """\
                from repro.core.base import Backend

                class SqliteBackend(Backend):
                    def flush(self):
                        pass
                """,
                "core/server.py": """\
                from repro.core.base import Backend

                class Server:
                    def __init__(self, backend: Backend):
                        self.backend = backend

                    def stop(self):
                        self.backend.flush()
                """,
            }
        )
        targets = edges(proj, "core/server.py", "Server.stop")
        assert ("core/base.py", "Backend.flush") in targets
        assert ("core/impl.py", "SqliteBackend.flush") in targets

    def test_string_and_optional_annotations_resolve(self):
        proj = project(
            {
                "core/a.py": """\
                from typing import Optional

                class Store:
                    def get(self):
                        pass

                class A:
                    def __init__(self):
                        self.store: "Store" = Store()

                    def step(self):
                        return self.store.get()

                class B:
                    def __init__(self, store: Optional[Store]):
                        self.store = store

                    def step(self):
                        return self.store.get()
                """
            }
        )
        assert ("core/a.py", "Store.get") in edges(proj, "core/a.py", "A.step")
        assert ("core/a.py", "Store.get") in edges(proj, "core/a.py", "B.step")

    def test_container_annotation_does_not_bind(self):
        # ``List[Store]`` types the elements, not the name — calling a
        # method on the list must not be attributed to Store.
        proj = project(
            {
                "core/a.py": """\
                from typing import List

                class Store:
                    def get(self):
                        pass

                class Engine:
                    def __init__(self):
                        self.stores: List[Store] = []

                    def step(self):
                        return self.stores.get()
                """
            }
        )
        assert edges(proj, "core/a.py", "Engine.step") == []

    def test_unknown_attribute_produces_no_edge(self):
        proj = project(
            {
                "core/a.py": """\
                class Engine:
                    def __init__(self, thing):
                        self.thing = thing

                    def step(self):
                        return self.thing.run()
                """
            }
        )
        assert edges(proj, "core/a.py", "Engine.step") == []


class TestAnnotatedLocalDispatch:
    def test_pre_annotated_loop_variable_dispatches_to_subclasses(self):
        # The PluginChain idiom: ``plugin: Plugin`` before the loop types
        # the loop variable, so ``plugin.check()`` reaches every
        # subclass implementation.
        proj = project(
            {
                "core/a.py": """\
                class Plugin:
                    def check(self):
                        pass

                class Greylist(Plugin):
                    def check(self):
                        pass

                class Chain:
                    def __init__(self, plugins):
                        self.plugins = plugins

                    def decide(self):
                        plugin: Plugin
                        for plugin in self.plugins:
                            plugin.check()
                """
            }
        )
        targets = edges(proj, "core/a.py", "Chain.decide")
        assert ("core/a.py", "Plugin.check") in targets
        assert ("core/a.py", "Greylist.check") in targets

    def test_constructor_pinned_local_excludes_siblings(self):
        # ``x = Impl()`` pins the concrete class: sibling subclasses of
        # its base must NOT be dispatch candidates.
        proj = project(
            {
                "core/a.py": """\
                class Base:
                    def run(self):
                        pass

                class Impl(Base):
                    def run(self):
                        pass

                class Other(Base):
                    def run(self):
                        pass

                def entry():
                    x = Impl()
                    x.run()
                """
            }
        )
        targets = edges(proj, "core/a.py", "entry")
        assert ("core/a.py", "Impl.run") in targets
        assert ("core/a.py", "Other.run") not in targets

    def test_deep_attribute_chain_resolves_hop_by_hop(self):
        # ``self.policy.store.close()`` — each hop through a typed
        # attribute, dispatch on the final receiver.
        proj = project(
            {
                "core/a.py": """\
                class Store:
                    def close(self):
                        pass

                class Policy:
                    def __init__(self, store: Store):
                        self.store = store

                class Plugin:
                    def __init__(self, policy: Policy):
                        self.policy = policy

                    def shutdown(self):
                        self.policy.store.close()
                """
            }
        )
        assert ("core/a.py", "Store.close") in edges(
            proj, "core/a.py", "Plugin.shutdown"
        )

    def test_asy001_sees_through_attribute_call(self):
        # The audit the features exist for: an async handler calling
        # ``self.chain.decide()`` which hits a blocking sink.
        proj = project(
            {
                "policyd/server.py": """\
                import sqlite3

                class Chain:
                    def decide(self):
                        return sqlite3.connect("db")

                class Server:
                    def __init__(self, chain: Chain):
                        self.chain = chain

                    async def handle(self, request):
                        return self.chain.decide()
                """,
            }
        )
        result = run_graph_rules(proj)
        findings = [f for f in result.findings if f.rule == "ASY001"]
        assert len(findings) == 1
        assert "handle" in findings[0].message


# ----------------------------------------------------------------------
# Real tree: the serve layer is audited, not just auditable
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def real_project():
    contexts, errors = load_contexts([Path(repro.__file__).resolve().parent])
    assert errors == []
    return Project(contexts)


SERVE_COROUTINES = [
    ("serve/server.py", "PolicyServer.start"),
    ("serve/server.py", "PolicyServer.run_until_signalled"),
    ("serve/server.py", "PolicyServer.shutdown"),
    ("serve/server.py", "PolicyServer._flush_loop"),
    ("serve/server.py", "PolicyServer._handle_connection"),
]


def test_serve_coroutines_are_async_entries(real_project):
    for key in SERVE_COROUTINES:
        assert key in real_project.functions, key
        assert real_project.functions[key].is_async, key


def test_handler_reaches_the_policy_core(real_project):
    """ASY001's audit of the handler must see the real decision path:
    chain -> plugins -> policy -> store backends.  If any typed-binding
    link breaks, these keys drop out of the reachable set and the audit
    silently goes blind — this test is the canary."""
    parents = real_project.reachable_from(
        [("serve/server.py", "PolicyServer._handle_connection")]
    )
    for key in [
        ("serve/plugins.py", "PluginChain.decide"),
        ("serve/plugins.py", "GreylistingPlugin.check"),
        ("greylist/policy.py", "GreylistPolicy.on_rcpt_to"),
        ("greylist/store.py", "TripletStore.lookup"),
        ("greylist/backends.py", "SQLiteBackend.get"),
    ]:
        assert key in parents, f"{key} no longer reachable from the handler"


def test_shutdown_reaches_backend_flush(real_project):
    """The drain contract depends on shutdown flushing every backend."""
    parents = real_project.reachable_from(
        [("serve/server.py", "PolicyServer.shutdown")]
    )
    for key in [
        ("serve/plugins.py", "PluginChain.close"),
        ("greylist/backends.py", "SQLiteBackend.flush"),
        ("greylist/shm.py", "SharedMemoryBackend.flush"),
    ]:
        assert key in parents, f"{key} no longer reachable from shutdown"
