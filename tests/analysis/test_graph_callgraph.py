"""Call-graph construction: edges, method resolution, reachability."""

from graph_fixtures import project_from_sources as project


def edges(proj, module_path, qualname):
    node = proj.nodes[(module_path, qualname)]
    return sorted({target for call in node.calls for target in call.targets})


class TestSameModuleEdges:
    def test_function_to_function(self):
        proj = project(
            {
                "core/a.py": """\
                def helper():
                    pass

                def entry():
                    helper()
                """
            }
        )
        assert edges(proj, "core/a.py", "entry") == [("core/a.py", "helper")]

    def test_class_init_edge(self):
        proj = project(
            {
                "core/a.py": """\
                class Store:
                    def __init__(self):
                        pass

                def build():
                    return Store()
                """
            }
        )
        assert edges(proj, "core/a.py", "build") == [
            ("core/a.py", "Store.__init__")
        ]


class TestCrossModuleEdges:
    def test_from_import_edge(self):
        proj = project(
            {
                "core/a.py": """\
                from repro.core.b import helper

                def entry():
                    helper()
                """,
                "core/b.py": """\
                def helper():
                    pass
                """,
            }
        )
        assert edges(proj, "core/a.py", "entry") == [("core/b.py", "helper")]

    def test_module_attribute_edge(self):
        proj = project(
            {
                "core/a.py": """\
                from repro.core import b

                def entry():
                    b.helper()
                """,
                "core/b.py": """\
                def helper():
                    pass
                """,
            }
        )
        assert edges(proj, "core/a.py", "entry") == [("core/b.py", "helper")]

    def test_lazy_import_edge(self):
        proj = project(
            {
                "core/a.py": """\
                def entry():
                    from repro.core.b import helper
                    helper()
                """,
                "core/b.py": """\
                def helper():
                    pass
                """,
            }
        )
        assert edges(proj, "core/a.py", "entry") == [("core/b.py", "helper")]

    def test_import_cycle_terminates(self):
        # Mutually importing modules must not hang resolution.
        proj = project(
            {
                "core/a.py": """\
                from repro.core.b import b_fn

                def a_fn():
                    b_fn()
                """,
                "core/b.py": """\
                from repro.core.a import a_fn

                def b_fn():
                    a_fn()
                """,
            }
        )
        assert edges(proj, "core/a.py", "a_fn") == [("core/b.py", "b_fn")]
        assert edges(proj, "core/b.py", "b_fn") == [("core/a.py", "a_fn")]

    def test_star_reexport_resolution(self):
        # ``scan/__init__.py`` re-exports batch's public names; importing
        # the re-export must resolve to the defining module.
        proj = project(
            {
                "scan/__init__.py": """\
                from repro.scan.batch import *
                """,
                "scan/batch.py": """\
                def batched_shard():
                    pass
                """,
                "core/a.py": """\
                from repro.scan import batched_shard

                def entry():
                    batched_shard()
                """,
            }
        )
        assert edges(proj, "core/a.py", "entry") == [
            ("scan/batch.py", "batched_shard")
        ]

    def test_unknown_receiver_produces_no_edge(self):
        # Conservative resolution: an unknown object's method call must
        # not be attributed to anything.
        proj = project(
            {
                "core/a.py": """\
                def entry(thing):
                    thing.run()
                """
            }
        )
        assert edges(proj, "core/a.py", "entry") == []


class TestMethodResolution:
    def test_self_call_resolves_within_class(self):
        proj = project(
            {
                "core/a.py": """\
                class Engine:
                    def step(self):
                        self.tick()

                    def tick(self):
                        pass
                """
            }
        )
        assert ("core/a.py", "Engine.tick") in edges(
            proj, "core/a.py", "Engine.step"
        )

    def test_template_method_sees_subclass_overrides(self):
        # The TripletBackend pattern: a base-class driver calling
        # ``self.lookup()`` dispatches to every subclass implementation.
        proj = project(
            {
                "core/base.py": """\
                class Backend:
                    def serve(self):
                        return self.lookup()

                    def lookup(self):
                        raise NotImplementedError
                """,
                "core/impl.py": """\
                from repro.core.base import Backend

                class SqliteBackend(Backend):
                    def lookup(self):
                        return 1
                """,
            }
        )
        targets = edges(proj, "core/base.py", "Backend.serve")
        assert ("core/base.py", "Backend.lookup") in targets
        assert ("core/impl.py", "SqliteBackend.lookup") in targets

    def test_inherited_method_resolves_to_ancestor(self):
        proj = project(
            {
                "core/a.py": """\
                class Base:
                    def shared(self):
                        pass

                class Child(Base):
                    def entry(self):
                        self.shared()
                """
            }
        )
        assert ("core/a.py", "Base.shared") in edges(
            proj, "core/a.py", "Child.entry"
        )

    def test_local_instance_method_edge(self):
        proj = project(
            {
                "core/a.py": """\
                class Store:
                    def get(self):
                        pass

                def entry():
                    store = Store()
                    return store.get()
                """
            }
        )
        assert ("core/a.py", "Store.get") in edges(proj, "core/a.py", "entry")


class TestExternalChains:
    def test_alias_canonicalized(self):
        proj = project(
            {
                "core/a.py": """\
                import random as rnd

                def entry():
                    return rnd.random()
                """
            }
        )
        node = proj.nodes[("core/a.py", "entry")]
        chains = [call.chain for call in node.calls]
        assert ("random", "random") in chains

    def test_from_import_external_canonicalized(self):
        proj = project(
            {
                "core/a.py": """\
                from time import monotonic

                def entry():
                    return monotonic()
                """
            }
        )
        node = proj.nodes[("core/a.py", "entry")]
        assert [call.chain for call in node.calls] == [("time", "monotonic")]


class TestReachability:
    def test_bfs_with_parent_pointers(self):
        proj = project(
            {
                "core/a.py": """\
                def entry():
                    middle()

                def middle():
                    sink()

                def sink():
                    pass

                def unrelated():
                    pass
                """
            }
        )
        parents = proj.reachable_from([("core/a.py", "entry")])
        assert ("core/a.py", "sink") in parents
        assert ("core/a.py", "unrelated") not in parents
        path = proj.call_path(parents, ("core/a.py", "sink"))
        assert [qualname for _, qualname in path] == ["entry", "middle", "sink"]

    def test_skip_set_prunes_traversal(self):
        proj = project(
            {
                "core/a.py": """\
                def entry():
                    middle()

                def middle():
                    sink()

                def sink():
                    pass
                """
            }
        )
        parents = proj.reachable_from(
            [("core/a.py", "entry")], skip={("core/a.py", "middle")}
        )
        assert ("core/a.py", "sink") not in parents


class TestDumps:
    def test_call_graph_json_counts(self):
        proj = project(
            {
                "core/a.py": """\
                def helper():
                    pass

                def entry():
                    helper()
                """
            }
        )
        doc = proj.call_graph_json()
        assert doc["modules"] == 1
        assert doc["functions"] == 2
        assert doc["edges"] == 1
        entry = next(n for n in doc["nodes"] if n["function"] == "entry")
        assert entry["calls"] == [{"line": 5, "target": "core/a.py::helper"}]

    def test_api_report_finds_dead_symbol(self):
        proj = project(
            {
                "core/a.py": """\
                def used():
                    pass

                def never_called():
                    pass

                def entry():
                    used()
                """,
                "core/b.py": """\
                from repro.core.a import entry

                def main():
                    entry()
                """,
            }
        )
        report = proj.api_report()
        dead = {(d["module"], d["symbol"]) for d in report["dead_symbols"]}
        assert ("core/a.py", "never_called") in dead
        assert ("core/a.py", "used") not in dead
        assert ("core/a.py", "entry") not in dead
        # main is itself unreferenced, by design of the fixture.
        assert ("core/b.py", "main") in dead

    def test_api_report_finds_dead_method(self):
        proj = project(
            {
                "core/a.py": """\
                import enum

                class Box:
                    def used(self):
                        pass

                    @property
                    def patched(self):
                        pass

                    def never_called(self):
                        pass

                class Color(enum.Enum):
                    def never_called_either(self):
                        pass
                """,
                "core/b.py": """\
                from repro.core.a import Box, Color

                def main(box: Box, patcher):
                    box.used()
                    patcher.wrap(Box, "patched")
                    return Color
                """,
            }
        )
        dead = {
            (d["module"], d["symbol"]) for d in proj.api_report()["dead_symbols"]
        }
        assert ("core/a.py", "Box.never_called") in dead
        assert ("core/a.py", "Box.used") not in dead
        assert ("core/a.py", "Box.patched") not in dead
        # A direct base outside the project: frameworks call by name.
        assert ("core/a.py", "Color.never_called_either") not in dead

    def test_api_surface_uses_exports(self):
        proj = project(
            {
                "core/a.py": """\
                __all__ = ["entry"]

                def entry():
                    pass

                def _private():
                    pass
                """
            }
        )
        report = proj.api_report()
        assert list(report["surface"]["core/a.py"]) == ["entry"]
