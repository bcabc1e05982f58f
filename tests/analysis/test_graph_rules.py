"""Positive, negative and noqa fixtures for every interprocedural rule."""

from graph_fixtures import project_from_sources

from repro.analysis.lint.analyze import run_graph_rules


def findings_for(sources, rule_id=None):
    proj = project_from_sources(sources)
    result = run_graph_rules(proj)
    if rule_id is None:
        return result
    return [f for f in result.findings if f.rule == rule_id]


class TestDET001:
    def test_transitive_wall_clock_flagged(self):
        findings = findings_for(
            {
                "core/adoption.py": """\
                from repro.core.util import stamp

                def run_adoption_experiment(config):
                    return stamp()
                """,
                "core/util.py": """\
                import time

                def stamp():
                    return time.time()
                """,
            },
            "DET001",
        )
        assert len(findings) == 1
        finding = findings[0]
        assert finding.path == "core/util.py"
        assert finding.line == 4
        assert "run_adoption_experiment" in finding.message
        assert "stamp" in finding.message

    def test_global_random_in_backend_method_flagged(self):
        findings = findings_for(
            {
                "greylist/backends.py": """\
                class TripletBackend:
                    def lookup(self, key):
                        raise NotImplementedError
                """,
                "greylist/impl.py": """\
                import random

                from repro.greylist.backends import TripletBackend

                class FuzzyBackend(TripletBackend):
                    def lookup(self, key):
                        return random.random()
                """,
            },
            "DET001",
        )
        assert [f.path for f in findings] == ["greylist/impl.py"]
        assert "global-rng" in findings[0].message

    def test_environ_read_in_shard_task_flagged(self):
        findings = findings_for(
            {
                "runner/shards.py": """\
                import os

                def adoption_shard(payload):
                    return os.environ.get("KNOB")
                """,
            },
            "DET001",
        )
        assert len(findings) == 1
        assert "environment" in findings[0].message

    def test_unordered_listing_flagged(self):
        findings = findings_for(
            {
                "core/adoption.py": """\
                import os

                def run_adoption_experiment(config):
                    return [name for name in os.listdir(".")]
                """,
            },
            "DET001",
        )
        assert len(findings) == 1
        assert "unordered-iteration" in findings[0].message

    def test_clock_parameter_clean(self):
        findings = findings_for(
            {
                "core/adoption.py": """\
                def run_adoption_experiment(config, clock):
                    return clock.now()
                """,
            },
            "DET001",
        )
        assert findings == []

    def test_unreachable_sink_clean(self):
        # The sink exists but no entry point reaches it.
        findings = findings_for(
            {
                "core/adoption.py": """\
                def run_adoption_experiment(config):
                    return 1
                """,
                "core/util.py": """\
                import time

                def stamp():
                    return time.time()
                """,
            },
            "DET001",
        )
        assert findings == []

    def test_noqa_on_sink_line_suppresses(self):
        result = findings_for(
            {
                "core/adoption.py": """\
                import os

                def run_adoption_experiment(config):
                    return os.environ.get("KNOB")  # repro: noqa DET001 - toggle
                """,
            }
        )
        assert [f for f in result.findings if f.rule == "DET001"] == []
        assert result.suppressed == 1


class TestRNG002:
    def test_rng_in_payload_dict_flagged(self):
        findings = findings_for(
            {
                "core/driver.py": """\
                from repro.runner.pool import run_tasks
                from repro.sim.rng import RandomStream

                def launch(task, seed):
                    payloads = [
                        {"shard": 0, "rng": RandomStream(seed, "shard")}
                    ]
                    return run_tasks(task, payloads)
                """,
            },
            "RNG002",
        )
        assert len(findings) == 1
        assert findings[0].line == 6

    def test_rng_name_in_payload_flagged(self):
        findings = findings_for(
            {
                "core/driver.py": """\
                from repro.runner.pool import run_tasks

                def launch(task, rng):
                    return run_tasks(task, [{"shard": 0, "rng": rng}])
                """,
            },
            "RNG002",
        )
        assert len(findings) == 1

    def test_seed_in_payload_clean(self):
        findings = findings_for(
            {
                "core/driver.py": """\
                from repro.runner.pool import run_tasks

                def launch(task, seed):
                    payloads = [{"shard": 0, "seed": seed}]
                    return run_tasks(task, payloads)
                """,
            },
            "RNG002",
        )
        assert findings == []

    def test_rng_outside_dispatch_clean(self):
        # Building an rng-bearing dict is fine when it never crosses the
        # process boundary.
        findings = findings_for(
            {
                "core/driver.py": """\
                from repro.sim.rng import RandomStream

                def local_state(seed):
                    return {"rng": RandomStream(seed, "local")}
                """,
            },
            "RNG002",
        )
        assert findings == []

    def test_noqa_suppresses(self):
        result = findings_for(
            {
                "core/driver.py": """\
                from repro.runner.pool import run_tasks

                def launch(task, rng):
                    payloads = [{"rng": rng}]  # repro: noqa RNG002
                    return run_tasks(task, payloads)
                """,
            }
        )
        assert [f for f in result.findings if f.rule == "RNG002"] == []
        assert result.suppressed >= 1


class TestSHM001:
    def test_mutated_module_global_flagged(self):
        findings = findings_for(
            {
                "core/state.py": """\
                CACHE = {}

                def remember(key, value):
                    CACHE[key] = value
                """,
            },
            "SHM001",
        )
        assert len(findings) == 1
        assert findings[0].line == 1
        assert "CACHE" in findings[0].message

    def test_lowercase_unmutated_container_flagged(self):
        findings = findings_for(
            {
                "core/state.py": """\
                registry = {}
                """,
            },
            "SHM001",
        )
        assert len(findings) == 1

    def test_constant_named_unmutated_clean(self):
        findings = findings_for(
            {
                "core/state.py": """\
                KNOWN_CODES = {"greylist", "nolist"}
                """,
            },
            "SHM001",
        )
        assert findings == []

    def test_final_annotated_clean(self):
        findings = findings_for(
            {
                "core/state.py": """\
                from typing import Final

                defaults: Final = {"retry": 300}
                """,
            },
            "SHM001",
        )
        assert findings == []

    def test_dunder_all_clean(self):
        findings = findings_for(
            {
                "core/state.py": """\
                __all__ = ["thing"]

                def thing():
                    pass
                """,
            },
            "SHM001",
        )
        assert findings == []

    def test_noqa_suppresses(self):
        result = findings_for(
            {
                "core/state.py": """\
                registry = {}  # repro: noqa SHM001 - populated once at import
                """,
            }
        )
        assert [f for f in result.findings if f.rule == "SHM001"] == []
        assert result.suppressed == 1


class TestASY001:
    def test_direct_sleep_flagged(self):
        findings = findings_for(
            {
                "policyd/server.py": """\
                import time

                async def handle(request):
                    time.sleep(1)
                """,
            },
            "ASY001",
        )
        assert len(findings) == 1
        assert findings[0].line == 4
        assert "handle" in findings[0].message

    def test_transitive_blocking_call_flagged(self):
        findings = findings_for(
            {
                "policyd/server.py": """\
                import sqlite3

                def load(path):
                    return sqlite3.connect(path)

                async def handle(request):
                    return load("triplets.db")
                """,
            },
            "ASY001",
        )
        assert len(findings) == 1
        assert findings[0].line == 4

    def test_async_callee_is_not_traversed(self):
        # An awaited async helper is audited as its own entry; the outer
        # coroutine must not double-report its sinks.
        findings = findings_for(
            {
                "policyd/server.py": """\
                import time

                async def inner():
                    time.sleep(1)

                async def outer():
                    await inner()
                """,
            },
            "ASY001",
        )
        assert len(findings) == 1
        assert "inner" in findings[0].message

    def test_asyncio_sleep_clean(self):
        findings = findings_for(
            {
                "policyd/server.py": """\
                import asyncio

                async def handle(request):
                    await asyncio.sleep(1)
                """,
            },
            "ASY001",
        )
        assert findings == []

    def test_sync_only_module_clean(self):
        findings = findings_for(
            {
                "core/util.py": """\
                import time

                def wait():
                    time.sleep(1)
                """,
            },
            "ASY001",
        )
        assert findings == []

    def test_noqa_suppresses(self):
        result = findings_for(
            {
                "policyd/server.py": """\
                import time

                async def handle(request):
                    time.sleep(0)  # repro: noqa ASY001 - yields immediately
                """,
            }
        )
        assert [f for f in result.findings if f.rule == "ASY001"] == []
        assert result.suppressed == 1


class TestCCH001:
    def test_unconditional_optional_key_flagged(self):
        findings = findings_for(
            {
                "core/driver.py": """\
                from repro.runner.pool import run_tasks

                def shard_task(payload):
                    engine = payload.get("engine", "object")
                    return engine

                def launch(engine):
                    payloads = [{"shard": 0, "engine": engine}]
                    return run_tasks(shard_task, payloads)
                """,
            },
            "CCH001",
        )
        assert len(findings) == 1
        assert findings[0].line == 8
        assert "engine" in findings[0].message

    def test_conditional_unpack_idiom_clean(self):
        findings = findings_for(
            {
                "core/driver.py": """\
                from repro.runner.pool import run_tasks

                def shard_task(payload):
                    engine = payload.get("engine", "object")
                    return engine

                def launch(engine):
                    payloads = [
                        {
                            "shard": 0,
                            **({"engine": engine} if engine != "object" else {}),
                        }
                    ]
                    return run_tasks(shard_task, payloads)
                """,
            },
            "CCH001",
        )
        assert findings == []

    def test_required_key_clean(self):
        # Keys the task reads via subscript (not .get) are required, not
        # optional; setting them unconditionally is correct.
        findings = findings_for(
            {
                "core/driver.py": """\
                from repro.runner.pool import run_tasks

                def shard_task(payload):
                    return payload["shard"]

                def launch():
                    return run_tasks(shard_task, [{"shard": 0}])
                """,
            },
            "CCH001",
        )
        assert findings == []

    def test_unguarded_subscript_assign_flagged(self):
        findings = findings_for(
            {
                "core/driver.py": """\
                from repro.runner.pool import run_tasks

                def shard_task(payload):
                    return payload.get("faults")

                def launch(faults):
                    payloads = [{"shard": 0}]
                    for payload in payloads:
                        payload["faults"] = faults
                    return run_tasks(shard_task, payloads)
                """,
            },
            "CCH001",
        )
        assert len(findings) == 1
        assert findings[0].line == 9

    def test_guarded_subscript_assign_clean(self):
        findings = findings_for(
            {
                "core/driver.py": """\
                from repro.runner.pool import run_tasks

                def shard_task(payload):
                    return payload.get("faults")

                def launch(faults):
                    payloads = [{"shard": 0}]
                    if faults is not None:
                        for payload in payloads:
                            payload["faults"] = faults
                    return run_tasks(shard_task, payloads)
                """,
            },
            "CCH001",
        )
        assert findings == []

    def test_noqa_suppresses(self):
        result = findings_for(
            {
                "core/driver.py": """\
                from repro.runner.pool import run_tasks

                def shard_task(payload):
                    return payload.get("engine", "object")

                def launch(engine):
                    payloads = [{"engine": engine}]  # repro: noqa CCH001
                    return run_tasks(shard_task, payloads)
                """,
            }
        )
        assert [f for f in result.findings if f.rule == "CCH001"] == []
        assert result.suppressed >= 1


class TestScoping:
    def test_test_modules_exempt(self):
        result = findings_for(
            {
                "tests/test_driver.py": """\
                import time

                registry = {}

                async def handle():
                    time.sleep(1)
                """,
            }
        )
        assert result.findings == []

    def test_cli_module_exempt_from_det001(self):
        findings = findings_for(
            {
                "core/adoption.py": """\
                from repro.cli import parse_and_run

                def run_adoption_experiment(config):
                    return parse_and_run(config)
                """,
                "cli.py": """\
                import time

                def parse_and_run(config):
                    return time.time()
                """,
            },
            "DET001",
        )
        assert findings == []
