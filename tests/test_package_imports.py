"""Packages do not re-export, and each run imports only what it uses.

Every package ``__init__.py`` is its docstring (plus ``__version__`` at
the root), so importing one module loads that module's own imports and
nothing else.  The analyzer packages under ``repro/analysis/lint/`` keep
their re-exports: those are the analyzer's API.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGE_ROOT = Path(repro.__file__).resolve().parent
LINT_ROOT = PACKAGE_ROOT / "analysis" / "lint"

INITS = sorted(
    path
    for path in PACKAGE_ROOT.rglob("__init__.py")
    if LINT_ROOT not in path.parents
)

#: The experiment layer and its substrates, none of which the policy
#: daemon calls.
DAEMON_EXCLUDES = (
    "repro.botnet",
    "repro.core",
    "repro.scan",
    "repro.dns",
    "repro.maillog",
    "repro.runner",
)


def _loaded_repro_modules(module: str):
    """The ``repro`` modules a fresh interpreter holds after ``module``."""
    code = (
        f"import sys\nimport {module}\n"
        "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'repro'))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(PACKAGE_ROOT.parent) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return result.stdout.split()


def _bindings(tree: ast.Module):
    """Imports, ``__all__`` and ``__getattr__`` anywhere in a module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield f"import on line {node.lineno}"
        elif isinstance(node, ast.Name) and node.id == "__all__":
            yield f"__all__ on line {node.lineno}"
        elif (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == "__getattr__"
        ):
            yield f"__getattr__ on line {node.lineno}"


def test_package_inits_hold_no_reexport():
    # The root and its 17 subpackages at least: a broken glob must not
    # pass vacuously.
    assert len(INITS) >= 18
    offenders = {}
    for init in INITS:
        tree = ast.parse(init.read_text(encoding="utf-8"))
        found = list(_bindings(tree))
        if found or not ast.get_docstring(tree):
            offenders[str(init.relative_to(PACKAGE_ROOT))] = found
    assert offenders == {}


def test_scheduler_import_stays_inside_the_kernel():
    loaded = _loaded_repro_modules("repro.sim.events")
    outside = [
        name
        for name in loaded
        if name != "repro" and name != "repro.sim"
        and not name.startswith("repro.sim.")
    ]
    assert outside == []


@pytest.mark.parametrize(
    "module",
    [
        "repro.cli",
        "repro.serve.server",
        "repro.serve.plugins",
        "repro.greylist.backends",
    ],
)
def test_daemon_modules_skip_the_experiment_layer(module):
    loaded = _loaded_repro_modules(module)
    assert module in loaded
    pulled_in = [
        name
        for name in loaded
        if any(
            name == package or name.startswith(package + ".")
            for package in DAEMON_EXCLUDES
        )
    ]
    assert pulled_in == []
