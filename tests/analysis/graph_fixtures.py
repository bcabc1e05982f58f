"""Build an analyzer :class:`Project` from in-memory fixture modules."""

import textwrap

from repro.analysis.lint.framework import context_from_source
from repro.analysis.lint.graph import Project


def project_from_sources(sources):
    """A project over ``{module_path: source}``, each source dedented."""
    contexts = []
    for module_path in sorted(sources):
        ctx, parse_finding = context_from_source(
            textwrap.dedent(sources[module_path]),
            module_path,
            is_tests=module_path.startswith("tests/"),
        )
        if parse_finding is not None:
            raise SyntaxError(
                f"fixture module {module_path}: {parse_finding.message}"
            )
        contexts.append(ctx)
    return Project(contexts)
