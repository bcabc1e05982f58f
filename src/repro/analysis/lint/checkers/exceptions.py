"""``EXC001`` — over-broad except blocks that swallow injected faults.

The fault-injection layer raises ``ServFail`` and ``DNSTimeout`` (both
``DNSError``) *on purpose*: the Figure 2 scans measure how the
measurement pipeline behaves under faults.  A ``except:`` or
``except Exception:`` that neither re-raises, logs, nor records a counter
makes an injected fault silently disappear — the experiment then reports
healthy numbers for a run that was anything but.

A broad handler is accepted when its body visibly accounts for the
exception: a ``raise``, a logging call, a counter increment, or a call
into an error-recording helper.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding, Severity
from ..framework import Checker, ModuleContext

#: Exception names considered over-broad for a swallowing handler.
BROAD_TYPES = frozenset(["Exception", "BaseException"])

#: Method/function names whose call counts as "the error was recorded".
_RECORDING_NAMES = frozenset(
    [
        "debug",
        "info",
        "warning",
        "warn",
        "error",
        "exception",
        "critical",
        "log",
    ]
)
_RECORDING_SUBSTRINGS = ("record", "count", "increment", "quarantine", "fail")


def _is_broad(handler: ast.ExceptHandler) -> bool:
    node = handler.type
    if node is None:
        return True
    names = [node] if not isinstance(node, ast.Tuple) else list(node.elts)
    for name in names:
        if isinstance(name, ast.Name) and name.id in BROAD_TYPES:
            return True
        if isinstance(name, ast.Attribute) and name.attr in BROAD_TYPES:
            return True
    return False


def _records_error(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.AugAssign):
            # ``self.errors += 1`` style counters.
            return True
        if isinstance(node, ast.Call):
            name = ""
            if isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            lowered = name.lower()
            if lowered in _RECORDING_NAMES:
                return True
            if any(sub in lowered for sub in _RECORDING_SUBSTRINGS):
                return True
    return False


class FaultSwallowingExcept(Checker):
    rule_id = "EXC001"
    severity = Severity.WARNING
    description = (
        "bare/broad except that silently swallows injected faults; "
        "narrow it, re-raise, or record the error"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _is_broad(node):
                continue
            if _records_error(node):
                continue
            caught = "bare except" if node.type is None else "broad except"
            yield self.finding(
                ctx,
                node,
                f"{caught} swallows injected ServFail/DNSTimeout "
                "(DNSError) faults without re-raising or recording them; "
                "narrow the types, re-raise, or count the event",
            )
