"""R3 ``silent-fallback``: broad excepts must leave a trace.

The repro engine deliberately degrades in a few places (a worker pool
that cannot fork runs inline) — but a degradation nobody can observe is
indistinguishable from a bug, and a ``except Exception: pass`` around
numerics can hide divergence from the paper's tables.  Every handler catching ``Exception``/``BaseException``
(or a bare ``except:``) must therefore do at least one of:

* re-``raise`` (possibly a translated error),
* increment a diagnostic counter (any augmented assignment), or
* emit a warning/log record (``warnings.warn``, ``log.warning`` …).

Anything else is a silent fallback and needs either a fix or an inline
waiver explaining why invisibility is acceptable.
"""

from __future__ import annotations

import ast

from ..core import Rule, register

_BROAD = ("Exception", "BaseException")
_LOG_ATTRS = ("warn", "warning", "error", "exception", "critical")


def _is_broad(handler: ast.ExceptHandler) -> bool:
    node = handler.type
    if node is None:  # bare except:
        return True
    types = node.elts if isinstance(node, ast.Tuple) else [node]
    for t in types:
        if isinstance(t, ast.Name) and t.id in _BROAD:
            return True
        if isinstance(t, ast.Attribute) and t.attr in _BROAD:
            return True
    return False


def _leaves_trace(handler: ast.ExceptHandler) -> bool:
    for stmt in handler.body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Raise, ast.AugAssign)):
                return True
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and \
                        func.attr in _LOG_ATTRS:
                    return True
                if isinstance(func, ast.Name) and func.id == "warn":
                    return True
    return False


@register
class SilentFallback(Rule):
    id = "silent-fallback"
    description = (
        "handlers catching Exception/BaseException must re-raise, bump a "
        "diagnostic counter, or emit a warning")

    def check_file(self, ctx, project):
        findings = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and _is_broad(node) \
                    and not _leaves_trace(node):
                findings.append(self.finding(
                    ctx, node.lineno,
                    "broad except swallows the failure invisibly; "
                    "re-raise, increment a diagnostics counter, or warn "
                    "(or waive with the reason the silence is safe)"))
        return findings
