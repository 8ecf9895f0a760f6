"""Broad-except lint: no silent swallowing in storage and service code.

A ``try``/``except Exception`` (or a bare ``except:``) around storage
or service code is exactly how corruption spreads: an injected
:class:`~repro.faults.errors.TornWriteError`, a checksum failure, or a
contract violation gets eaten, the caller proceeds on damaged state,
and the failure surfaces far from its cause — or never.  The
robustness layer depends on these exceptions propagating to the retry
and recovery machinery that knows what to do with them.

This pass flags ``except Exception`` / ``except BaseException`` / bare
``except`` handlers in ``repro.storage.*`` and ``repro.service.*``
(both as tuple elements too).  Genuinely-deliberate catch-alls, such
as the HTTP front end's last-resort JSON-500 mapper, carry an explicit
``# repro-check: allow-broad-except`` pragma, making every broad
handler in the failure-critical layers a reviewed decision.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence

from .base import ModuleInfo, Violation

CHECK_NAME = "broad-except"
PRAGMA_NAME = "allow-broad-except"

#: Second dotted segment of the module names this pass patrols
#: (``repro.storage.pages`` → ``storage``).  Other layers may have
#: legitimate report-and-continue handlers; the failure-critical
#: layers must not.
_PATROLLED_SEGMENTS = frozenset({"storage", "service"})

_BROAD_NAMES = frozenset({"Exception", "BaseException"})


def _patrolled(module: ModuleInfo) -> bool:
    parts = module.name.split(".")
    return len(parts) >= 2 and parts[1] in _PATROLLED_SEGMENTS


def _broad_name(expr: Optional[ast.expr]) -> Optional[str]:
    """The broad exception name an ``except`` clause catches, if any."""
    if expr is None:
        return "(bare except)"
    if isinstance(expr, ast.Name) and expr.id in _BROAD_NAMES:
        return expr.id
    if isinstance(expr, ast.Tuple):
        for element in expr.elts:
            name = _broad_name(element)
            if name is not None:
                return name
    return None


def run(modules: Sequence[ModuleInfo]) -> List[Violation]:
    violations: List[Violation] = []
    for module in modules:
        if not _patrolled(module):
            continue
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            name = _broad_name(node.type)
            if name is None:
                continue
            if module.line_has_pragma(node.lineno, PRAGMA_NAME):
                continue
            violations.append(
                Violation(
                    str(module.path),
                    node.lineno,
                    CHECK_NAME,
                    f"broad handler 'except {name}' in a failure-critical "
                    "layer; catch the specific exception so injected and "
                    "real I/O failures reach the retry/recovery machinery, "
                    "or mark a deliberate last-resort handler with "
                    "'# repro-check: allow-broad-except'",
                )
            )
    return violations
