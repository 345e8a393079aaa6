"""``repro.lint`` — AST-based invariant linter for this repository.

Statically enforces the guarantees the reproduction's tests only
probe at runtime: determinism (D rules), executor/IPC safety
(X rules), and registry/docs sync (S rules).  Run it as
``python -m repro.lint`` or ``repro lint``; see ``docs/cli.md`` for
flags and ``docs/architecture.md`` for the rule catalog.
"""

from __future__ import annotations

from repro.lint import determinism, executor, sync
from repro.lint.engine import (
    AstRule,
    BaselineError,
    Finding,
    LintResult,
    ModuleSource,
    Project,
    ProjectRule,
    Rule,
    run_lint,
)

__all__ = [
    "AstRule",
    "BaselineError",
    "Finding",
    "LintResult",
    "ModuleSource",
    "Project",
    "ProjectRule",
    "Rule",
    "all_rules",
    "run_lint",
]


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, D then X then S."""
    return determinism.ALL + executor.ALL + sync.ALL
