"""``repro.lint`` — an AST-based invariant analyzer for this repo.

Stdlib-only static analysis enforcing the project's cross-cutting
invariants: determinism of the simulator core, the frozen differential
oracle, the event-kind registry, lock discipline, and exception policy.
Run it as ``repro-ft lint``; it also runs inside the tier-1 suite.
"""

from .framework import (ERROR, WARNING, Finding, LintContext, Rule,
                        RULE_REGISTRY, SourceFile, parse_suppressions,
                        register_rule)

# Importing the rule modules populates RULE_REGISTRY.
from . import determinism as _determinism      # noqa: F401
from . import oracle as _oracle                # noqa: F401
from . import wire as _wire                    # noqa: F401
from . import locks as _locks                  # noqa: F401
from . import policy as _policy                # noqa: F401

from .runner import (DEFAULT_BASELINE, DEFAULT_ROOT, LintReport,
                     build_context, collect_files, load_baseline,
                     run_lint, select_rules, write_baseline)

__all__ = [
    "ERROR", "WARNING", "Finding", "LintContext", "LintReport",
    "Rule", "RULE_REGISTRY", "SourceFile", "DEFAULT_BASELINE",
    "DEFAULT_ROOT", "build_context", "collect_files",
    "load_baseline", "parse_suppressions", "register_rule",
    "run_lint", "select_rules", "write_baseline",
]
