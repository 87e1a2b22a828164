"""reprolint — AST-based invariant checker for the repro codebase.

Proves, statically and in CI, the contracts the engine only documents:

* ``store-key``       — every ``TransientOptions`` field is declared
                        in ``KEYED_FIELDS`` and reaches the store key;
* ``silent-fallback`` — broad ``except Exception`` handlers re-raise,
                        count, or warn;
* ``env-knob``        — ``REPRO_*`` variables are read only through the
                        ``repro._knobs`` registry;
* ``nan-policy``      — no ``abs()`` over interval widths, no silent
                        isnan-then-default patching.

Usage: ``PYTHONPATH=src:tools python -m reprolint src/repro``.
Suppressions are inline, reasoned, and audited::

    risky()  # reprolint: rule-id(why this one is fine)

Stdlib-only by design: the linter never imports the code it analyses,
so it runs on hosts without numpy.
"""

from .core import (Finding, FileContext, Project, Rule, RunResult,
                   Waiver, all_rules, register, run)
from . import rules  # noqa: F401  — importing registers the built-ins

__all__ = ["Finding", "Waiver", "FileContext", "Project", "Rule",
           "RunResult", "all_rules", "register", "run"]
__version__ = "1.0"
