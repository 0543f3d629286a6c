"""Project-specific static analysis (``repro lint``).

An AST-based lint engine enforcing the simulator's correctness
invariants — the ones the test suite cannot see because they only break
*future* code:

* ``power-cache-write`` — the incremental power-accounting caches of
  :mod:`repro.cluster.topology` stay correct only if every
  power-affecting mutation goes through the invalidation-aware
  setters.  Direct writes to the backing fields from outside the
  owning object silently corrupt cached wattage.
* ``durable-state-write`` — the sOA state snapshotted by the
  checkpoint/restore protocol (:mod:`repro.recovery.checkpoint`) is
  only faithful if every mutation goes through the owning object's
  accounting methods; cross-object writes to the durable backing
  fields persist state the control plane never computed.
* ``nondeterminism`` — all randomness must flow from an explicitly
  seeded :class:`numpy.random.Generator` and time from the simulated
  clock, never from the wall clock or global RNG state.
* ``unit-mismatch`` — GHz/MHz/watts/seconds live in plain floats;
  the only guard against unit mixing is the ``_ghz``/``_watts``/…
  naming convention, which this rule checks at call sites.
* ``handler-hygiene`` — no function shares a mutable default argument
  across calls.
* ``untyped-def`` — every function is fully annotated (the local
  equivalent of mypy's ``disallow_untyped_defs`` gate).

See DESIGN.md "Static analysis & enforced invariants" for the full
rationale and the pragma syntax (``# oclint: disable=<rule>``).
"""

from __future__ import annotations

from repro.analysis.config import (
    DEFAULT_DURABLE_FIELDS,
    DEFAULT_POWER_FIELDS,
    LintConfig,
    load_config,
)
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.engine import LintResult, lint_paths, lint_source
from repro.analysis.registry import Rule, all_rules, get_rule, register

__all__ = [
    "DEFAULT_DURABLE_FIELDS",
    "DEFAULT_POWER_FIELDS",
    "Diagnostic",
    "LintConfig",
    "LintResult",
    "Rule",
    "all_rules",
    "get_rule",
    "lint_paths",
    "lint_source",
    "load_config",
    "register",
]
