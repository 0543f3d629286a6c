"""Lint configuration: rule selection plus per-rule knobs.

Defaults encode this repository's invariants; a ``[tool.oclint]`` table
in ``pyproject.toml`` can extend them (e.g. new power-affecting backing
fields as the topology grows) and the CLI ``--select``/``--ignore``
flags narrow a single run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

__all__ = [
    "DEFAULT_DURABLE_FIELDS",
    "DEFAULT_HOT_PATH_MODULES",
    "DEFAULT_POLICY_BASE_CLASSES",
    "DEFAULT_POWER_FIELDS",
    "DEFAULT_WORKER_ENTRYPOINTS",
    "LintConfig",
    "load_config",
]

# Backing fields of the incremental power-accounting caches
# (repro.cluster.topology).  A write to any of these from outside the
# owning object bypasses the delta-updating setters and silently
# corrupts cached wattage.
DEFAULT_POWER_FIELDS = frozenset({
    "_freq_ghz",
    "_vm_id",
    "_utilization_override",
    "_utilization",
    "_background_watts",
    "_dynamic_watts",
    "_power_watts",
    "_total_watts",
})

# Backing fields of the sOA's *durable* (checkpointed) state: wear
# counters, epoch budgets, template history, the grant ledger and the
# last budget assignment (repro.recovery.checkpoint).  A write from
# outside the owning object bypasses the accounting methods, so the
# next checkpoint persists state the control plane never computed.
DEFAULT_DURABLE_FIELDS = frozenset({
    "_grants",
    "_assignment",
    "_assignment_received_at",
    "_times",
    "_values",
    "_template",
    "_epoch_index",
    "_carryover",
    "_consumed",
    "_reserved",
    "_elapsed_seconds",
    "_busy_seconds",
    "_overclock_seconds",
    "_wear_seconds",
})

# Module path suffixes tagged *hot path*: per-tick inner loops whose
# throughput the vectorized fast path depends on.  The
# tick-loop-allocation rule flags per-iteration NumPy allocations there.
DEFAULT_HOT_PATH_MODULES = ("experiments/largescale.py",)

# Class names whose subclasses carry the fast-path purity contract
# (tick_stateless / warning_inert).  Matching is by name against the
# approximate MRO, so a fixture's local ``TracePolicy`` stub counts.
DEFAULT_POLICY_BASE_CLASSES = frozenset({"TracePolicy"})

# Functions executed inside pool workers under the spawn start method.
# The seed-sharded contract (rack i is a pure function of
# ``(fleet_seed, i)``) requires them to touch no mutable module globals
# beyond the sanctioned worker-local None-sentinels.  Dotted specs match
# ``module.qualname``; bare names match that qualname in any module.
DEFAULT_WORKER_ENTRYPOINTS = frozenset({
    "repro.experiments.parallel._run_job",
})


@dataclass(frozen=True)
class LintConfig:
    """Engine-wide configuration passed to every rule.

    ``select`` of ``None`` means "all registered rules"; ``ignore`` is
    subtracted afterwards.
    """

    select: Optional[frozenset[str]] = None
    ignore: frozenset[str] = frozenset()
    power_fields: frozenset[str] = DEFAULT_POWER_FIELDS
    durable_fields: frozenset[str] = DEFAULT_DURABLE_FIELDS
    hot_path_modules: tuple[str, ...] = DEFAULT_HOT_PATH_MODULES
    policy_base_classes: frozenset[str] = DEFAULT_POLICY_BASE_CLASSES
    worker_entrypoints: frozenset[str] = DEFAULT_WORKER_ENTRYPOINTS

    def enabled(self, rule_id: str) -> bool:
        """True when ``rule_id`` should run under this configuration."""
        if rule_id in self.ignore:
            return False
        return self.select is None or rule_id in self.select


def _as_str_tuple(value: object, key: str) -> tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not all(
            isinstance(item, str) for item in value):
        raise ValueError(f"[tool.oclint] {key} must be a list of strings")
    return tuple(value)


def load_config(pyproject: Optional[Path] = None,
                base: Optional[LintConfig] = None) -> LintConfig:
    """Build a :class:`LintConfig`, merging ``[tool.oclint]`` if present.

    Missing file, missing table, or an interpreter without ``tomllib``
    (Python 3.10) all fall back to ``base``/defaults — the lint gate
    must never fail because configuration is absent.
    """
    config = base if base is not None else LintConfig()
    if pyproject is None or not pyproject.is_file():
        return config
    try:
        import tomllib
    except ImportError:  # Python 3.10: stdlib tomllib unavailable.
        return config
    try:
        table = tomllib.loads(pyproject.read_text())
    except (OSError, tomllib.TOMLDecodeError):
        return config
    section = table.get("tool", {}).get("oclint", {})
    if not isinstance(section, dict) or not section:
        return config
    updates: dict[str, object] = {}
    if "select" in section:
        updates["select"] = frozenset(_as_str_tuple(section["select"], "select"))
    if "ignore" in section:
        updates["ignore"] = frozenset(_as_str_tuple(section["ignore"], "ignore"))
    if "power-fields" in section:
        updates["power_fields"] = config.power_fields | frozenset(
            _as_str_tuple(section["power-fields"], "power-fields"))
    if "durable-fields" in section:
        updates["durable_fields"] = config.durable_fields | frozenset(
            _as_str_tuple(section["durable-fields"], "durable-fields"))
    if "hot-path-modules" in section:
        updates["hot_path_modules"] = _as_str_tuple(
            section["hot-path-modules"], "hot-path-modules")
    if "policy-base-classes" in section:
        updates["policy_base_classes"] = config.policy_base_classes | \
            frozenset(_as_str_tuple(section["policy-base-classes"],
                                    "policy-base-classes"))
    if "worker-entrypoints" in section:
        updates["worker_entrypoints"] = config.worker_entrypoints | \
            frozenset(_as_str_tuple(section["worker-entrypoints"],
                                    "worker-entrypoints"))
    return dataclasses.replace(config, **updates)  # type: ignore[arg-type]
