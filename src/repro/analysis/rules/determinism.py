"""Rule ``nondeterminism``: all randomness seeded, no wall clock.

The reproduction's convention (set by :mod:`repro.traces.synthetic`):
every source of randomness is an explicitly seeded
``np.random.Generator`` threaded through as an ``rng`` parameter, and
time comes from the simulated clock (the platform's tick time or the
trace's sample times).  The rule applies to every module.  Wall-clock
reads (``time.time()``, ``datetime.now()``), the stdlib ``random``
module, numpy's *global* RNG (``np.random.random()`` …), and unseeded
``np.random.default_rng()`` all make runs irreproducible — which
invalidates the cache-vs-recompute equivalence tests and every
benchmark comparison.

The rule resolves names through the module's import table, so a
``now`` parameter or a local function named ``time`` is not confused
with the stdlib modules.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.config import LintConfig
from repro.analysis.context import ModuleContext, ProjectIndex
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.registry import Rule, register

__all__ = ["NondeterminismRule", "classify_nondeterminism"]

_WALL_CLOCK_FUNCS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time",
})
_DATETIME_CLASSES = frozenset({"datetime", "date"})
_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})
# np.random attributes that are fine to *call*: constructing an
# explicitly seeded generator, not drawing from global state.
_NP_RANDOM_ALLOWED = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})


@register
class NondeterminismRule(Rule):
    rule_id = "nondeterminism"
    description = ("wall-clock or globally-seeded randomness breaks "
                   "reproducibility; thread a seeded np.random.Generator")

    def check(self, ctx: ModuleContext, index: ProjectIndex,
              config: LintConfig) -> Iterator[Diagnostic]:
        aliases = ctx.module_aliases
        imported = ctx.imported_names
        for node in ctx.nodes_of_type(ast.Call):
            assert isinstance(node, ast.Call)
            message = classify_nondeterminism(node, aliases, imported)
            if message is not None:
                yield self.diagnostic(ctx, node.lineno, node.col_offset,
                                      message)


def classify_nondeterminism(
        call: ast.Call, aliases: dict[str, str],
        imported: dict[str, tuple[str, str]]) -> Optional[str]:
    """Message describing why ``call`` is nondeterministic, or None.

    Module-level so the effect-inference layer
    (:mod:`repro.analysis.effects.summary`) can reuse the exact same
    classification when tagging ``rng`` effects.
    """
    func = call.func
    # Bare names bound by from-imports: `from time import time`, …
    if isinstance(func, ast.Name):
        origin = imported.get(func.id)
        if origin is None:
            return None
        module, original = origin
        if module == "time" and original in _WALL_CLOCK_FUNCS:
            return (f"wall-clock call time.{original}(); time must "
                    f"come from the simulated clock")
        if module == "random":
            return (f"stdlib random.{original}() uses hidden global "
                    f"state; use a seeded np.random.Generator")
        if module == "datetime" and original in _DATETIME_CLASSES:
            return None  # flagged at the .now() call site below
        if module in ("numpy.random", "np.random") and \
                original == "default_rng" and not call.args and \
                not call.keywords:
            return ("unseeded np.random.default_rng(); pass an explicit "
                    "seed or accept an rng parameter")
        return None
    if not isinstance(func, ast.Attribute):
        return None
    base = func.value
    # module_alias.func(...) forms.
    if isinstance(base, ast.Name):
        module = aliases.get(base.id)
        if module == "time" and func.attr in _WALL_CLOCK_FUNCS:
            return (f"wall-clock call time.{func.attr}(); time must "
                    f"come from the simulated clock")
        if module == "random":
            return (f"stdlib random.{func.attr}() uses hidden global "
                    f"state; use a seeded np.random.Generator")
        # `from datetime import datetime` → datetime.now()
        origin = imported.get(base.id)
        if origin is not None and origin[0] == "datetime" and \
                origin[1] in _DATETIME_CLASSES and \
                func.attr in _DATETIME_FUNCS:
            return (f"wall-clock call {origin[1]}.{func.attr}(); "
                    f"time must come from the simulated clock")
    # import datetime → datetime.datetime.now()
    if isinstance(base, ast.Attribute) and \
            isinstance(base.value, ast.Name) and \
            aliases.get(base.value.id) == "datetime" and \
            base.attr in _DATETIME_CLASSES and \
            func.attr in _DATETIME_FUNCS:
        return (f"wall-clock call datetime.{base.attr}.{func.attr}(); "
                f"time must come from the simulated clock")
    # np.random.<attr>(...) — numpy global RNG or default_rng().
    if isinstance(base, ast.Attribute) and \
            isinstance(base.value, ast.Name) and \
            aliases.get(base.value.id) == "numpy" and \
            base.attr == "random":
        if func.attr == "default_rng":
            if not call.args and not call.keywords:
                return ("unseeded np.random.default_rng(); pass an "
                        "explicit seed or accept an rng parameter")
            return None
        if func.attr not in _NP_RANDOM_ALLOWED:
            return (f"np.random.{func.attr}() draws from numpy's global "
                    f"RNG; use a seeded np.random.Generator")
    return None
