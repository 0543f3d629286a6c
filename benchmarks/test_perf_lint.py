"""Micro-benchmark: ``repro lint src`` wall-clock (ISSUE 7 satellite).

PR 7 added an interprocedural effect-inference pass (summaries + call
graph + fixpoint) and paid for it with the one-pass node index in
``ModuleContext``: rules that each re-walked every module tree now read
``ctx.nodes_of_type(...)`` from a single shared walk.  This benchmark
times the full lint of ``src/`` and the same run with the three effect
rules deselected (the seed rule set, which never triggers the lazy
``EffectAnalysis`` build), asserts the interprocedural pass stays a
bounded fraction of the run, and records both numbers so
``latest_results.json`` tracks lint wall-clock across PRs.

Both runs use the configuration ``repro lint src`` and CI load: the
built-in defaults merged with the repo's ``[tool.oclint]`` table (nine
hot-path modules, the extra power fields and worker entrypoints).

The CI gates are deliberately loose (shared runners are noisy); the
committed numbers are the acceptance reference: ~0.6 s full, ~1.2x
over the seed rule set for the 90-file tree.
"""

import dataclasses
import time
from pathlib import Path

from repro.analysis import LintConfig, lint_paths, load_config
from repro.analysis.registry import all_rules

REPO = Path(__file__).resolve().parents[1]
REPO_SRC = REPO / "src"
EFFECT_RULES = frozenset(
    {"purity-stateless-tick", "warning-hook-inert", "spawn-purity"})

#: Absolute ceiling for one full lint of src/ on a cold cache.  The
#: seed lint of the same tree sat well under this; a superlinear
#: regression in the fixpoint or the node index blows through it.
FULL_RUN_CEILING_S = 10.0
#: The effect pass may not more than triple the seed-rule wall-clock.
MAX_EFFECT_OVERHEAD = 3.0


def _best_of(n: int, config: LintConfig) -> tuple[float, int]:
    best = float("inf")
    for _ in range(n):
        start = time.perf_counter()
        result = lint_paths([REPO_SRC], config)
        best = min(best, time.perf_counter() - start)
        assert result.exit_code == 0
    return best, result.files_checked


def test_lint_wall_clock_and_effect_pass_overhead(record_result):
    seed_rules = frozenset(set(all_rules()) - EFFECT_RULES)
    assert EFFECT_RULES <= set(all_rules())

    config = load_config(REPO / "pyproject.toml")

    # Warm import/bytecode caches so both configs time the same work.
    lint_paths([REPO_SRC], config)

    full_s, files = _best_of(3, config)
    seed_s, _ = _best_of(3, dataclasses.replace(config, select=seed_rules))

    overhead = full_s / seed_s if seed_s else 1.0
    print(f"\nrepro lint src ({files} files): full {full_s:.3f} s, "
          f"seed rule set {seed_s:.3f} s "
          f"(effect-pass overhead {overhead:.2f}x)")

    assert full_s < FULL_RUN_CEILING_S
    assert overhead < MAX_EFFECT_OVERHEAD
    record_result("perf_lint",
                  files_checked=files,
                  full_run_s=full_s,
                  seed_rules_s=seed_s,
                  effect_pass_overhead_x=overhead)
