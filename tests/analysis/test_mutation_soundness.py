"""Mutation-tested soundness of the effect-inference rules.

Each test applies one textual mutation to a *real* source file — the
exact silent-corruption bugs the purity contracts exist to stop — and
asserts the lint produces exactly one diagnostic, from the right rule,
at the right file:line.  The unmutated files lint clean (asserted here
per-file; ``test_repo_clean.py`` covers the whole tree), so every
diagnostic below is caused by its mutation alone.
"""

from pathlib import Path

from repro.analysis import lint_source, load_config

REPO = Path(__file__).parents[2]
POLICIES = REPO / "src" / "repro" / "core" / "policies.py"
PARALLEL = REPO / "src" / "repro" / "experiments" / "parallel.py"
CLUSTER = REPO / "src" / "repro" / "experiments" / "cluster.py"
CONFIG = load_config(REPO / "pyproject.toml")


def lint_text(text: str, path: Path) -> list:
    result = lint_source(text, path=str(path), config=CONFIG)
    assert result.parse_errors == 0
    return result.diagnostics


def line_number(lines: list[str], needle: str, start: int = 0) -> int:
    """1-based line number of the first line containing ``needle``."""
    for offset, line in enumerate(lines[start:], start=start):
        if needle in line:
            return offset + 1
    raise AssertionError(f"{needle!r} not found")


class TestUnmutatedFilesAreClean:
    def test_policies_clean(self):
        assert lint_text(POLICIES.read_text(), POLICIES) == []

    def test_parallel_clean(self):
        assert lint_text(PARALLEL.read_text(), PARALLEL) == []

    def test_cluster_clean(self):
        assert lint_text(CLUSTER.read_text(), CLUSTER) == []


class TestDroppedWarningInertFlag:
    def test_one_diagnostic_at_the_hook_def(self):
        lines = POLICIES.read_text().splitlines()
        flag_index = line_number(lines, "warning_inert = False") - 1
        mutated_lines = lines[:flag_index] + lines[flag_index + 1:]
        diags = lint_text("\n".join(mutated_lines) + "\n", POLICIES)
        assert len(diags) == 1
        diagnostic = diags[0]
        assert diagnostic.rule_id == "warning-hook-inert"
        assert diagnostic.path == str(POLICIES)
        # SmartOClockPolicy's on_warning is the last override in the file.
        class_line = line_number(mutated_lines, "class SmartOClockPolicy")
        hook_line = line_number(mutated_lines, "def on_warning",
                                start=class_line)
        assert diagnostic.line == hook_line
        assert "SmartOClockPolicy" in diagnostic.message


class TestStatefulStatelessDecide:
    def test_direct_mutation_in_decide(self):
        lines = POLICIES.read_text().splitlines()
        class_line = line_number(lines, "class CentralOracle")
        decide_line = line_number(lines, "def decide", start=class_line)
        mutated_lines = (lines[:decide_line]
                         + ["        self._n += 1"]
                         + lines[decide_line:])
        diags = lint_text("\n".join(mutated_lines) + "\n", POLICIES)
        assert len(diags) == 1
        diagnostic = diags[0]
        assert diagnostic.rule_id == "purity-stateless-tick"
        assert diagnostic.line == decide_line + 1
        assert "CentralOracle" in diagnostic.message
        assert "self._n" in diagnostic.message

    def test_mutation_in_a_helper_decide_calls(self):
        # NoFeedback (tick_stateless = True) routes decide through
        # _decide_with; NoWarning/SmartOClockPolicy share the helper but
        # declare tick_stateless = False, so exactly one class flags.
        lines = POLICIES.read_text().splitlines()
        helper_line = line_number(lines, "def _decide_with")
        # The signature spans several lines; insert after it closes.
        body_start = helper_line
        while not lines[body_start - 1].rstrip().endswith(":"):
            body_start += 1
        mutated_lines = (lines[:body_start]
                         + ["        self._calls = 1"]
                         + lines[body_start:])
        diags = lint_text("\n".join(mutated_lines) + "\n", POLICIES)
        assert len(diags) == 1
        diagnostic = diags[0]
        assert diagnostic.rule_id == "purity-stateless-tick"
        assert diagnostic.line == body_start + 1
        assert "NoFeedback" in diagnostic.message
        assert "_decide_with" in diagnostic.message  # origin named


class TestWorkerGlobalRead:
    def test_one_diagnostic_at_the_read(self):
        lines = PARALLEL.read_text().splitlines()
        sentinel_line = line_number(lines, "_WORKER_RACK_CACHE:")
        worker_line = line_number(lines, "def _run_job")
        assert sentinel_line < worker_line
        mutated_lines = list(lines)
        mutated_lines.insert(sentinel_line, "_RACK_LIMITS: dict = {}")
        mutated_lines.insert(worker_line + 1, "    limits = _RACK_LIMITS")
        diags = lint_text("\n".join(mutated_lines) + "\n", PARALLEL)
        assert len(diags) == 1
        diagnostic = diags[0]
        assert diagnostic.rule_id == "spawn-purity"
        assert diagnostic.line == worker_line + 2
        assert "_RACK_LIMITS" in diagnostic.message
        assert "_run_job" in diagnostic.message

    def test_sentinel_reads_stay_sanctioned(self):
        # The worker-local None-sentinel reads the mutation sits next to
        # are untouched: removing the mutation removes the diagnostic.
        assert lint_text(PARALLEL.read_text(), PARALLEL) == []


class TestClusterWorkerGlobalRead:
    def test_one_diagnostic_naming_the_cluster_worker(self):
        # Every matched scenario's runs go through one pool worker, so a
        # mutable global read anywhere under run_environment must be
        # charged to it.
        mutated_lines = CLUSTER.read_text().splitlines()
        mutated_lines.insert(line_number(mutated_lines, "GOA_CYCLE_S ="),
                             "_ENV_CACHE: dict = {}")
        body_start = line_number(mutated_lines, "def run_environment(")
        # The signature spans several lines; insert after it closes.
        while not mutated_lines[body_start - 1].rstrip().endswith(":"):
            body_start += 1
        mutated_lines.insert(body_start, "    cache = _ENV_CACHE")
        diags = lint_text("\n".join(mutated_lines) + "\n", CLUSTER)
        assert len(diags) == 1
        diagnostic = diags[0]
        assert diagnostic.rule_id == "spawn-purity"
        assert diagnostic.line == body_start + 1
        assert "_ENV_CACHE" in diagnostic.message
        assert "run_environment_job" in diagnostic.message
