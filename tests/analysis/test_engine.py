"""Engine-level tests: pragmas, rule selection, exit codes, CLI, config."""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    LintConfig,
    all_rules,
    lint_paths,
    lint_source,
    load_config,
)
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"

BAD_WRITE = "core._freq_ghz = 4.0\n"


class TestRegistry:
    def test_all_four_issue_rules_plus_typing_gate(self):
        assert set(all_rules()) >= {"power-cache-write", "nondeterminism",
                                    "unit-mismatch", "handler-hygiene",
                                    "untyped-def"}

    def test_rules_have_descriptions(self):
        for rule in all_rules().values():
            assert rule.rule_id and rule.description


class TestPragmas:
    def test_inline_disable_specific_rule(self):
        source = "core._freq_ghz = 4.0  # oclint: disable=power-cache-write\n"
        assert lint_source(source).diagnostics == []

    def test_inline_disable_all(self):
        source = "core._freq_ghz = 4.0  # oclint: disable\n"
        assert lint_source(source).diagnostics == []

    def test_disable_other_rule_does_not_suppress(self):
        source = "core._freq_ghz = 4.0  # oclint: disable=unit-mismatch\n"
        assert [d.rule_id for d in lint_source(source).diagnostics] == \
            ["power-cache-write"]

    def test_multiple_rules_in_one_pragma(self):
        source = ("import time\n"
                  "def f() -> float:\n"
                  "    t = time.time()  # oclint: disable=nondeterminism,unit-mismatch\n"
                  "    return t\n")
        assert lint_source(source).diagnostics == []

    def test_pragma_in_string_literal_is_inert(self):
        source = ('MESSAGE = "# oclint: disable=power-cache-write"\n'
                  "core._freq_ghz = 4.0\n")
        assert [d.rule_id for d in lint_source(source).diagnostics] == \
            ["power-cache-write"]


class TestSelection:
    def test_select_restricts(self):
        config = LintConfig(select=frozenset({"nondeterminism"}))
        assert lint_source(BAD_WRITE, config=config).diagnostics == []

    def test_ignore_excludes(self):
        config = LintConfig(ignore=frozenset({"power-cache-write"}))
        assert lint_source(BAD_WRITE, config=config).diagnostics == []


class TestExitCodes:
    def test_clean_is_zero(self):
        assert lint_source("X = 1\n").exit_code == 0

    def test_diagnostics_are_one(self):
        assert lint_source(BAD_WRITE).exit_code == 1

    def test_syntax_error_is_two(self):
        result = lint_source("def broken(:\n")
        assert result.exit_code == 2
        assert result.parse_errors == 1
        assert [d.rule_id for d in result.diagnostics] == ["syntax-error"]

    def test_directory_lint_counts_files(self):
        result = lint_paths([FIXTURES])
        assert result.files_checked == len(list(FIXTURES.glob("*.py")))
        assert result.exit_code == 1


class TestCli:
    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "power-cache-write" in out and "untyped-def" in out

    def test_unknown_rule_rejected(self, capsys):
        assert main(["lint", str(FIXTURES), "--select", "bogus"]) == 2
        assert "unknown rule" in capsys.readouterr().out

    def test_missing_path_rejected(self, capsys):
        assert main(["lint", "definitely/not/here.py"]) == 2
        assert "no such file" in capsys.readouterr().out

    def test_json_format(self, capsys):
        code = main(["lint", str(FIXTURES / "power_bad.py"),
                     "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_checked"] == 1
        assert payload["parse_errors"] == 0
        assert payload["exit_code"] == 1
        diagnostics = payload["diagnostics"]
        assert all(d["rule"] == "power-cache-write" for d in diagnostics)
        assert [d["line"] for d in diagnostics] == [6, 7, 11, 12]

    def test_json_envelope_clean_run(self, capsys, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("X = 1\n")
        assert main(["lint", str(clean), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"files_checked": 1, "parse_errors": 0,
                           "exit_code": 0, "diagnostics": []}

    def test_github_format(self, capsys):
        code = main(["lint", str(FIXTURES / "power_bad.py"),
                     "--format", "github"])
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        annotations = [l for l in lines if l.startswith("::error ")]
        assert len(annotations) == 4
        first = annotations[0]
        assert first.startswith("::error file=")
        assert "line=6," in first
        assert "title=power-cache-write" in first
        assert "::" in first[len("::error "):]  # property/message separator
        # Workflow-command payloads are single-line by construction.
        assert all("\n" not in a for a in annotations)

    def test_github_format_escapes_newlines_and_percent(self):
        from repro.analysis.diagnostics import Diagnostic
        diagnostic = Diagnostic(path="a,b.py", line=3, col=0,
                                rule_id="x", message="50% bad\nnext")
        rendered = diagnostic.format_github()
        assert "%25" in rendered and "%0A" in rendered
        assert "a%2Cb.py" in rendered
        assert "\n" not in rendered

    def test_list_rules_columns_aligned(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        lines = capsys.readouterr().out.splitlines()
        starts = {line.index(all_rules()[line.split()[0]].description[:20])
                  for line in lines}
        assert len(starts) == 1  # every description starts in the same column
        width = starts.pop()
        assert width > max(len(rule_id) for rule_id in all_rules())

    def test_select_flag(self, capsys):
        code = main(["lint", str(FIXTURES / "power_bad.py"),
                     "--select", "nondeterminism"])
        assert code == 0
        capsys.readouterr()

    def test_ignore_flag(self, capsys):
        code = main(["lint", str(FIXTURES / "power_bad.py"),
                     "--ignore", "power-cache-write"])
        assert code == 0
        capsys.readouterr()

    def test_lint_in_command_listing(self, capsys):
        assert main(["list"]) == 0
        assert "lint" in capsys.readouterr().out


class TestConfigLoading:
    def test_missing_pyproject_gives_defaults(self, tmp_path):
        config = load_config(tmp_path / "pyproject.toml")
        assert config == LintConfig()

    def test_oclint_table_merges(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            "[tool.oclint]\n"
            'ignore = ["untyped-def"]\n'
            'power-fields = ["_my_extra_watts"]\n')
        config = load_config(pyproject)
        assert "untyped-def" in config.ignore
        assert "_my_extra_watts" in config.power_fields
        assert "_freq_ghz" in config.power_fields  # defaults kept

    def test_malformed_table_rejected(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text("[tool.oclint]\nignore = 3\n")
        with pytest.raises(ValueError):
            load_config(pyproject)

    def test_purity_keys_merge_as_unions(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            "[tool.oclint]\n"
            'policy-base-classes = ["MyPolicyBase"]\n'
            'worker-entrypoints = ["my.module.worker"]\n')
        config = load_config(pyproject)
        assert "MyPolicyBase" in config.policy_base_classes
        assert "TracePolicy" in config.policy_base_classes  # default kept
        assert "my.module.worker" in config.worker_entrypoints
        assert "repro.experiments.parallel._run_job" in \
            config.worker_entrypoints  # default kept

    def test_repo_pyproject_names_parallel_entrypoints(self):
        repo_pyproject = Path(__file__).parents[2] / "pyproject.toml"
        config = load_config(repo_pyproject)
        # One job function per sweep that the pool primitive runs.
        assert config.worker_entrypoints == {
            "repro.experiments.parallel._run_job",
            "repro.experiments.cluster.run_environment_job",
            "repro.experiments.chaos._trial_job",
        }
