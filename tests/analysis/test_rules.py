"""Fixture-based tests: every rule fires on its known-bad fixture at the
expected file:line and stays silent on the known-good one."""

from pathlib import Path

import pytest

from repro.analysis import LintConfig, lint_paths, lint_source

FIXTURES = Path(__file__).parent / "fixtures"


def lint_fixture(name: str, **config_kwargs: object) -> list:
    result = lint_paths([FIXTURES / name], LintConfig(**config_kwargs))
    assert result.parse_errors == 0
    return result.diagnostics


def rule_lines(diagnostics: list, rule_id: str) -> list[int]:
    return [d.line for d in diagnostics if d.rule_id == rule_id]


class TestPowerCacheWrite:
    def test_bad_fixture_exact_lines(self):
        diags = lint_fixture("power_bad.py")
        assert rule_lines(diags, "power-cache-write") == [6, 7, 11, 12]
        fields = [d.message.split("'")[1] for d in diags
                  if d.rule_id == "power-cache-write"]
        assert fields == ["_freq_ghz", "_dynamic_watts", "_utilization",
                          "_background_watts"]

    def test_good_fixture_clean(self):
        assert rule_lines(lint_fixture("power_good.py"),
                          "power-cache-write") == []

    def test_extra_fields_via_config(self):
        source = "obj._my_cache_watts = 3.0\n"
        config = LintConfig(
            power_fields=frozenset({"_my_cache_watts"}),
            select=frozenset({"power-cache-write"}))
        result = lint_source(source, config=config)
        assert [d.rule_id for d in result.diagnostics] == ["power-cache-write"]


class TestDurableStateWrite:
    def test_bad_fixture_exact_lines(self):
        diags = lint_fixture("durable_bad.py")
        assert rule_lines(diags, "durable-state-write") == [6, 7, 11, 12, 13]
        fields = [d.message.split("'")[1] for d in diags
                  if d.rule_id == "durable-state-write"]
        assert fields == ["_wear_seconds", "_consumed", "_assignment",
                          "_times", "_grants"]

    def test_good_fixture_clean(self):
        assert rule_lines(lint_fixture("durable_good.py"),
                          "durable-state-write") == []

    def test_extra_fields_via_config(self):
        source = "obj._my_ledger = {}\n"
        config = LintConfig(
            durable_fields=frozenset({"_my_ledger"}),
            select=frozenset({"durable-state-write"}))
        result = lint_source(source, config=config)
        assert [d.rule_id for d in result.diagnostics] == \
            ["durable-state-write"]

    def test_pragma_silences(self):
        source = ("obj._grants = {}  "
                  "# oclint: disable=durable-state-write\n")
        config = LintConfig(select=frozenset({"durable-state-write"}))
        assert lint_source(source, config=config).diagnostics == []


class TestNondeterminism:
    def test_bad_fixture_exact_lines(self):
        diags = lint_fixture("determinism_bad.py")
        assert rule_lines(diags, "nondeterminism") == [11, 12, 13, 14, 15]

    def test_good_fixture_clean(self):
        assert rule_lines(lint_fixture("determinism_good.py"),
                          "nondeterminism") == []

    def test_local_time_function_not_confused(self):
        source = ("def time() -> float:\n"
                  "    return 0.0\n"
                  "def use() -> float:\n"
                  "    return time()\n")
        result = lint_source(
            source, config=LintConfig(select=frozenset({"nondeterminism"})))
        assert result.diagnostics == []


class TestUnitMismatch:
    def test_bad_fixture_lines_and_units(self):
        diags = [d for d in lint_fixture("units_bad.py")
                 if d.rule_id == "unit-mismatch"]
        assert [d.line for d in diags] == [9, 9, 10, 11]
        assert "(MHz)" in diags[0].message and "(GHz)" in diags[0].message
        assert "(W)" in diags[1].message and "(s)" in diags[1].message
        assert "(ms)" in diags[3].message

    def test_good_fixture_clean(self):
        assert rule_lines(lint_fixture("units_good.py"), "unit-mismatch") == []

    def test_keyword_check_needs_no_signature(self):
        # The callee is unknown; keyword names still carry the units.
        source = "external_call(freq_ghz=speed_mhz)\n"
        result = lint_source(
            source, config=LintConfig(select=frozenset({"unit-mismatch"})))
        assert [d.rule_id for d in result.diagnostics] == ["unit-mismatch"]


class TestHandlerHygiene:
    def test_bad_fixture_exact_lines(self):
        diags = lint_fixture("handlers_bad.py")
        assert rule_lines(diags, "handler-hygiene") == [4]

    def test_good_fixture_clean(self):
        assert rule_lines(lint_fixture("handlers_good.py"),
                          "handler-hygiene") == []


class TestUntypedDef:
    def test_bad_fixture_exact_lines(self):
        diags = lint_fixture("untyped_bad.py")
        assert rule_lines(diags, "untyped-def") == [4, 8, 13]

    def test_good_fixture_clean(self):
        assert lint_fixture("untyped_good.py") == []

    def test_self_and_cls_exempt(self):
        source = ("class C:\n"
                  "    def m(self) -> None: ...\n"
                  "    @classmethod\n"
                  "    def f(cls) -> None: ...\n")
        result = lint_source(
            source, config=LintConfig(select=frozenset({"untyped-def"})))
        assert result.diagnostics == []


class TestTickLoopAllocation:
    def test_bad_fixture_exact_lines(self):
        diags = lint_fixture("tickloop_bad.py",
                             hot_path_modules=("tickloop_bad.py",))
        assert rule_lines(diags, "tick-loop-allocation") == [10, 11, 12, 16]
        names = [d.message.split("(")[0].split("np.")[1]
                 for d in diags if d.rule_id == "tick-loop-allocation"]
        assert names == ["ones", "asarray", "zeros", "stack"]

    def test_good_fixture_clean(self):
        diags = lint_fixture("tickloop_good.py",
                             hot_path_modules=("tickloop_good.py",))
        assert rule_lines(diags, "tick-loop-allocation") == []

    def test_untagged_module_exempt(self):
        # Same bad code outside a hot-path module: no diagnostics.
        diags = lint_fixture("tickloop_bad.py",
                             hot_path_modules=("experiments/largescale.py",))
        assert rule_lines(diags, "tick-loop-allocation") == []

    def test_allocation_outside_loop_clean(self):
        source = ("import numpy as np\n"
                  "buf = np.zeros(4)\n"
                  "for i in range(3):\n"
                  "    np.copyto(buf, float(i))\n")
        config = LintConfig(select=frozenset({"tick-loop-allocation"}),
                            hot_path_modules=("hot.py",))
        result = lint_source(source, path="src/repro/hot.py", config=config)
        assert result.diagnostics == []


class TestBadFixturesExitNonzero:
    """Acceptance: ``repro lint`` exits non-zero on every bad fixture and
    0 on every good one."""

    @pytest.mark.parametrize("rule", ["power", "determinism", "units",
                                      "handlers", "untyped"])
    def test_bad_vs_good(self, rule):
        from repro.cli import main
        assert main(["lint", str(FIXTURES / f"{rule}_bad.py")]) == 1
        assert main(["lint", str(FIXTURES / f"{rule}_good.py")]) == 0
