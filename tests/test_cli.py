"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_defaults(self):
        args = build_parser().parse_args(["fig5"])
        assert args.racks == 30
        assert args.seed == 1

    @pytest.mark.parametrize("command", ["chaos", "recovery", "faults",
                                         "oversub"])
    def test_sweep_commands_take_workers(self, command):
        # Every sweep/matched-run command shards over the spawn pool;
        # the serial default keeps single runs pool-free.
        assert build_parser().parse_args([command]).workers == 1
        args = build_parser().parse_args([command, "--workers", "4"])
        assert args.workers == 4


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "cluster" in out

    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        assert "Service A" in capsys.readouterr().out

    def test_fig5_small(self, capsys):
        assert main(["fig5", "--racks", "4"]) == 0
        out = capsys.readouterr().out
        assert "P99" in out

    def test_fig7(self, capsys):
        assert main(["fig7", "--days", "2"]) == 0
        assert "days of wear" in capsys.readouterr().out

    def test_fig16_fig17(self, capsys):
        assert main(["fig16"]) == 0
        assert main(["fig17"]) == 0
        out = capsys.readouterr().out
        assert "%" in out

    def test_fig15_small(self, capsys):
        assert main(["fig15", "--racks", "2"]) == 0
        assert "DailyMed" in capsys.readouterr().out

    def test_table1_small_serial(self, capsys):
        assert main(["table1", "--racks", "1", "--weeks", "2",
                     "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "High-Power" in out and "SmartOClock" in out


class TestNumericValidation:
    """Out-of-domain numeric args exit with argparse's usage error
    (code 2), not a traceback from deep inside trace generation or
    pool setup."""

    @pytest.mark.parametrize("argv", [
        ["table1", "--racks", "0"],
        ["table1", "--weeks", "1"],
        ["table1", "--workers", "0"],
        ["table1", "--max-inflight", "0"],
        ["table1", "--seed", "-3"],
        ["table1", "--racks", "many"],
        ["fig5", "--racks", "0"],
        ["fig5", "--seed", "-1"],
        ["fig15", "--racks", "-2"],
        ["fig15", "--seed", "-1"],
        ["chaos", "--workers", "0"],
        ["chaos", "--trials", "0"],
        ["recovery", "--workers", "-1"],
        ["faults", "--workers", "0"],
        ["oversub", "--workers", "0"],
    ])
    def test_rejected_with_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["faults", "--drop-prob", "1.5"], "message_drop_prob"),
        (["cluster", "--duration", "-5"], "duration"),
        (["recovery", "--duration", "-1"], "too short"),
        (["fig7", "--days", "0"], "days must be >= 1"),
        (["cluster", "--duration", "nan"], "must be finite"),
        (["cluster", "--duration", "inf"], "must be finite"),
        (["faults", "--duration", "nan"], "must be finite"),
        (["faults", "--duration", "inf"], "must be finite"),
        (["recovery", "--duration", "nan"], "must be finite"),
        (["recovery", "--duration", "inf"], "must be finite"),
    ])
    def test_config_rejections_are_usage_errors(self, argv, message,
                                                capsys):
        # The experiment config's own check, raised at the boundary: exit
        # 2 with its message, before anything runs.
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and message in err

    def test_valid_boundaries_accepted(self):
        args = build_parser().parse_args(
            ["table1", "--racks", "1", "--weeks", "2", "--workers", "1",
             "--max-inflight", "1", "--seed", "0"])
        assert (args.racks, args.weeks, args.workers,
                args.max_inflight, args.seed) == (1, 2, 1, 1, 0)
