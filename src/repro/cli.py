"""Command-line interface: regenerate any of the paper's experiments.

Usage::

    python -m repro list
    python -m repro fig5 --racks 60
    python -m repro table1 --racks 4 --weeks 2
    python -m repro cluster --duration 3600
    python -m repro fig15

Each subcommand prints the same series/rows its benchmark counterpart
reports (the benchmarks add assertions and timing on top).

``repro lint`` is different in kind: it runs the project-specific
static-analysis rules (see :mod:`repro.analysis`) over a source tree
and exits non-zero on violations.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Any, Callable, Optional, Protocol, Sequence, Union

import numpy as np

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------------
# Argument validation: reject out-of-domain numeric values at the
# argparse layer (exit code 2 + usage message) instead of letting them
# surface as tracebacks from deep inside trace generation or pool setup.
# ---------------------------------------------------------------------------

def _int_at_least(minimum: int, what: str) -> Callable[[str], int]:
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{what} must be an integer, got {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"{what} must be >= {minimum}, got {value}")
        return value
    parse.__name__ = what  # argparse uses this in "invalid ... value"
    return parse


_nonnegative_seed = _int_at_least(0, "seed")
_racks_count = _int_at_least(1, "racks")
_weeks_count = _int_at_least(2, "weeks")  # history + evaluation week
_workers_count = _int_at_least(1, "workers")
_inflight_count = _int_at_least(1, "max-inflight")
_trials_count = _int_at_least(1, "trials")
_days_count = _int_at_least(1, "days")


# ---------------------------------------------------------------------------
# Options: ``(flags, add_argument keywords)`` pairs.  An option several
# commands share is built by one helper, so it is declared once.
# ---------------------------------------------------------------------------

_Option = tuple[tuple[str, ...], dict[str, Any]]


def _option(*flags: str, **kwargs: Any) -> _Option:
    return flags, kwargs


_SEED = _option("--seed", type=_nonnegative_seed, default=1)
_DURATION = _option("--duration", type=float, default=3600.0,
                    help="simulated seconds")
_JSON = _option("--json", action="store_true",
                help="emit canonical JSON (CI diffs repeats)")


def _racks(default: int, help: Optional[str] = None) -> _Option:
    return _option("--racks", type=_racks_count, default=default, help=help)


def _workers(sweep: str, default: Optional[int] = 1) -> _Option:
    shown = "usable CPUs" if default is None else default
    return _option("--workers", type=_workers_count, default=default,
                   metavar="N",
                   help=f"process-pool size for {sweep} (default {shown}; "
                        "1 = serial, byte-identical output either way)")


class _Verdict(Protocol):
    """An experiment result that says whether the claim it tests held."""

    @property
    def ok(self) -> bool: ...


@dataclass(frozen=True)
class _Command:
    """One subcommand: handler, help text, and argument wiring.

    ``options`` are the command's own arguments, in order; a
    ``configure`` hook lets a command own its parser entirely.  A
    ``config`` hook builds the command's experiment config from the
    parsed arguments before the handler runs (as ``args.config``), so a
    value the config rejects is a usage error with the config's message.
    A handler returns an exit code, or the result of an experiment that
    checks a claim (exit 1 when the claim failed).
    """

    func: Callable[[argparse.Namespace], Union[int, _Verdict]]
    help: str
    options: tuple[_Option, ...] = (_SEED,)
    configure: Optional[Callable[[argparse.ArgumentParser], None]] = None
    config: Optional[Callable[[argparse.Namespace], object]] = None


def _cmd_list(args: argparse.Namespace) -> int:
    print("available commands:")
    for name, command in sorted(_COMMANDS.items()):
        print(f"  {name:<10} {command.help}")
    return 0


def _cmd_fig1(args: argparse.Namespace) -> int:
    from repro.experiments.characterization import fig1_load_patterns
    patterns = fig1_load_patterns()
    for name, (hours, levels) in patterns.items():
        hourly = [float(np.mean(levels[(hours >= h) & (hours < h + 1)]))
                  for h in range(24)]
        print(f"{name}: " + " ".join(f"{v:4.2f}" for v in hourly))
    return 0


def _cmd_fig2(args: argparse.Namespace) -> int:
    from repro.experiments.characterization import (
        fig2_fig3_microservice_sweep,
    )
    sweep = fig2_fig3_microservice_sweep()
    print(f"{'service':<14}{'load':<8}{'env':<10}"
          f"{'p99(ms)':>9}{'util':>6}{'SLO ok':>8}")
    for point in sweep:
        print(f"{point.service:<14}{point.load:<8}"
              f"{point.environment:<10}{point.p99_ms:9.1f}"
              f"{point.utilization:6.2f}{str(point.meets_slo):>8}")
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    from repro.experiments.characterization import fig5_rack_power_cdf
    cdfs = fig5_rack_power_cdf(n_racks=args.racks, seed=args.seed)
    for name, cdf in cdfs.items():
        print(f"{name:>4}: P50={cdf.value_at(0.5):.2f} "
              f"P90={cdf.value_at(0.9):.2f} P99={cdf.value_at(0.99):.2f}")
    return 0


def _cmd_fig7(args: argparse.Namespace) -> int:
    from repro.experiments.characterization import fig7_aging_policies
    for name, curve in fig7_aging_policies(days=args.days).items():
        print(f"{name:<18} {float(curve[-1]):6.2f} days of wear")
    return 0


def _cmd_fig15(args: argparse.Namespace) -> int:
    from repro.prediction.predictor import evaluate_template
    from repro.prediction.templates import TemplateKind
    from repro.traces.synthetic import FleetConfig, generate_fleet
    week = 7 * 86400.0
    fleet = generate_fleet(FleetConfig(n_racks=args.racks, weeks=2,
                                       seed=args.seed))
    for kind in TemplateKind:
        rmses: list[float] = []
        for rack in fleet.racks:
            power = rack.total_power()
            hist = rack.times < week
            ev = evaluate_template(kind, rack.times[hist], power[hist],
                                   rack.times[~hist], power[~hist])
            rmses.append(ev.rmse / len(rack.servers))
        print(f"{kind.value:<9} median per-server RMSE "
              f"{float(np.median(rmses)):7.2f} W")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments.largescale import (
        cluster_class_fleet_configs,
        format_table1,
        table1_streaming,
    )
    # The streaming path: the driver ships rack *specs* and folds
    # results online, so `--racks 7100` runs in bounded memory; output
    # is byte-identical to materializing the fleets at any worker count.
    configs = cluster_class_fleet_configs(n_racks=args.racks,
                                          weeks=args.weeks, seed=args.seed)
    print(format_table1(table1_streaming(configs, workers=args.workers,
                                         max_inflight=args.max_inflight)))
    return 0


def _cluster_config(args: argparse.Namespace) -> object:
    from repro.experiments.cluster import ClusterConfig
    return ClusterConfig(duration_s=args.duration, seed=args.seed)


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.experiments.cluster import ENVIRONMENTS, run_environment
    for env in ENVIRONMENTS:
        result = run_environment(env, args.config)
        high = result.per_class["high"]
        print(f"{env:<12} high p99={high.p99_ms:7.1f}ms "
              f"miss={high.missed_slo_fraction:6.3%} "
              f"instances={high.avg_instances:4.2f} "
              f"totalE={result.total_energy_j / 1e6:6.1f}MJ")
    return 0


def _cmd_fig16(args: argparse.Namespace) -> int:
    from repro.experiments.production import fig16_service_b
    result = fig16_service_b()
    print(f"utilization reduction at peak: "
          f"{result.util_reduction_at_peak:.1%}")
    print(f"iso-utilization RPS gain:      {result.iso_util_rps_gain:.1%}")
    return 0


def _cmd_fig17(args: argparse.Namespace) -> int:
    from repro.experiments.production import fig17_service_c
    print(f"5-minute peak reduction: "
          f"{fig17_service_c().peak_reduction:.1%}")
    return 0


def _faults_config(args: argparse.Namespace) -> object:
    from repro.experiments.faults import FaultScenarioConfig
    return FaultScenarioConfig(duration_s=args.duration, seed=args.seed,
                               message_drop_prob=args.drop_prob)


def _cmd_faults(args: argparse.Namespace) -> _Verdict:
    from repro.experiments.faults import (
        fault_injection_experiment,
        format_fault_report,
    )
    # The claim: a faulted run never leaves the rack above its limit
    # after enforcement.
    result = fault_injection_experiment(args.config, workers=args.workers)
    print(format_fault_report(result))
    return result


def _recovery_config(args: argparse.Namespace) -> object:
    from repro.experiments.recovery import RecoveryScenarioConfig
    return RecoveryScenarioConfig(duration_s=args.duration, seed=args.seed)


def _cmd_recovery(args: argparse.Namespace) -> _Verdict:
    from repro.experiments.recovery import (
        format_recovery_report,
        recovery_experiment,
    )
    # The claims: no rack above its limit after enforcement, and no
    # restored sOA granting beyond its checkpointed budget assignment.
    result = recovery_experiment(args.config, workers=args.workers)
    print(format_recovery_report(result, as_json=args.json))
    return result


def _cmd_oversub(args: argparse.Namespace) -> _Verdict:
    from repro.experiments.oversubscription import (
        OversubScenarioConfig,
        format_oversub_report,
        oversubscription_experiment,
    )
    # The claims: a monotone risk ladder, a conservative run inside the
    # Table-1 envelope, and no rack above its physical limit after
    # enforcement.
    config = OversubScenarioConfig(n_racks=args.racks, seed=args.seed)
    result = oversubscription_experiment(config, workers=args.workers)
    print(format_oversub_report(result, as_json=args.json))
    return result


def _cmd_chaos(args: argparse.Namespace) -> _Verdict:
    from repro.experiments.chaos import chaos_sweep, format_chaos_report
    # The claim: no invariant violation; the report names any offending
    # seed for one-command deterministic replay.
    result = chaos_sweep(args.trials, seed=args.seed,
                         workers=args.workers)
    print(format_chaos_report(result, as_json=args.json))
    return result


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run
    return run(args)


def _configure_lint(parser: argparse.ArgumentParser) -> None:
    from repro.analysis.cli import configure_parser
    configure_parser(parser)


_COMMANDS: dict[str, _Command] = {
    "list": _Command(_cmd_list, "list available commands", options=()),
    "fig1": _Command(_cmd_fig1, "weekday load patterns of Services A/B/C"),
    "fig2": _Command(_cmd_fig2, "SocialNet latency sweep (also covers fig3)"),
    "fig5": _Command(_cmd_fig5, "rack power utilization CDFs",
                     options=(_SEED, _racks(30))),
    "fig7": _Command(_cmd_fig7, "CPU ageing under overclocking policies",
                     options=(_SEED, _option("--days", type=_days_count,
                                             default=5))),
    "fig15": _Command(_cmd_fig15, "template prediction accuracy",
                      options=(_SEED, _racks(30))),
    "table1": _Command(
        _cmd_table1, "policy comparison across cluster classes",
        options=(
            _SEED, _racks(4),
            _option("--weeks", type=_weeks_count, default=2,
                    help="trace length; >= 2 (week 1 is the history "
                         "window)"),
            _workers("the (rack, policy) sweep", default=None),
            _option("--max-inflight", type=_inflight_count, default=None,
                    metavar="M",
                    help="in-flight job window (default 4x workers); "
                         "bounds driver memory during fleet-scale sweeps"))),
    "cluster": _Command(_cmd_cluster, "the four-environment cluster study",
                        options=(_SEED, _DURATION), config=_cluster_config),
    "fig16": _Command(_cmd_fig16, "Service B utilization vs request rate"),
    "fig17": _Command(_cmd_fig17, "Service C 5-minute peak reduction"),
    "faults": _Command(
        _cmd_faults, "fault-free vs faulted SmartOClock comparison",
        options=(_SEED, _DURATION,
                 _option("--drop-prob", type=float, default=0.5,
                         help="budget/profile message drop probability"),
                 _workers("the matched pair")),
        config=_faults_config),
    "recovery": _Command(
        _cmd_recovery, "crash/recovery: naive vs SmartOClock uptime",
        options=(_SEED, _DURATION, _workers("the matched triple"), _JSON),
        config=_recovery_config),
    "oversub": _Command(
        _cmd_oversub,
        "risk-ladder oversubscription ablation + mispredict stress",
        options=(_SEED,
                 _racks(2, "high-power racks in the ablation fleet"),
                 _workers("the ablation sweep and the stress runs"), _JSON)),
    "chaos": _Command(
        _cmd_chaos, "seeded random fault sweep vs safety invariants",
        options=(_SEED,
                 _option("--trials", type=_trials_count, default=20,
                         help="independent trials at seeds "
                              "seed..seed+N-1"),
                 _workers("the trial sweep"), _JSON)),
    "lint": _Command(_cmd_lint, "run project-specific static analysis",
                     options=(), configure=_configure_lint),
}


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro`` argument parser with one subcommand per experiment."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate SmartOClock (ISCA 2024) experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.set_defaults(func=command.func, usage_error=p.error)
        if command.configure is not None:
            command.configure(p)
        for flags, kwargs in command.options:
            p.add_argument(*flags, **kwargs)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    build_config = _COMMANDS[args.command].config
    if build_config is not None:
        try:
            args.config = build_config(args)
        except ValueError as exc:
            args.usage_error(str(exc))  # exits 2 with the usage line
    outcome = args.func(args)
    return outcome if isinstance(outcome, int) else int(not outcome.ok)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
