"""Fault-injection scenario: the paper's graceful-degradation claim.

§III Q5 / §IV-C argue SmartOClock is decentralized: when the gOA or its
communication path fails, sOAs keep enforcing their last-known budgets
and the rack stays inside its capping envelope — overclocking *quality*
degrades (stale budgets, missed demand shifts), rack *safety* does not.

This scenario runs two matched SmartOClock clusters on the identical
load trace and seed: one fault-free, one under a :class:`FaultPlan`
combining a gOA outage through the load peak, a lossy/delayed budget
channel, telemetry dropouts, and misprediction skew.  The comparison
reports cap events, SLO violations, grant throughput and the peak
post-enforcement rack draw; the run is deterministic, so CI can assert
bit-identical output across repeats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.experiments.cluster import (
    EnvironmentResult,
    format_run_table,
    require_finite_times,
    run_variants,
    scenario_cluster,
)
from repro.faults import (
    FaultPlan,
    GoaOutage,
    MessageFault,
    MispredictionFault,
    TelemetryDropout,
)
from repro.faults.spec import FaultWindow

__all__ = [
    "FaultScenarioConfig",
    "FaultExperimentResult",
    "default_fault_plan",
    "fault_injection_experiment",
    "format_fault_report",
]


@dataclass(frozen=True)
class FaultScenarioConfig:
    """Knobs for the faulted-vs-fault-free comparison."""

    duration_s: float = 3600.0
    tick_s: float = 10.0
    seed: int = 0
    # The rack limit is mildly constrained so the capping envelope is a
    # live constraint rather than unreachable headroom.
    rack_limit_factor: float = 1.05
    # Faults: the gOA dies as the load peak begins and stays dead; the
    # channel is lossy and slow before that; telemetry flakes through the
    # first half; templates underpredict during the peak.
    message_drop_prob: float = 0.5
    message_delay_s: float = 30.0
    telemetry_drop_prob: float = 0.3
    misprediction_scale: float = 0.9

    def __post_init__(self) -> None:
        require_finite_times(self.duration_s, self.tick_s)
        if self.duration_s < 6 * self.tick_s:
            raise ValueError("scenario too short to contain its phases")
        if not 0.0 <= self.message_drop_prob <= 1.0:
            raise ValueError(
                f"message_drop_prob must be in [0, 1]: "
                f"{self.message_drop_prob}")

    @property
    def outage_start_s(self) -> float:
        return self.duration_s / 3.0


def default_fault_plan(config: FaultScenarioConfig) -> FaultPlan:
    """The scenario's composite failure: every fault class at once."""
    outage = FaultWindow(config.outage_start_s, config.duration_s)
    pre_outage = FaultWindow(0.0, config.outage_start_s)
    faults = FaultPlan(
        goa_outages=(GoaOutage(outage),),
        message_faults=(MessageFault(
            pre_outage, drop_prob=config.message_drop_prob,
            delay_s=config.message_delay_s),),
        telemetry_dropouts=(TelemetryDropout(
            FaultWindow(0.0, config.duration_s / 2.0),
            drop_prob=config.telemetry_drop_prob),),
        mispredictions=(MispredictionFault(
            FaultWindow(config.outage_start_s, config.duration_s),
            scale=config.misprediction_scale),),
    )
    return faults


#: The run totals the fault report lists beside each load class's latency
#: and the fault counters.
_TOTALS = ("cap_events", "grants", "rejections", "scale_outs",
           "missed_slo_ticks_fraction", "peak_rack_power_fraction",
           "total_energy_mj")


@dataclass(frozen=True)
class FaultExperimentResult:
    """Matched fault-free vs faulted SmartOClock runs."""

    fault_free: EnvironmentResult
    faulted: EnvironmentResult
    plan: FaultPlan

    @property
    def ok(self) -> bool:
        """The decentralization claim: under faults, the rack never stayed
        above its limit after enforcement."""
        return self.faulted.within_envelope

    def metrics(self) -> dict[str, dict[str, float]]:
        """Flat numeric summary (also the determinism fingerprint: two
        runs with the same config and seed must produce this exactly)."""
        return {"fault_free": self.fault_free.metrics_row(
                    _TOTALS, per_class=True),
                "faulted": self.faulted.metrics_row(_TOTALS, per_class=True)}


def fault_injection_experiment(
        config: Optional[FaultScenarioConfig] = None, *,
        plan: Optional[FaultPlan] = None,
        workers: Optional[int] = 1) -> FaultExperimentResult:
    """Run the matched pair.  ``plan`` overrides the default composite
    fault plan (pass a plan with only a gOA outage to isolate it); the
    plan is resolved here and shipped in the payload, so both workers
    see the identical plan object state."""
    config = config or FaultScenarioConfig()
    plan = plan if plan is not None else default_fault_plan(config)
    fault_free, faulted = run_variants(scenario_cluster(config), [
        dict(label="SmartOClock/fault-free"),
        dict(fault_plan=plan, label="SmartOClock/faulted"),
    ], workers=workers)
    return FaultExperimentResult(fault_free=fault_free, faulted=faulted,
                                 plan=plan)


def format_fault_report(result: FaultExperimentResult) -> str:
    """Fixed-precision text report (stable across repeated runs)."""
    metrics = result.metrics()
    table = format_run_table([("fault-free", metrics["fault_free"]),
                              ("faulted", metrics["faulted"])], width=14)
    return table + "\ndegradation: " + (
        "graceful (rack stayed within the capping envelope)" if result.ok
        else "UNSAFE (post-enforcement draw exceeded the rack limit)")
