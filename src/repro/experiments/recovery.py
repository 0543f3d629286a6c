"""Crash/recovery scenario: risk-aware overclocking pays for uptime.

The paper's premise (§II, §VI) is that overclocking trades silicon
lifetime and failure risk for performance, and that SmartOClock's
admission control, lifetime budgeting and risk management keep that
trade survivable.  This scenario makes the trade concrete: a
wear/voltage-driven :class:`~repro.reliability.hazard.HazardModel`
kills servers, crashed sOAs restore from durable checkpoints, gOAs
redistribute dead servers' budget share, crash-prone servers are
quarantined, and VMs evacuate to surviving same-rack servers.

Three matched runs share one cluster, load trace and crash seed:

* **NaiveOClock** — always-overclock, no admission control, no
  quarantine.  Maximum voltage exposure: the hazard bites hardest.
* **SmartOClock** — the full platform with quarantine.  Budgeted
  overclocking means far less voltage exposure; quarantine keeps a
  crashed server from immediately re-earning its next crash.
* **SmartOClock/restored** — the same run plus a mid-run sOA process
  crash on every server (:class:`~repro.faults.spec.SoaRestart`),
  exercising checkpoint restore under load.

Because per-(server, tick) crash draws use the fault subsystem's
per-event SeedSequence scheme, all three runs flip the *same coin* for
the same server at the same instant: naive's higher voltage can only
add crashes, never trade them.  The whole scenario is deterministic,
so CI asserts bit-identical JSON across repeats.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from repro.experiments.cluster import (
    EnvironmentResult,
    format_run_table,
    platform_config,
    require_finite_times,
    run_variants,
    scenario_cluster,
)
from repro.faults.spec import FaultPlan, SoaRestart
from repro.reliability.hazard import HazardModel

__all__ = [
    "RecoveryScenarioConfig",
    "RecoveryExperimentResult",
    "recovery_experiment",
    "format_recovery_report",
]


@dataclass(frozen=True)
class RecoveryScenarioConfig:
    """Knobs for the naive-vs-SmartOClock crash comparison."""

    duration_s: float = 3600.0
    tick_s: float = 10.0
    seed: int = 0
    # Mildly constrained rack so capping is a live envelope, matching
    # the fault-injection scenario.
    rack_limit_factor: float = 1.05
    # Hazard calibration.  Real base rates (a few failures per hundred
    # server-years) would never fire inside a minutes-long simulation;
    # the compressed-timescale rate is inflated so the *relative* risk
    # of naive always-overclocking shows up within one run.
    base_failures_per_year: float = 25.0
    voltage_weight: float = 2.0
    wear_coupling: float = 6.0
    # When (as a fraction of the run) the restored variant crashes and
    # restores every sOA process.
    soa_restart_at_fraction: float = 0.5

    def __post_init__(self) -> None:
        require_finite_times(self.duration_s, self.tick_s)
        if self.duration_s < 6 * self.tick_s:
            raise ValueError("scenario too short to contain its phases")
        if self.base_failures_per_year <= 0:
            raise ValueError(
                f"base_failures_per_year must be > 0: "
                f"{self.base_failures_per_year}")
        if not 0.0 < self.soa_restart_at_fraction < 1.0:
            raise ValueError(
                f"soa_restart_at_fraction must be in (0, 1): "
                f"{self.soa_restart_at_fraction}")

    def hazard_model(self) -> HazardModel:
        return HazardModel(
            base_failures_per_year=self.base_failures_per_year,
            voltage_weight=self.voltage_weight,
            wear_coupling=self.wear_coupling)

    @property
    def soa_restart_at_s(self) -> float:
        return self.duration_s * self.soa_restart_at_fraction


#: The run totals the recovery report lists beside the fault counters.
_TOTALS = ("server_crashes", "server_downtime_s", "server_uptime_fraction",
           "vm_downtime_s", "wear_accrued_s", "restored_overgrants",
           "cap_events", "grants", "rejections", "missed_slo_ticks_fraction",
           "peak_rack_power_fraction", "total_energy_mj")


@dataclass(frozen=True)
class RecoveryExperimentResult:
    """Matched naive / SmartOClock / restored-SmartOClock runs."""

    naive: EnvironmentResult
    smart: EnvironmentResult
    smart_restored: EnvironmentResult

    @property
    def runs(self) -> tuple[tuple[str, EnvironmentResult], ...]:
        return (("naive", self.naive), ("smart", self.smart),
                ("smart_restored", self.smart_restored))

    @property
    def ok(self) -> bool:
        """The run's two hard safety claims: capping held every rack
        inside its envelope, and no restored sOA re-derived a budget
        beyond its checkpointed assignment."""
        return all(r.within_envelope and r.restored_overgrants == 0
                   for _, r in self.runs)

    def metrics(self) -> dict[str, dict[str, float]]:
        """Flat numeric summary (also the determinism fingerprint: two
        runs with the same config and seed must produce this exactly)."""
        return {name: result.metrics_row(_TOTALS)
                for name, result in self.runs}


def recovery_experiment(
        config: Optional[RecoveryScenarioConfig] = None, *,
        workers: Optional[int] = 1
) -> RecoveryExperimentResult:
    """Run the matched triple under one crash seed (sharded over a
    spawn pool with ``workers`` > 1, byte-identical either way)."""
    config = config or RecoveryScenarioConfig()
    cluster = scenario_cluster(config)
    crashes = dict(hazard_model=config.hazard_model(),
                   fault_seed=config.seed)
    naive = platform_config(cluster, enable_proactive_scaleout=False)
    restart = SoaRestart(at_s=config.soa_restart_at_s)
    runs = run_variants(cluster, [
        dict(crashes, soc_config=naive.as_naive(), label="NaiveOClock"),
        crashes,
        dict(crashes, fault_plan=FaultPlan(soa_restarts=(restart,)),
             label="SmartOClock/restored"),
    ], workers=workers)
    return RecoveryExperimentResult(*runs)


def format_recovery_report(result: RecoveryExperimentResult,
                           as_json: bool = False) -> str:
    """Fixed-precision report (stable across repeated runs).  With
    ``as_json`` the metrics dict is emitted as canonical JSON, which CI
    diffs across repeats to assert determinism."""
    metrics = result.metrics()
    if as_json:
        return json.dumps(metrics, sort_keys=True, indent=2)
    table = format_run_table(list(metrics.items()), width=16)
    return table + "\nsafety: " + (
        "ok (racks inside the capping envelope, no restored sOA "
        "over-granted)" if result.ok
        else "VIOLATED (rack escaped its envelope or a restored sOA "
        "granted beyond its checkpointed budget)")
