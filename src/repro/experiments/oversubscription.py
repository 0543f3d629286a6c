"""Oversubscription ablation + mispredict stress (ROADMAP item 2).

Two complementary views of the risk-aware oversubscription layer:

* **Confidence-level ablation** (trace path): the Table-I high-power
  cluster class — the only one where oversubscribed headroom is
  genuinely contested — swept over the risk ladder with the streaming
  (rack, policy) iterator.  The expected shape is the paper's
  oversubscription tradeoff: a higher risk level admits more headroom,
  strands fewer watts under the physical limit, and pays for it in
  capping events.  Both axes are monotone along the ladder, and the
  conservative setting must stay inside the Table-I envelope (no worse
  than NaiveOClock's cap count on the same fleet).

* **Mispredict stress** (platform path, satellite of the PR 3–4 fault
  machinery): four matched cluster runs — SmartOClock, NaiveOClock,
  SmartOClock+OSub fault-free, and SmartOClock+OSub under a
  :class:`~repro.faults.spec.MispredictionFault` window that skews sOA
  power predictions through the load peak.  The faulted oversubscribed
  run must degrade gracefully: capping absorbs the mistake (the rack
  never exceeds its limit post-enforcement) and its cap-event count
  stays within the envelope the naive baseline sets.

Everything is deterministic: the CI smoke runs the experiment twice and
diffs the canonical JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from repro.core.oversubscription import RISK_ORDER
from repro.experiments.cluster import (
    EnvironmentResult,
    platform_config,
    run_variants,
    scenario_cluster,
)
from repro.experiments.largescale import (
    PolicyScore,
    compare_policies_streaming,
)
from repro.faults import FaultPlan, MispredictionFault
from repro.faults.spec import FaultWindow
from repro.traces.synthetic import FleetConfig

__all__ = [
    "ABLATION_POLICIES",
    "OversubScenarioConfig",
    "OversubAblationResult",
    "OversubStressResult",
    "OversubExperimentResult",
    "oversubscription_ablation",
    "mispredict_stress",
    "oversubscription_experiment",
    "format_oversub_report",
]

#: Ablation sweep: both Table-I anchors (NaiveOClock bounds the cap
#: envelope from above, SmartOClock is the no-oversubscription baseline)
#: plus the full risk ladder.
ABLATION_POLICIES = ("NaiveOClock", "SmartOClock") + tuple(
    f"SmartOClock+OSub:{risk}" for risk in RISK_ORDER)


@dataclass(frozen=True)
class OversubScenarioConfig:
    """Knobs shared by the ablation sweep and the mispredict stress."""

    # --- trace-path ablation ---------------------------------------------
    n_racks: int = 2
    weeks: int = 2
    seed: int = 1
    servers_per_rack: int = 12
    # Table I's high-power class: racks run close enough to their limit
    # that admitted headroom is contested and the risk dial has
    # observable consequences.
    p99_util_range: tuple[float, float] = (0.86, 0.96)

    # --- platform-path stress --------------------------------------------
    duration_s: float = 1800.0
    tick_s: float = 10.0
    # Constrained rack: tight enough that the NaiveOClock anchor caps
    # through the peak (a meaningful envelope bound) while the
    # risk-aware runs stay under it.
    rack_limit_factor: float = 0.98
    # Templates underpredict by 10 % from the load peak onward — the
    # sOAs admit more than their budgets really hold.
    misprediction_scale: float = 0.9
    stress_risk_level: str = "conservative"

    def __post_init__(self) -> None:
        if self.weeks < 2:
            raise ValueError(
                f"weeks must be >= 2 (history + evaluation): {self.weeks}")
        if self.duration_s < 6 * self.tick_s:
            raise ValueError("stress scenario too short for its phases")
        if not 0.0 < self.misprediction_scale:
            raise ValueError(
                f"misprediction_scale must be > 0: "
                f"{self.misprediction_scale}")

    def fleet_config(self) -> FleetConfig:
        return FleetConfig(
            n_racks=self.n_racks, weeks=self.weeks, seed=self.seed,
            servers_per_rack_min=self.servers_per_rack,
            servers_per_rack_max=self.servers_per_rack,
            p99_util_beta=(2.0, 2.0),
            p99_util_range=self.p99_util_range,
            region="osub-high")

    def fault_plan(self) -> FaultPlan:
        return FaultPlan(mispredictions=(MispredictionFault(
            FaultWindow(self.duration_s / 3.0, self.duration_s),
            scale=self.misprediction_scale),))


#: The run totals each stress run reports.
_STRESS_TOTALS = ("cap_events", "grants", "rejections",
                  "missed_slo_ticks_fraction", "peak_rack_power_fraction",
                  "total_energy_mj")


@dataclass(frozen=True)
class OversubAblationResult:
    """Risk-ladder sweep scores, keyed by policy name."""

    scores: dict[str, PolicyScore]

    @property
    def ladder(self) -> list[tuple[str, PolicyScore]]:
        return [(risk, self.scores[f"SmartOClock+OSub:{risk}"])
                for risk in RISK_ORDER]

    @property
    def monotone(self) -> bool:
        """Higher risk → no more stranded watts and no fewer cap events
        (the acceptance-criterion tradeoff, monotone along the ladder)."""
        rows = [score for _, score in self.ladder]
        return all(
            riskier.stranded_watts <= safer.stranded_watts + 1e-9
            and riskier.cap_events >= safer.cap_events
            for safer, riskier in zip(rows, rows[1:]))

    @property
    def envelope_ok(self) -> bool:
        """Conservative oversubscription stays inside the Table-I
        envelope: it must not cap more than the NaiveOClock anchor."""
        conservative = self.scores["SmartOClock+OSub:conservative"]
        return conservative.cap_events <= self.scores[
            "NaiveOClock"].cap_events


@dataclass(frozen=True)
class OversubStressResult:
    """Matched platform runs under the misprediction window."""

    smart: EnvironmentResult         # SmartOClock, no oversubscription
    naive: EnvironmentResult         # NaiveOClock envelope anchor
    osub: EnvironmentResult          # +OSub, fault-free
    osub_faulted: EnvironmentResult  # +OSub under misprediction skew

    @property
    def runs(self) -> tuple[tuple[str, EnvironmentResult], ...]:
        return (("smart", self.smart), ("naive", self.naive),
                ("osub", self.osub), ("osub_faulted", self.osub_faulted))

    @property
    def safe(self) -> bool:
        """Capping must absorb every oversubscription mistake: no run
        may leave its rack above the physical limit post-enforcement."""
        return all(r.within_envelope for _, r in self.runs)

    @property
    def envelope_ok(self) -> bool:
        """Graceful degradation: the faulted oversubscribed run caps no
        more than the naive always-overclock anchor."""
        return self.osub_faulted.cap_events <= self.naive.cap_events


@dataclass(frozen=True)
class OversubExperimentResult:
    """Ablation + stress, with the headline pass/fail verdicts."""

    ablation: OversubAblationResult
    stress: OversubStressResult

    @property
    def ok(self) -> bool:
        """The CI gate: conservative risk inside the Table-I envelope on
        both paths, every run capped safely, tradeoff monotone."""
        return (self.ablation.monotone and self.ablation.envelope_ok
                and self.stress.safe and self.stress.envelope_ok)

    def metrics(self) -> dict[str, dict[str, dict[str, float]]]:
        """Flat numeric summary (also the determinism fingerprint: two
        runs with the same config must produce this exactly)."""
        ablation: dict[str, dict[str, float]] = {}
        for name, score in self.ablation.scores.items():
            ablation[name] = {
                "cap_events": float(score.cap_events),
                "osub_cap_events": float(score.osub_cap_events),
                "success_rate": score.success_rate,
                "stranded_watts": score.stranded_watts,
                "osub_admitted_watts": score.osub_admitted_watts,
                "normalized_performance": score.normalized_performance,
            }
        stress = {name: result.metrics_row(_STRESS_TOTALS, faults=False)
                  for name, result in self.stress.runs}
        verdicts = {
            "monotone": float(self.ablation.monotone),
            "ablation_envelope_ok": float(self.ablation.envelope_ok),
            "stress_safe": float(self.stress.safe),
            "stress_envelope_ok": float(self.stress.envelope_ok),
        }
        return {"ablation": ablation, "stress": stress,
                "verdicts": {"checks": verdicts}}


def oversubscription_ablation(
        config: Optional[OversubScenarioConfig] = None, *,
        workers: Optional[int] = 1) -> OversubAblationResult:
    """Sweep the risk ladder over the high-power fleet (streaming path,
    so the sweep is byte-identical at any worker count)."""
    config = config or OversubScenarioConfig()
    scores = compare_policies_streaming(
        config.fleet_config(), ABLATION_POLICIES, workers=workers)
    return OversubAblationResult(scores=scores)


def mispredict_stress(
        config: Optional[OversubScenarioConfig] = None, *,
        workers: Optional[int] = 1) -> OversubStressResult:
    """Run the matched platform quadruple under one seed (sharded over a
    spawn pool with ``workers`` > 1, byte-identical either way)."""
    config = config or OversubScenarioConfig()
    cluster = scenario_cluster(config)
    base = platform_config(cluster)
    osub = base.with_oversubscription(config.stress_risk_level)
    runs = run_variants(cluster, [
        dict(soc_config=base, label="SmartOClock/base"),
        dict(soc_config=base.as_naive(), label="NaiveOClock"),
        dict(soc_config=osub, label="SmartOClock+OSub/fault-free"),
        dict(soc_config=osub, fault_plan=config.fault_plan(),
             label="SmartOClock+OSub/mispredict"),
    ], workers=workers)
    return OversubStressResult(*runs)


def oversubscription_experiment(
        config: Optional[OversubScenarioConfig] = None, *,
        workers: Optional[int] = 1) -> OversubExperimentResult:
    """Ablation sweep + mispredict stress under one scenario config."""
    config = config or OversubScenarioConfig()
    return OversubExperimentResult(
        ablation=oversubscription_ablation(config, workers=workers),
        stress=mispredict_stress(config, workers=workers))


def format_oversub_report(result: OversubExperimentResult,
                          as_json: bool = False) -> str:
    """Fixed-precision report (stable across repeated runs).  With
    ``as_json`` the metrics dict is emitted as canonical JSON, which CI
    diffs across repeats to assert determinism."""
    metrics = result.metrics()
    if as_json:
        return json.dumps(metrics, sort_keys=True, indent=2)
    lines = [f"{'policy':<30}{'caps':>6}{'osub':>6}{'succ':>8}"
             f"{'stranded W':>12}{'admitted W':>12}{'perf':>8}"]
    for name in ABLATION_POLICIES:
        row = metrics["ablation"][name]
        lines.append(
            f"{name:<30}{row['cap_events']:6.0f}"
            f"{row['osub_cap_events']:6.0f}{row['success_rate']:8.3f}"
            f"{row['stranded_watts']:12.1f}"
            f"{row['osub_admitted_watts']:12.1f}"
            f"{row['normalized_performance']:8.3f}")
    lines.append("")
    lines.append(f"{'stress run':<30}{'caps':>6}{'grants':>8}"
                 f"{'peak frac':>11}{'slo miss':>10}")
    for name, _ in result.stress.runs:
        row = metrics["stress"][name]
        lines.append(
            f"{name:<30}{row['cap_events']:6.0f}{row['grants']:8.0f}"
            f"{row['peak_rack_power_fraction']:11.4f}"
            f"{row['missed_slo_ticks_fraction']:10.4f}")
    verdicts = metrics["verdicts"]["checks"]
    lines.append("")
    lines.append("checks: " + "  ".join(
        f"{key}={'ok' if value else 'FAIL'}"
        for key, value in sorted(verdicts.items())))
    return "\n".join(lines)
