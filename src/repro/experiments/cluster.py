"""Cluster experiments (paper §V-A: Figs. 12–14 and the constrained
studies).

Reproduces the 36-server testbed: one 28-server rack (14 servers running
latency-critical SocialNet deployments, 14 running power-hungry MLTrain)
plus 8 servers in a second rack used for scale-out.  Four environments run
the identical load trace:

* **Baseline** — fixed one instance per service, max turbo;
* **ScaleOut** — horizontal autoscaling on tail latency (VM boot delay);
* **ScaleUp**  — naive vertical scaling (overclock on high latency, no
  admission control);
* **SmartOClock** — the full platform: workload-aware overclocking with
  admission control plus proactive scale-out as the fallback.

Latency is aggregated exactly: each tick contributes its closed-form
response-time tail to a per-class mixture, whose quantiles and SLO-miss
mass are computed by bisection — no per-request sampling noise.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Optional, Protocol, Sequence

import numpy as np

from repro.autoscale.scaler import (
    HorizontalAutoscaler,
    ScalerConfig,
    VerticalScaler,
)
from repro.cluster.capping import RackPowerManager
from repro.cluster.power import DEFAULT_POWER_MODEL
from repro.cluster.topology import Datacenter, Rack, Server, VirtualMachine
from repro.core.config import SmartOClockConfig
from repro.core.platform import SmartOClockPlatform
from repro.core.workload_intelligence import (
    MetricsTriggerPolicy,
    OverclockSchedule,
)
from repro.faults import FaultInjector, FaultPlan
from repro.reliability.hazard import HazardModel
from repro.sim.fold import left_sum
from repro.workloads.loadgen import ConstantPattern, NoisyPattern, SpikePattern
from repro.workloads.microservices import (
    SOCIALNET_SERVICES,
    MicroserviceDeployment,
    MicroserviceSpec,
    overload_clamp,
)
from repro.workloads.mltrain import MLTrainJob
from repro.workloads.queueing import MMcQueue

__all__ = [
    "ClusterConfig",
    "ClassMetrics",
    "EnvironmentResult",
    "run_environment",
    "run_environment_job",
    "run_variants",
    "scenario_cluster",
    "platform_config",
    "require_finite_times",
    "format_run_table",
    "cluster_experiment",
    "power_constrained_experiment",
    "overclock_constrained_experiment",
    "ENVIRONMENTS",
]

TURBO_GHZ = DEFAULT_POWER_MODEL.plan.turbo_ghz
OVERCLOCK_GHZ = DEFAULT_POWER_MODEL.plan.overclock_max_ghz
ENVIRONMENTS = ("Baseline", "ScaleOut", "ScaleUp", "SmartOClock")

#: Period of the gOA budget cycles :func:`run_environment` forces, in
#: simulated seconds.  The platform's own cadence
#: (``SmartOClockConfig.budget_update_period_s``) is the paper's week, so
#: inside an hours-long run it only ever sets its stamp at t = 0; the run
#: loop compresses the weekly cycle to this period instead.  Folding the
#: two cadences into one would move every cluster, faults, recovery and
#: oversub result, so both stay (DESIGN.md, "Two budget cadences").
GOA_CYCLE_S = 600.0


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs for the §V-A experiments."""

    n_lc_servers: int = 14
    n_ml_servers: int = 14
    n_scaleout_servers: int = 8
    duration_s: float = 7200.0
    tick_s: float = 10.0
    peak_start_s: float = 2400.0
    peak_duration_s: float = 2400.0
    base_level: float = 0.35
    # Peak load per class as a multiple of each service's *SLO-critical
    # load* (the ρ at which its P99 hits the SLO at turbo): low is
    # comfortable, medium marginal, high needs corrective action.
    load_fractions: tuple[tuple[str, float], ...] = (
        ("low", 0.60), ("medium", 1.00), ("high", 1.60))
    # Services within a class span this multiplicative range around the
    # class fraction (real deployments are not uniform; the spread is what
    # makes overclocking bridge an instance boundary for some services and
    # not others).
    class_spread: tuple[float, float] = (0.72, 1.28)
    class_counts: tuple[tuple[str, int], ...] = (
        ("low", 5), ("medium", 5), ("high", 4))
    load_noise_sigma: float = 0.04
    ml_cores: int = 56
    ml_utilization: float = 0.95
    max_instances: int = 6
    boot_delay_s: float = 240.0
    # None → generous limit (never capping); otherwise a multiple of the
    # rack's estimated baseline peak power.
    rack_limit_factor: Optional[float] = None
    oc_budget_fraction: float = 0.10
    proactive_scaleout: bool = True
    # Workload-intelligence trigger: "metrics" (reactive, default),
    # "schedule" (the known peak window is declared ahead of time), or
    # "both" (the paper notes workloads can combine them).
    wi_trigger: str = "metrics"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_lc_servers < 1 or self.n_ml_servers < 0:
            raise ValueError("need at least one LC server")
        if sum(n for _, n in self.class_counts) != self.n_lc_servers:
            raise ValueError("class_counts must sum to n_lc_servers")
        require_finite_times(self.duration_s, self.tick_s)
        if self.tick_s <= 0:
            raise ValueError(f"tick_s must be > 0: {self.tick_s}")
        if self.duration_s <= self.tick_s:
            raise ValueError(f"duration_s must exceed tick_s "
                             f"({self.tick_s}): {self.duration_s}")
        if self.wi_trigger not in ("metrics", "schedule", "both"):
            raise ValueError(
                f"wi_trigger must be 'metrics', 'schedule' or 'both', "
                f"got {self.wi_trigger!r}")


def require_finite_times(duration_s: float, tick_s: float) -> None:
    """Reject a NaN or infinite run length or tick (every comparison with
    NaN is false, so range checks alone would let one through)."""
    if not (math.isfinite(duration_s) and math.isfinite(tick_s)):
        raise ValueError(f"duration_s and tick_s must be finite: "
                         f"{duration_s}, {tick_s}")


class _MatchedScenario(Protocol):
    """What a matched-scenario config fixes about its cluster."""

    @property
    def duration_s(self) -> float: ...
    @property
    def tick_s(self) -> float: ...
    @property
    def rack_limit_factor(self) -> float: ...
    @property
    def seed(self) -> int: ...


def scenario_cluster(scenario: _MatchedScenario) -> ClusterConfig:
    """The cluster every run of a matched scenario shares: the scenario's
    length, tick, rack limit and seed, with the load peak in the middle
    third (where the fault, crash and misprediction windows fall)."""
    return ClusterConfig(
        duration_s=scenario.duration_s,
        tick_s=scenario.tick_s,
        peak_start_s=scenario.duration_s / 3.0,
        peak_duration_s=scenario.duration_s / 3.0,
        rack_limit_factor=scenario.rack_limit_factor,
        seed=scenario.seed)


def platform_config(config: ClusterConfig,
                    **overrides: Any) -> SmartOClockConfig:
    """The SmartOClock platform config a cluster runs by default — its
    tick as the control interval, its overclocking budget and scale-out
    fallback — with ``overrides`` replacing any field."""
    fields: dict[str, Any] = dict(
        control_interval_s=config.tick_s,
        oc_budget_fraction=config.oc_budget_fraction,
        enable_proactive_scaleout=config.proactive_scaleout)
    fields.update(overrides)
    return SmartOClockConfig(**fields)


# ---------------------------------------------------------------------------
# Exact latency aggregation: mixtures of per-tick closed-form tails
# ---------------------------------------------------------------------------

class LatencyAggregator:
    """Request-weighted mixture of per-tick response-time distributions.

    Each distinct tick entry — (requests, λ, μ, c, overload scale, SLO) —
    is stored once, with its station built once; the entry order is kept
    as indices.  A query computes one term per distinct entry and folds
    the terms in entry order with :func:`repro.sim.fold.left_sum`, so it
    adds the same doubles in the same order as one term per tick would
    (DESIGN.md, "Latency model").
    """

    def __init__(self) -> None:
        # Each distinct entry once, as (requests, station, overload scale,
        # SLO ms); its index by key; the distinct index of every tick.
        self._entries: list[tuple[float, MMcQueue, float, float]] = []
        self._index: dict[tuple[float, float, float, int, float, float],
                          int] = {}
        self._order: list[int] = []
        self._total_weight = 0.0

    def add_tick(self, *, weight: float, offered_rho: float, mu: float,
                 servers: int, slo_ms: float) -> None:
        if weight <= 0:
            return
        rho, scale = overload_clamp(offered_rho)
        lam = rho * servers * mu
        key = (weight, lam, mu, servers, scale, slo_ms)
        index = self._index.get(key)
        if index is None:
            index = self._index[key] = len(self._entries)
            self._entries.append((weight, MMcQueue(lam, mu, servers), scale,
                                  slo_ms))
        self._order.append(index)
        self._total_weight += weight

    @property
    def total_requests(self) -> float:
        return self._total_weight

    def _mixture(self, terms: list[float]) -> float:
        """Fold the per-distinct-entry ``terms`` in entry order, per
        request."""
        if self._total_weight == 0:
            raise ValueError("no requests recorded")
        return left_sum(map(terms.__getitem__, self._order)) \
            / self._total_weight

    def tail(self, t_ms: float) -> float:
        """P(latency > t) over the whole mixture."""
        t_s = t_ms / 1000.0
        return self._mixture([w * station.response_tail(t_s / scale)
                              for w, station, scale, _ in self._entries])

    def quantile_ms(self, q: float) -> float:
        """Analytic q-quantile of the latency mixture, by bisecting the
        closed-form tail until ``P(latency <= t) >= q``.

        This is a *distribution* quantile, not a sample quantile — the
        analytic counterpart of the project's exact-sample convention
        (:func:`repro.sim.metrics.empirical_quantile`); on samples drawn
        from the same mixture the two converge as n grows.  ``q`` is
        open-interval (0, 1): the mixture's support is unbounded, so
        q=1 has no finite answer.
        """
        if not 0.0 < q < 1.0:
            raise ValueError(f"q must be in (0, 1): {q}")
        if self._total_weight == 0:
            raise ValueError("no requests recorded")
        target = 1.0 - q
        lo, hi = 0.0, 1.0
        while self.tail(hi) > target:
            hi *= 2.0
            if hi > 1e7:
                raise RuntimeError("quantile search diverged")
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            # Fixed point: every hi has tail(hi) <= target and every lo
            # the loop set has tail(lo) > target, so at mid == hi the
            # step would set hi = mid, at mid == lo it would set lo = mid
            # — no change, now or in any later step.  (The untested
            # initial lo = 0.0 never equals mid: hi >= 2**-80.)
            if mid == lo or mid == hi:
                break
            if self.tail(mid) > target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def p99_ms(self) -> float:
        return self.quantile_ms(0.99)

    def mean_ms(self) -> float:
        return self._mixture([w * station.mean_response() * 1000.0 * scale
                              for w, station, scale, _ in self._entries])

    def missed_slo_fraction(self) -> float:
        """Fraction of requests above their service's SLO."""
        return self._mixture([
            w * station.response_tail((slo_ms / 1000.0) / scale)
            for w, station, scale, slo_ms in self._entries])


# ---------------------------------------------------------------------------
# Experiment state
# ---------------------------------------------------------------------------

@dataclass
class _Service:
    name: str
    spec: MicroserviceSpec
    load_class: str
    pattern: NoisyPattern
    deployment: MicroserviceDeployment
    home_server: Server
    vms: list[VirtualMachine]
    floor_ms: float = 0.0  # unavoidable unloaded P99 at turbo
    scaler: Optional[HorizontalAutoscaler] = None
    vscaler: Optional[VerticalScaler] = None
    wi_locals: dict[int, object] = field(default_factory=dict)

    def headroom_latency(self, p99_ms: float) -> float:
        """Map a P99 onto the floor→SLO band, rescaled to SLO units.

        Scaling thresholds are fractions of the SLO, but a service's P99
        can never drop below its unloaded floor (≈ ln(100)× the mean
        service time) — thresholds must measure *consumed headroom*, not
        raw latency, or fragile services trigger scaling forever.
        """
        band = self.spec.slo_ms - self.floor_ms
        normalized = max(0.0, (p99_ms - self.floor_ms) / band)
        return normalized * self.spec.slo_ms


@dataclass(frozen=True)
class ClassMetrics:
    """One bar group of Figs. 12-14."""

    p99_ms: float
    mean_ms: float
    missed_slo_fraction: float
    avg_instances: float
    home_server_energy_j: float


@dataclass(frozen=True)
class EnvironmentResult:
    """Everything one environment run produces."""

    environment: str
    per_class: dict[str, ClassMetrics]
    total_energy_j: float
    ml_throughput: float          # samples/s averaged across ML servers
    cap_events: int
    overclock_grants: int
    overclock_rejections: int
    scale_outs: int
    missed_slo_ticks_fraction: float  # fraction of (service,tick) over SLO
    # Worst post-enforcement rack draw as a fraction of its limit (> 1
    # would mean an uncontrolled limit violation survived capping).
    peak_rack_power_fraction: float = 0.0
    # Merged fault/recovery counters (None when the run had neither an
    # injector nor a crash/recovery lifecycle).
    faults: Optional[dict[str, int]] = None
    # Crash/recovery availability metrics (defaults describe a run with
    # no lifecycle engaged: nothing crashed, everything stayed up).
    server_crashes: int = 0
    server_downtime_s: float = 0.0
    server_uptime_fraction: float = 1.0
    vm_downtime_s: float = 0.0
    # Overclock-attributable wear across the fleet: reference-seconds of
    # wear in excess of the baseline busy wear (zero for a run that
    # never leaves rated voltage).
    wear_accrued_s: float = 0.0
    # Restores whose re-derived budget exceeded the checkpointed one —
    # must stay 0 (a restored sOA may never grant beyond what its last
    # assignment provably allowed).
    restored_overgrants: int = 0

    def avg_instances_overall(self) -> float:
        return float(np.mean([m.avg_instances
                              for m in self.per_class.values()]))

    @property
    def within_envelope(self) -> bool:
        """Capping held the worst post-enforcement rack draw to its limit
        (up to float rounding)."""
        return self.peak_rack_power_fraction <= 1.0 + 1e-9

    def metrics_row(self, totals: Sequence[str], *, per_class: bool = False,
                    faults: bool = True) -> dict[str, float]:
        """One flat row of this run's numbers, as the matched scenarios
        report them: the named run ``totals``, then each load class's P99
        and SLO-miss fraction (``per_class``), then the merged
        fault/recovery counters (``faults``; a counter replaces a total of
        the same name)."""
        every = {
            "cap_events": float(self.cap_events),
            "grants": float(self.overclock_grants),
            "rejections": float(self.overclock_rejections),
            "scale_outs": float(self.scale_outs),
            "missed_slo_ticks_fraction": self.missed_slo_ticks_fraction,
            "peak_rack_power_fraction": self.peak_rack_power_fraction,
            "total_energy_mj": self.total_energy_j / 1e6,
            "server_crashes": float(self.server_crashes),
            "server_downtime_s": self.server_downtime_s,
            "server_uptime_fraction": self.server_uptime_fraction,
            "vm_downtime_s": self.vm_downtime_s,
            "wear_accrued_s": self.wear_accrued_s,
            "restored_overgrants": float(self.restored_overgrants),
        }
        row = {key: every[key] for key in totals}
        if per_class:
            for cls, metrics in self.per_class.items():
                row[f"p99_ms_{cls}"] = metrics.p99_ms
                row[f"missed_slo_{cls}"] = metrics.missed_slo_fraction
        if faults and self.faults is not None:
            for key, value in self.faults.items():
                row[key] = float(value)
        return row


def _build_services(config: ClusterConfig, lc_servers: list[Server],
                    rng: np.random.Generator) -> list[_Service]:
    classes: list[tuple[str, float]] = []
    lo, hi = config.class_spread
    for name, count in config.class_counts:
        spreads = (np.linspace(lo, hi, count) if count > 1
                   else np.array([1.0]))
        classes.extend((name, float(s)) for s in spreads)
    services: list[_Service] = []
    for i, (load_class, spread) in enumerate(classes):
        spec = SOCIALNET_SERVICES[i % len(SOCIALNET_SERVICES)]
        fraction = dict(config.load_fractions)[load_class] * spread
        peak_rate = (fraction * spec.rho_for_slo(TURBO_GHZ)
                     * spec.capacity(TURBO_GHZ))
        base = SpikePattern(
            [(config.peak_start_s, config.peak_duration_s, 1.0)],
            base=ConstantPattern(config.base_level),
            peak_rate=peak_rate)
        pattern = NoisyPattern(base, np.random.default_rng(rng.integers(2**31)),
                               sigma=config.load_noise_sigma,
                               noise_period=max(30.0, config.tick_s))
        deployment = MicroserviceDeployment(spec, initial_instances=1)
        home = lc_servers[i]
        vm = VirtualMachine(spec.workers, name=f"svc{i:02d}-inst0",
                            priority=10, workload=spec.name)
        home.place_vm(vm)
        # Unloaded P99 floor at turbo: queue at vanishing load.
        floor_queue = MMcQueue(1e-9, spec.service_rate(TURBO_GHZ),
                               spec.workers)
        services.append(_Service(
            name=f"svc{i:02d}-{spec.name}", spec=spec,
            load_class=load_class, pattern=pattern,
            deployment=deployment, home_server=home, vms=[vm],
            floor_ms=floor_queue.p99_response() * 1000.0))
    return services


def _place_scaleout_vm(service: _Service, pool: list[Server],
                       index: int) -> Optional[VirtualMachine]:
    vm = VirtualMachine(service.spec.workers,
                        name=f"{service.name}-inst{index}",
                        priority=10, workload=service.spec.name)
    for server in pool:
        if server.free_cores >= vm.n_cores:
            server.place_vm(vm)
            return vm
    return None


def run_environment(environment: str, config: ClusterConfig, *,
                    soc_config: Optional[SmartOClockConfig] = None,
                    label: Optional[str] = None,
                    fault_plan: Optional[FaultPlan] = None,
                    fault_seed: Optional[int] = None,
                    hazard_model: Optional[HazardModel] = None
                    ) -> EnvironmentResult:
    """Run one environment over the whole load trace.

    ``soc_config`` overrides the platform configuration for the
    SmartOClock environment (used by the constrained studies to run the
    NaiveOClock ablation); ``label`` renames the result.  ``fault_plan``
    injects control-plane failures (gOA outages, channel loss, telemetry
    dropouts, misprediction skew) into the SmartOClock environment —
    other environments have no control plane to fault.  ``hazard_model``
    engages the crash/recovery lifecycle: servers can die from
    wear/voltage-driven hazard draws (seeded by ``fault_seed`` falling
    back to ``config.seed``, so matched runs share a crash schedule).
    """
    if environment not in ENVIRONMENTS:
        raise ValueError(f"unknown environment {environment!r}; "
                         f"choose from {ENVIRONMENTS}")
    if fault_plan is not None and environment != "SmartOClock":
        raise ValueError(
            "fault injection targets the SmartOClock control plane; "
            f"the {environment} environment has none")
    if hazard_model is not None and environment != "SmartOClock":
        raise ValueError(
            "the crash/recovery lifecycle rides on the SmartOClock "
            f"platform; the {environment} environment has none")
    injector: Optional[FaultInjector] = None
    if fault_plan is not None and not fault_plan.empty:
        injector = FaultInjector(
            fault_plan,
            seed=config.seed if fault_seed is None else fault_seed)
    rng = np.random.default_rng(config.seed)
    model = DEFAULT_POWER_MODEL

    # --- topology ---------------------------------------------------------
    n_rack1 = config.n_lc_servers + config.n_ml_servers
    lc_servers = [Server(f"lc-{i:02d}", model)
                  for i in range(config.n_lc_servers)]
    ml_servers = [Server(f"ml-{i:02d}", model)
                  for i in range(config.n_ml_servers)]
    pool = [Server(f"so-{i:02d}", model)
            for i in range(config.n_scaleout_servers)]
    # Estimate the baseline peak power to size the rack limit.
    ml_power = model.uniform_server_watts(config.ml_utilization, TURBO_GHZ,
                                          config.ml_cores)
    lc_power = model.uniform_server_watts(0.9, TURBO_GHZ, 12)
    baseline_peak = (config.n_ml_servers * ml_power
                     + config.n_lc_servers * lc_power)
    if config.rack_limit_factor is None:
        limit1 = n_rack1 * model.max_server_watts()  # never binds
    else:
        limit1 = config.rack_limit_factor * baseline_peak
    rack1 = Rack("rack-main", limit1)
    for server in lc_servers + ml_servers:
        rack1.add_server(server)
    rack2 = Rack("rack-scaleout",
                 max(1.0, config.n_scaleout_servers)
                 * model.max_server_watts())
    for server in pool:
        rack2.add_server(server)
    datacenter = Datacenter("cluster-v a")
    datacenter.add_rack(rack1)
    datacenter.add_rack(rack2)

    # --- workloads ----------------------------------------------------------
    services = _build_services(config, lc_servers, rng)
    ml_jobs: list[tuple[Server, VirtualMachine, MLTrainJob]] = []
    for server in ml_servers:
        vm = VirtualMachine(config.ml_cores, name=f"{server.server_id}-job",
                            priority=1, workload="mltrain",
                            utilization=config.ml_utilization)
        server.place_vm(vm)
        ml_jobs.append((server, vm, MLTrainJob(
            base_throughput=1000.0, utilization=config.ml_utilization)))

    # --- control planes ------------------------------------------------------
    scaler_config = ScalerConfig(high_fraction=0.8, low_fraction=0.25,
                                 consecutive_ticks=2, scale_in_ticks=18,
                                 max_instances=config.max_instances,
                                 boot_delay_s=config.boot_delay_s,
                                 cooldown_s=120.0)
    platform: Optional[SmartOClockPlatform] = None
    managers: list[RackPowerManager] = []
    if environment == "SmartOClock":
        if soc_config is None:
            soc_config = platform_config(config)
        platform = SmartOClockPlatform(
            datacenter, soc_config, fault_injector=injector,
            hazard_model=hazard_model,
            recovery_seed=config.seed if fault_seed is None else fault_seed)
        managers = list(platform.rack_managers.values())
        # SmartOClock scales out only as a fallback: the reactive band is
        # set past the overclocking band (§IV-D: the scale-up threshold is
        # set before scale-out).
        # The fallback must be both higher-threshold and slower than the
        # overclocking trigger (0.7 / 3 ticks): overclocking gets the
        # first chance to absorb the spike, and only a persistent
        # violation scales out.
        fallback_config = dataclasses.replace(scaler_config,
                                              high_fraction=0.9,
                                              consecutive_ticks=4)
        if config.wi_trigger in ("schedule", "both"):
            # The peak window is known ahead of time (time-of-day of the
            # reference Monday the run starts on); overclocking is
            # reserved for exactly that window.
            start_h = config.peak_start_s / 3600.0
            end_h = min(24.0, (config.peak_start_s
                               + config.peak_duration_s) / 3600.0)
            schedule = OverclockSchedule([((0,), start_h, end_h)])
        else:
            schedule = None
        for service in services:
            metrics_policy = MetricsTriggerPolicy(
                start_fraction=0.7, stop_fraction=0.15, consecutive=2)
            agent = platform.register_service(
                service.name,
                metrics_policy=(None if config.wi_trigger == "schedule"
                                else metrics_policy),
                schedule=schedule,
                rejections_per_scale_out=1)
            service.scaler = HorizontalAutoscaler(
                fallback_config, service.spec.slo_ms, initial_instances=1)
            scaler = service.scaler
            agent.scale_out_handler = (
                lambda now, n, s=scaler: s.request_scale_out(now, n))
            local = platform.attach_vm(service.name, service.vms[0],
                                       target_freq_ghz=OVERCLOCK_GHZ,
                                       priority=10)
            service.wi_locals[service.vms[0].vm_id] = local
    else:
        managers = [RackPowerManager(rack1), RackPowerManager(rack2)]
        for service in services:
            if environment == "ScaleOut":
                service.scaler = HorizontalAutoscaler(
                    scaler_config, service.spec.slo_ms, initial_instances=1)
            elif environment == "ScaleUp":
                service.vscaler = VerticalScaler(
                    scaler_config, service.spec.slo_ms,
                    turbo_ghz=TURBO_GHZ, max_ghz=OVERCLOCK_GHZ)

    # --- accounting -----------------------------------------------------------
    aggregators = {name: LatencyAggregator()
                   for name, _ in config.class_counts}
    instance_sums = {name: 0.0 for name, _ in config.class_counts}
    all_servers = lc_servers + ml_servers + pool
    energy = {server.server_id: 0.0 for server in all_servers}
    ever_active: set[str] = set()
    slo_ticks = 0
    total_service_ticks = 0
    last_budget_update = -float("inf")
    peak_fraction = 0.0

    ticks = int(config.duration_s / config.tick_s)
    for i in range(ticks):
        now = i * config.tick_s

        # 1. loads + frequency sync (instances follow their VM's cores).
        for service in services:
            rate = service.pattern.rate(now)
            service.deployment.set_load(rate)
            for instance, vm in zip(service.deployment.instances,
                                    service.vms):
                instance.set_frequency(vm.freq_ghz or TURBO_GHZ)

        # 2. observe latency and act (thresholds are on consumed headroom).
        for service in services:
            p99 = service.headroom_latency(
                service.deployment.p99_latency_ms())
            slo = service.spec.slo_ms
            if environment == "ScaleOut":
                service.scaler.observe(now, p99)
            elif environment == "ScaleUp":
                target = service.vscaler.observe(now, p99)
                home = service.vms[0].server
                if home is not None:
                    home.set_vm_frequency(service.vms[0], target)
            elif environment == "SmartOClock":
                platform.services[service.name].observe(now, p99, slo)
                service.scaler.observe(now, p99)
            if service.scaler is not None:
                active = service.scaler.active_instances(now)
                _sync_instances(service, active, pool, platform, now)

        # 3. utilization sync + ML progress.
        for service in services:
            for instance, vm in zip(service.deployment.instances,
                                    service.vms):
                vm.set_utilization(instance.utilization)
        for server, vm, job in ml_jobs:
            job.advance(config.tick_s, vm.freq_ghz or TURBO_GHZ)

        # 4. platform / physical plant.
        if platform is not None:
            platform.tick(now, config.tick_s)
            # Periodic gOA cycles (the weekly cadence compressed to the
            # experiment's timescale, see GOA_CYCLE_S) once enough
            # telemetry exists.
            if now >= config.peak_start_s / 2 and \
                    now - last_budget_update >= GOA_CYCLE_S:
                platform.force_budget_update(now)
                last_budget_update = now
        else:
            for manager in managers:
                manager.sample(now)
            for server in all_servers:
                server.advance(config.tick_s)
        for rack in (rack1, rack2):
            peak_fraction = max(peak_fraction, rack.power_watts()
                                / rack.power_limit_watts)

        # 5. metrics.
        for service in services:
            aggregator = aggregators[service.load_class]
            instance = service.deployment.instances[0]
            rate = service.deployment.total_rate
            aggregator.add_tick(
                weight=rate * config.tick_s,
                offered_rho=instance.offered_rho,
                mu=service.spec.service_rate(instance.freq_ghz),
                servers=service.spec.workers,
                slo_ms=service.spec.slo_ms)
            instance_sums[service.load_class] += service.deployment.n_instances
            total_service_ticks += 1
            if service.deployment.p99_latency_ms() > service.spec.slo_ms:
                slo_ticks += 1
        for server in all_servers:
            if server.vms:
                ever_active.add(server.server_id)
            # A server stays powered once it has been brought into service
            # (clouds do not power servers off after a scale-in).  The
            # per-tick read is O(1) against the cached server wattage.
            if server.server_id in ever_active:
                energy[server.server_id] += (server.power_watts()
                                             * config.tick_s)

    # --- reduce ---------------------------------------------------------------
    per_class: dict[str, ClassMetrics] = {}
    class_sizes = dict(config.class_counts)
    for name, count in config.class_counts:
        home_energy = [energy[s.home_server.server_id]
                       for s in services if s.load_class == name]
        per_class[name] = ClassMetrics(
            p99_ms=aggregators[name].p99_ms(),
            mean_ms=aggregators[name].mean_ms(),
            missed_slo_fraction=aggregators[name].missed_slo_fraction(),
            avg_instances=instance_sums[name] / (ticks * count),
            home_server_energy_j=float(np.mean(home_energy)))

    grants = rejections = 0
    faults: Optional[dict[str, int]] = None
    server_crashes = restored_overgrants = 0
    server_downtime = vm_downtime = wear_accrued = 0.0
    uptime_fraction = 1.0
    if platform is not None:
        stats = platform.grant_statistics()
        grants = stats["granted"]
        rejections = (stats["rejected_power"]
                      + stats["rejected_lifetime"]
                      + stats["rejected_quarantine"])
        wear_accrued = left_sum(c.wear_seconds - c.busy_seconds
                                for soa in platform.soas.values()
                                for c in soa.wear_counters)
        lifecycle = platform.lifecycle
        if lifecycle is not None:
            lifecycle.finish(config.duration_s)
            server_crashes = lifecycle.counters.server_crashes
            server_downtime = lifecycle.server_downtime.total_downtime_s
            vm_downtime = lifecycle.vm_downtime.total_downtime_s
            uptime_fraction = 1.0 - server_downtime / (
                len(all_servers) * config.duration_s)
            restored_overgrants = sum(
                1 for r in lifecycle.restore_reports if r.overgranted)
        faults = platform.fault_counters()
    scale_outs = sum(s.scaler.scale_out_count for s in services
                     if s.scaler is not None)
    ml_rate = float(np.mean([job.average_throughput()
                             for _, _, job in ml_jobs])) if ml_jobs else 0.0
    return EnvironmentResult(
        environment=label or environment,
        per_class=per_class,
        # sorted(): set iteration is hash-randomized across processes,
        # and float summation order must not leak into the result.
        total_energy_j=left_sum(energy[sid] for sid in sorted(ever_active)),
        ml_throughput=ml_rate,
        cap_events=sum(len(m.cap_events) for m in managers),
        overclock_grants=grants,
        overclock_rejections=rejections,
        scale_outs=scale_outs,
        missed_slo_ticks_fraction=slo_ticks / max(1, total_service_ticks),
        peak_rack_power_fraction=peak_fraction,
        faults=faults,
        server_crashes=server_crashes,
        server_downtime_s=server_downtime,
        server_uptime_fraction=uptime_fraction,
        vm_downtime_s=vm_downtime,
        wear_accrued_s=wear_accrued,
        restored_overgrants=restored_overgrants)


def _sync_instances(service: _Service, active: int, pool: list[Server],
                    platform: Optional[SmartOClockPlatform],
                    now: float) -> None:
    """Grow/shrink the service's VM fleet to ``active`` instances."""
    active = max(1, active)
    while len(service.vms) < active:
        vm = _place_scaleout_vm(service, pool, len(service.vms))
        if vm is None:
            break  # pool exhausted
        service.vms.append(vm)
        if platform is not None:
            local = platform.attach_vm(service.name, vm,
                                       target_freq_ghz=OVERCLOCK_GHZ,
                                       priority=10)
            service.wi_locals[vm.vm_id] = local
    while len(service.vms) > active:
        vm = service.vms.pop()
        if platform is not None:
            local = service.wi_locals.pop(vm.vm_id, None)
            if local is not None:
                local.stop(now)
                platform.services[service.name].detach(local)
        if vm.server is not None:
            vm.server.remove_vm(vm)
    service.deployment.scale_to(len(service.vms))


# ---------------------------------------------------------------------------
# Matched runs: the runner behind the faults, recovery and oversub scenarios
# ---------------------------------------------------------------------------

def run_environment_job(kwargs: dict[str, Any]) -> EnvironmentResult:
    """Spawn-pool worker: one :func:`run_environment` call from its keyword
    arguments.  Module-level so the pool pickles it by reference; every
    argument is a frozen recipe, so a worker's run is byte-identical to
    the same call in the driver."""
    return run_environment(**kwargs)


def run_variants(cluster: ClusterConfig, variants: Sequence[dict[str, Any]],
                 *, workers: Optional[int] = 1) -> list[EnvironmentResult]:
    """Run matched SmartOClock variants of one cluster, in variant order.

    Each variant holds the rest of a :func:`run_environment` call's
    keyword arguments (label, platform config, fault plan, hazard
    model, ...).  The variants share nothing mutable, so they shard over
    a spawn pool (``workers``) with a deterministic merge."""
    from repro.experiments.parallel import run_jobs
    return list(run_jobs(run_environment_job,
                         [dict(variant, environment="SmartOClock",
                               config=cluster)
                          for variant in variants], workers=workers))


def format_run_table(runs: Sequence[tuple[str, dict[str, float]]],
                     width: int) -> str:
    """Metric × run text table: one line per metric (sorted), one
    ``width``-wide column per ``(heading, row)`` run, ``-`` where a run
    lacks the metric.  Fixed precision, so repeated runs print the same."""
    keys = sorted(set().union(*(row for _, row in runs)))
    lines = [f"{'metric':<28}"
             + "".join(f"{heading:>{width}}" for heading, _ in runs)]
    for key in keys:
        cells = ("-" if key not in row else f"{row[key]:.6g}"
                 for _, row in runs)
        lines.append(f"{key:<28}"
                     + "".join(f"{cell:>{width}}" for cell in cells))
    return "\n".join(lines)


def cluster_experiment(config: Optional[ClusterConfig] = None
                       ) -> dict[str, EnvironmentResult]:
    """Figs. 12-14: all four environments on the same load trace."""
    config = config or ClusterConfig()
    return {env: run_environment(env, config) for env in ENVIRONMENTS}


# ---------------------------------------------------------------------------
# §V-A constrained studies
# ---------------------------------------------------------------------------

def power_constrained_experiment(
        config: Optional[ClusterConfig] = None, *,
        rack_limit_factor: float = 0.97
) -> dict[str, EnvironmentResult]:
    """Reduced rack limit: NaiveOClock vs SmartOClock (§V-A).

    NaiveOClock grants every request (no admission control) and suffers
    capping; the paper reports SmartOClock reducing SocialNet tail latency
    and improving MLTrain throughput in this regime.
    """
    base = config or ClusterConfig()
    constrained = dataclasses.replace(base,
                                      rack_limit_factor=rack_limit_factor)
    naive_config = platform_config(
        constrained, enable_proactive_scaleout=False).as_naive()
    naive = run_environment("SmartOClock", constrained,
                            soc_config=naive_config, label="NaiveOClock")
    # In a deliberately power-constrained rack the operator narrows the
    # safety margin (the default 5 % band would forbid overclocking at
    # peak altogether); the differentiator vs NaiveOClock is that the
    # admission control and warnings keep the rack cap-free.
    smart = run_environment(
        "SmartOClock", constrained,
        soc_config=platform_config(constrained, warning_fraction=0.985))
    return {"NaiveOClock": naive, "SmartOClock": smart}


def overclock_constrained_experiment(
        config: Optional[ClusterConfig] = None, *,
        budget_scales: tuple[float, ...] = (0.75, 0.50, 0.25)
) -> dict[float, dict[str, float]]:
    """Restricted overclocking budgets: reactive vs proactive scale-out.

    The overclocking budget is sized so the peak *just* fits at scale 1.0,
    then reduced to 75/50/25 %.  Reported metric: fraction of service
    ticks above SLO (the paper's "misses the SLO for x% of time").
    """
    base = config or ClusterConfig()
    # Budget that exactly covers the peak window once per epoch-week.
    full_budget = base.peak_duration_s / (7 * 86400.0)
    out: dict[float, dict[str, float]] = {}
    for scale in budget_scales:
        row: dict[str, float] = {}
        for mode, proactive in (("reactive", False), ("proactive", True)):
            tuned = dataclasses.replace(
                base,
                oc_budget_fraction=scale * full_budget,
                proactive_scaleout=proactive)
            result = run_environment("SmartOClock", tuned)
            row[mode] = result.missed_slo_ticks_fraction
        out[scale] = row
    return out
