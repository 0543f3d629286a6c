"""The benchmark's six workloads.

Two run the trace-driven Table-I sweep
(:mod:`repro.experiments.largescale`) in one process, on cap-heavy and
on nearly cap-free racks; one drives the same sweep through the spawn
pool; three drive the tick-driven gOA/sOA platform
(:mod:`repro.core.platform`) at different activity densities.
Each workload turns ``(scale, seed)`` into a prepared zero-argument
``run`` callable: the preparation is set-up, the call is the measured
phase, and its :class:`Outcome` carries the simulated output that the
digest covers plus the self-checks of that output.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Outcome:
    """What one measured run produced."""

    payload: Any           # JSON-able simulated output; the digest covers it
    #: operations attempted: (rack, policy) results on the Table-I
    #: workloads, control ticks on the platform ones
    ops: int
    #: work units behind ``work_per_s``: evaluated rack-policy-weeks on
    #: the Table-I workloads, server-ticks on the platform ones
    work: int
    failed_ops: int = 0    # operations whose self-check failed
    errors: list[str] = field(default_factory=list)

    def digest(self) -> str:
        body = json.dumps(self.payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(body.encode()).hexdigest()


@dataclass(frozen=True)
class Workload:
    """A named workload: its pool size, its input sizes per scale, and the
    function that turns ``(seed, **size)`` into a prepared run.  Why each
    exists is in BENCHMARK.json and bench/README.md."""

    name: str
    workers: int
    sizes: dict[str, dict[str, Any]]
    prepare: Callable[..., Callable[[], Outcome]]


# ---------------------------------------------------------------------------
# Trace-driven sweep (Table I)
# ---------------------------------------------------------------------------

class RackResultChecks:
    """Self-check every ``RackSimResult`` as the sweep folds it.

    Wraps ``PolicyAccumulator.add`` (the driver-side fold on every path,
    pooled or not) and records each result that breaks an accounting
    invariant."""

    def __init__(self) -> None:
        from repro.experiments.largescale import PolicyAccumulator
        from tracing import replace

        self.results = 0
        self.errors: list[str] = []

        def make(add: Callable[..., None]) -> Callable[..., None]:
            def checked_add(acc: Any, result: Any) -> None:
                self.results += 1
                problems = [
                    name for name, ok in (
                        ("granted > demanded", result.granted_core_ticks
                         <= result.demanded_core_ticks),
                        ("successful > granted", result.successful_core_ticks
                         <= result.granted_core_ticks * (1 + 1e-12)),
                        ("stranded < 0", result.stranded_watt_ticks >= 0),
                        ("osub caps > caps", result.osub_cap_events
                         <= result.cap_events))
                    if not ok]
                if problems:
                    self.errors.append(
                        f"{result.rack_id}/{result.policy}: "
                        + ", ".join(problems))
                add(acc, result)
            return checked_add

        replace(PolicyAccumulator, "add", make)


def _prepare_table1(classes: tuple[str, ...], racks: int, weeks: int,
                    workers: int, seed: int) -> Callable[[], Outcome]:
    """``table1_streaming`` over ``racks`` racks of each class in
    ``classes``.  Each rack is its own one-rack fleet whose P99 target is
    drawn from one of ``racks`` equal slices of the class's range, and
    every rack has 28 servers: how often a rack caps (and so what it
    costs) depends mostly on those two draws, and stratifying them keeps
    the cost of a run nearly the same from seed to seed."""
    from repro.experiments.largescale import (
        TABLE1_POLICIES,
        cluster_class_fleet_configs,
        table1_streaming,
    )

    configs = {}
    for c, (name, base) in enumerate(cluster_class_fleet_configs(
            weeks=weeks, seed=seed).items()):
        if name not in classes:
            continue
        lo, hi = base.p99_util_range
        for k in range(racks):
            configs[f"{name}/{k}"] = dataclasses.replace(
                base, n_racks=1, servers_per_rack_min=28,
                servers_per_rack_max=28, seed=(seed * 3 + c) * racks + k,
                p99_util_range=(lo + (hi - lo) * k / racks,
                                lo + (hi - lo) * (k + 1) / racks))
    checks = RackResultChecks()
    expected = len(configs) * len(TABLE1_POLICIES)

    def run() -> Outcome:
        scores = table1_streaming(configs, workers=workers)
        payload = {name: {policy: dataclasses.asdict(score)
                          for policy, score in rows.items()}
                   for name, rows in scores.items()}
        errors = list(checks.errors)
        if checks.results != expected:
            errors.append(f"folded {checks.results} results, "
                          f"expected {expected}")
        return Outcome(payload=payload, ops=expected,
                       work=expected * (weeks - 1),
                       failed_ops=(expected if checks.results != expected
                                   else len(checks.errors)),
                       errors=errors)

    return run


# ---------------------------------------------------------------------------
# Tick-driven platform
# ---------------------------------------------------------------------------

def _prepare_platform_week(racks: int, servers: int, days: float,
                           seed: int) -> Callable[[], Outcome]:
    """A fleet of ``racks`` x ``servers``, one overclock-hungry service per
    rack and every other server loaded but control-idle, for ``days`` at
    30 s ticks.  The seed places each rack's service, loads the idle
    servers and draws each service's daily hot window and its latency
    noise; utilization only changes at window edges, so the platform's
    lazy path sees the activity-sparse fleet it was built for."""
    import numpy as np

    from repro.cluster.power import DEFAULT_POWER_MODEL as model
    from repro.cluster.topology import (
        Datacenter,
        Rack,
        Server,
        VirtualMachine,
    )
    from repro.core.config import SmartOClockConfig
    from repro.core.platform import SmartOClockPlatform
    from repro.core.workload_intelligence import MetricsTriggerPolicy

    tick_s, vm_cores, slo_ms = 30.0, 24, 10.0
    ticks_per_day = int(86400 / tick_s)
    ticks = int(days * ticks_per_day)
    rng = np.random.default_rng(seed)
    busy_watts = model.uniform_server_watts(0.6, model.plan.turbo_ghz,
                                            vm_cores)
    datacenter = Datacenter("bench")
    platform_racks = []
    for r in range(racks):
        rack = Rack(f"r{r}", 1.08 * servers * busy_watts)
        for s in range(servers):
            rack.add_server(Server(f"r{r}s{s}", model))
        datacenter.add_rack(rack)
        platform_racks.append(rack)
    platform = SmartOClockPlatform(
        datacenter, SmartOClockConfig(control_interval_s=tick_s))
    services = []
    for r, rack in enumerate(platform_racks):
        active = int(rng.integers(servers))
        for s, server in enumerate(rack.servers):
            vm = VirtualMachine(vm_cores, name=f"vm{r}-{s}", priority=10,
                                workload=f"w{r}-{s}",
                                utilization=float(rng.uniform(0.5, 0.7)))
            server.place_vm(vm)
            if s == active:
                name = f"svc{r}"
                agent = platform.register_service(
                    name, metrics_policy=MetricsTriggerPolicy(
                        start_fraction=0.7, stop_fraction=0.2,
                        consecutive=2))
                platform.attach_vm(
                    name, vm, target_freq_ghz=model.plan.overclock_max_ghz,
                    priority=10)
                services.append((agent, vm))
    # Per service and day: when the hot window opens and how long it
    # lasts (10-14 h), so every seed keeps about half of each day hot.
    days_n = -(-ticks // ticks_per_day)
    opens = rng.integers(0, ticks_per_day, size=(days_n, len(services)))
    lengths = rng.integers(1200, 1681, size=(days_n, len(services)))
    tick = np.arange(ticks)
    day = tick // ticks_per_day
    hot = ((tick % ticks_per_day)[:, None] - opens[day]) % ticks_per_day \
        < lengths[day]
    utils = np.where(hot, 0.8, 0.5).tolist()
    p99s = (np.where(hot, 8.0, 1.5)
            + rng.uniform(-0.5, 0.5, size=hot.shape)).tolist()
    limits = np.array([rack.power_limit_watts for rack in platform_racks])

    def run() -> Outcome:
        trajectory = []
        for i in range(ticks):
            now = i * tick_s
            for j, (agent, vm) in enumerate(services):
                vm.set_utilization(utils[i][j])
                agent.observe(now, p99s[i][j], slo_ms)
            platform.tick(now, tick_s)
            trajectory.append([rack.power_watts() for rack in platform_racks])
        # Rack envelope, checked for every tick at once.
        over = np.array(trajectory) > limits * (1 + 1e-9)
        errors = [f"tick {i}: {platform_racks[r].rack_id} over its limit"
                  for i, r in zip(*np.nonzero(over))]
        payload = {
            "grant_statistics": platform.grant_statistics(),
            "channel_statistics": platform.channel_statistics(),
            "power_trajectory": hashlib.sha256(
                json.dumps(trajectory).encode()).hexdigest(),
            "wear": [counter.state_dict()
                     for soa in platform.soas.values()
                     for counter in soa.wear_counters],
            "cores": [(core.busy_seconds, core.overclock_seconds)
                      for rack in platform_racks for server in rack.servers
                      for core in server.cores],
        }
        return Outcome(payload=payload, ops=ticks,
                       work=ticks * racks * servers,
                       failed_ops=int(np.count_nonzero(over.any(axis=1))),
                       errors=errors)

    return run


def _prepare_chaos(trials: int, seed: int) -> Callable[[], Outcome]:
    """The first ``trials`` trials of the chaos sweep on a rack whose load
    level and power limit the seed draws.  The fault plans stay those of
    trial seeds ``0 .. trials-1``: one trial costs up to 5x another,
    depending on which faults its plan composes, so plans drawn per seed
    would make runs of different seeds incomparable."""
    import numpy as np

    from repro.experiments.chaos import ChaosConfig, chaos_sweep

    rng = np.random.default_rng(seed)
    config = ChaosConfig(base_utilization=float(rng.uniform(0.70, 0.80)),
                         rack_limit_factor=float(rng.uniform(1.04, 1.08)))
    ticks = int(config.duration_s / config.tick_s)

    def run() -> Outcome:
        sweep = chaos_sweep(trials, 0, config, workers=1)
        bad = {(t.seed, v.at_s) for t in sweep.trials for v in t.violations}
        return Outcome(payload=sweep.metrics(), ops=trials * ticks,
                       work=trials * ticks * config.n_servers,
                       failed_ops=len(bad),
                       errors=[f"seed {t.seed}: {v}" for t in sweep.trials
                               for v in t.violations])

    return run


def _prepare_cluster(duration_s: float, seed: int) -> Callable[[], Outcome]:
    from repro.experiments.cluster import ClusterConfig, run_environment

    config = ClusterConfig(duration_s=duration_s, seed=seed)
    ticks = int(config.duration_s / config.tick_s)
    servers = (config.n_lc_servers + config.n_ml_servers
               + config.n_scaleout_servers)

    def run() -> Outcome:
        result = run_environment("SmartOClock", config)
        errors = []
        if result.peak_rack_power_fraction > 1 + 1e-9:
            errors.append(f"rack draw reached "
                          f"{result.peak_rack_power_fraction:.6f} of its limit")
        if result.restored_overgrants:
            errors.append(f"{result.restored_overgrants} restores overgranted")
        return Outcome(payload=dataclasses.asdict(result), ops=ticks,
                       work=ticks * servers,
                       failed_ops=ticks if errors else 0, errors=errors)

    return run


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("table1-high", 1,
             {"full": dict(racks=12, weeks=2),
              "smoke": dict(racks=1, weeks=2)},
             lambda seed, racks, weeks: _prepare_table1(
                 ("High-Power",), racks, weeks, 1, seed)),
    Workload("table1-low", 1,
             {"full": dict(racks=8, weeks=4),
              "smoke": dict(racks=1, weeks=2)},
             lambda seed, racks, weeks: _prepare_table1(
                 ("Low-Power",), racks, weeks, 1, seed)),
    Workload("fleet-pool", 2,
             {"full": dict(racks=2, weeks=3),
              "smoke": dict(racks=1, weeks=2)},
             lambda seed, racks, weeks: _prepare_table1(
                 ("High-Power", "Medium-Power", "Low-Power"), racks, weeks,
                 2, seed)),
    Workload("platform-week", 1,
             {"full": dict(racks=2, servers=20, days=7.0),
              "smoke": dict(racks=2, servers=4, days=0.25)},
             lambda seed, racks, servers, days: _prepare_platform_week(
                 racks, servers, days, seed)),
    Workload("chaos", 1,
             {"full": dict(trials=8), "smoke": dict(trials=1)},
             lambda seed, trials: _prepare_chaos(trials, seed)),
    Workload("cluster", 1,
             {"full": dict(duration_s=7200.0),
              "smoke": dict(duration_s=600.0)},
             lambda seed, duration_s: _prepare_cluster(duration_s, seed)),
)}


def prepare(name: str, scale: str, seed: int) -> Callable[[], Outcome]:
    workload = WORKLOADS[name]
    return workload.prepare(seed, **workload.sizes[scale])
