"""Macro-benchmark: lazy platform accounting vs the eager reference
(ISSUE 10 tentpole).

The eager oracle (``SmartOClockConfig(eager_accounting=True)``) runs the
original per-tick loops: every ``Server.advance`` walks every VM and
core, every sOA runs its full control tick, every channel pumps.  The
lazy fast path coalesces accrual into change-point runs, skips control
work on idle sOAs, and pumps only channels with traffic.  Both paths
are *bit-identical* (see tests/experiments/test_platform_equivalence.py),
so this benchmark runs the same 2-rack x 20-server week twice — lazy
and eager — asserts every observable matches exactly (equality FIRST:
a fast wrong answer is worthless), then gates the speedup.

The scenario is deliberately idle-heavy — one service per rack drives
grants and enforcement while the other 18 servers just burn power —
because that is the fleet shape the lazy path exists for: the eager
loop pays O(servers x cores) every tick regardless of activity.

The CI gate is 3x (shared runners are noisy); a 2-CPU VM records
~14x.  The sweep half shards ``chaos_sweep`` over a 4-worker spawn
pool and asserts byte-identical metrics.  Only where >= 4 usable CPUs
exist does it record (and gate) the speedup; elsewhere spawn startup and
time-slicing dominate, and it records ``cpu_limited: true`` instead.
"""

import time

from repro.cluster.power import DEFAULT_POWER_MODEL
from repro.cluster.topology import Datacenter, Rack, Server, VirtualMachine
from repro.core.config import SmartOClockConfig
from repro.core.platform import SmartOClockPlatform
from repro.core.workload_intelligence import MetricsTriggerPolicy
from repro.experiments.parallel import resolve_workers

N_RACKS = 2
N_SERVERS = 20  # per rack
VM_CORES = 24
TICK_S = 30.0
WEEK_S = 7 * 86400.0
SLO_MS = 10.0

_MODEL = DEFAULT_POWER_MODEL


def _build(eager: bool):
    """One 2-rack fleet: one overclock-hungry service per rack, the
    rest of the servers loaded but control-idle."""
    datacenter = Datacenter("bench")
    servers = []
    busy_watts = _MODEL.uniform_server_watts(0.6, _MODEL.plan.turbo_ghz,
                                             VM_CORES)
    for r in range(N_RACKS):
        rack = Rack(f"r{r}", 1.08 * N_SERVERS * busy_watts)
        for s in range(N_SERVERS):
            server = Server(f"r{r}s{s}", _MODEL)
            rack.add_server(server)
            servers.append(server)
        datacenter.add_rack(rack)
    config = SmartOClockConfig(control_interval_s=TICK_S,
                               eager_accounting=eager)
    platform = SmartOClockPlatform(datacenter, config)
    services = []
    for i, server in enumerate(servers):
        vm = VirtualMachine(VM_CORES, name=f"vm{i}", priority=10,
                            workload=f"w{i}", utilization=0.6)
        server.place_vm(vm)
        if i % N_SERVERS == 0:  # one active service per rack
            agent = platform.register_service(
                f"svc{i}", metrics_policy=MetricsTriggerPolicy(
                    start_fraction=0.7, stop_fraction=0.2, consecutive=2))
            platform.attach_vm(f"svc{i}", vm,
                               target_freq_ghz=_MODEL.plan.overclock_max_ghz,
                               priority=10)
            services.append((agent, vm))
    return platform, datacenter, services


def _run(eager: bool):
    """One simulated week; returns (elapsed_s, observables)."""
    platform, datacenter, services = _build(eager)
    racks = list(datacenter.racks.values())
    ticks = int(WEEK_S / TICK_S)
    power_trajectory: list[tuple[float, ...]] = []
    start = time.perf_counter()
    for i in range(ticks):
        now = i * TICK_S
        # Square-wave load: half of each simulated day runs hot enough
        # to demand overclocking, half idles — change-points for the
        # lazy path, latency pressure for the grant pipeline.
        hot = (i % 2880) < 1440
        for agent, vm in services:
            vm.set_utilization(0.8 if hot else 0.5)
            agent.observe(now, 8.0 if hot else 2.0, SLO_MS)
        platform.tick(now, TICK_S)
        power_trajectory.append(tuple(r.power_watts() for r in racks))
    elapsed = time.perf_counter() - start
    wear = [counter.state_dict()
            for soa in platform.soas.values()
            for counter in soa.wear_counters]
    cores = [(core.busy_seconds, core.overclock_seconds)
             for rack in racks for server in rack.servers
             for core in server.cores]
    observables = {
        "fault_counters": platform.fault_counters(),
        "grant_statistics": platform.grant_statistics(),
        "channel_statistics": platform.channel_statistics(),
        "power_trajectory": power_trajectory,
        "wear": wear,
        "cores": cores,
    }
    return elapsed, observables


def test_lazy_platform_week_speedup(record_result):
    lazy_s, lazy = _run(eager=False)
    eager_s, eager = _run(eager=True)

    # Equality first, field by field, before any timing matters.
    for key in eager:
        assert lazy[key] == eager[key], f"eager/lazy diverged on {key}"

    speedup = eager_s / lazy_s
    print(f"\nPlatform week, {N_RACKS}x{N_SERVERS} servers x "
          f"{int(WEEK_S / TICK_S)} ticks: eager {eager_s:.2f} s, "
          f"lazy {lazy_s:.2f} s ({speedup:.1f}x)")
    record_result("perf_platform",
                  eager_s=eager_s,
                  lazy_s=lazy_s,
                  speedup=speedup,
                  servers=N_RACKS * N_SERVERS,
                  ticks=int(WEEK_S / TICK_S))
    # CI floor (a 2-CPU VM records ~14x).
    assert speedup >= 3.0


def test_chaos_sweep_4worker_speedup(record_result):
    from repro.experiments.chaos import chaos_sweep

    trials, workers = 8, 4
    start = time.perf_counter()
    serial = chaos_sweep(trials, seed=3, workers=1)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    pooled = chaos_sweep(trials, seed=3, workers=workers)
    pooled_s = time.perf_counter() - start

    # The deterministic merge must be exact before timing counts.
    assert pooled == serial
    assert pooled.metrics() == serial.metrics()

    cpus = resolve_workers(None)
    cpu_limited = cpus < workers
    sweep_speedup = serial_s / pooled_s
    print(f"\nChaos sweep, {trials} trials: serial {serial_s:.2f} s, "
          f"{workers}-worker pool {pooled_s:.2f} s ({sweep_speedup:.1f}x, "
          f"{cpus} usable CPUs)")
    # A pool wider than the usable CPUs cannot show a speedup: record
    # that the machine was CPU-limited instead of a ratio that measures
    # only spawn overhead and time-slicing.
    speedup = {"cpu_limited": True} if cpu_limited else {
        "cpu_limited": False, "sweep_speedup": sweep_speedup}
    record_result("perf_platform",
                  sweep_trials=trials,
                  sweep_serial_s=serial_s,
                  sweep_pooled_s=pooled_s,
                  sweep_workers=workers,
                  usable_cpus=cpus,
                  **speedup)
    # Spawn startup (~1 s/worker: fresh interpreter + numpy import)
    # swamps these short trials unless real parallelism exists; gate
    # only where the pool can actually spread out.
    if not cpu_limited:
        assert sweep_speedup >= 1.5
