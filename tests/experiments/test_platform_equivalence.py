"""Equivalence oracle for the fast platform path (ISSUE 10).

Two regression families guard the perf work:

* **Eager vs lazy** — ``SmartOClockConfig(eager_accounting=True)`` runs
  the original per-tick accounting loops (every core accrued every
  tick, every sOA's full control tick, every channel pumped).  The
  lazy default coalesces accrual into change-point runs and skips idle
  control work.  The two must agree *field by field* — fault counters,
  grant/channel statistics, per-core busy/overclock seconds, per-sOA
  wear ledgers, and the full rack power trajectory — under composite
  fault plans, because floats fold left: the lazy path must return what
  the identical additions return, not just an algebraically equal total.
  The faulted runs flush every few ticks; the idle-heavy day replays
  runs long enough to take the closed form of
  :func:`repro.sim.fold.repeat_add`.

* **Worker-count invariance** — the chaos sweep must be byte-identical
  (canonical-JSON report) across ``workers`` 1/2/4: seed-keyed merge,
  no per-process state leaking into results.
"""

import numpy as np
import pytest

import repro.cluster.topology
import repro.reliability.wearout
from repro.cluster.power import DEFAULT_POWER_MODEL
from repro.cluster.topology import Datacenter, Rack, Server, VirtualMachine
from repro.core.config import SmartOClockConfig
from repro.core.platform import SmartOClockPlatform
from repro.core.workload_intelligence import MetricsTriggerPolicy
from repro.experiments.chaos import ChaosConfig, chaos_sweep, format_chaos_report
from repro.faults import FaultInjector, event_entropy
from repro.faults.chaos import generate_plan

_MODEL = DEFAULT_POWER_MODEL
_SLO_MS = 10.0

# Short trials keep the 1/2/4-worker sweeps affordable; the CLI-default
# scale is exercised by the CI smoke diff.
SHORT = ChaosConfig(duration_s=600.0)


def _run_faulted_platform(seed: int, eager: bool, probe=None):
    """One chaos-style faulted run, returning every observable the
    lazy path could plausibly corrupt.  ``probe(platform, servers)``,
    if given, runs after every third tick — the hook the mid-run-read
    test uses to exercise flush-on-read paths at arbitrary points."""
    duration_s, tick_s, n_servers, vm_cores = 1200.0, 10.0, 3, 24
    base_util = 0.75
    server_ids = tuple(f"s{i}" for i in range(n_servers))
    plan = generate_plan(seed, duration_s=duration_s,
                         server_ids=server_ids, tick_s=tick_s)
    injector = FaultInjector(plan, seed=seed)

    busy_watts = _MODEL.uniform_server_watts(base_util, _MODEL.plan.turbo_ghz,
                                             vm_cores)
    rack = Rack("r0", 1.06 * n_servers * busy_watts)
    servers = [Server(sid, _MODEL) for sid in server_ids]
    for server in servers:
        rack.add_server(server)
    datacenter = Datacenter("equiv")
    datacenter.add_rack(rack)
    config = SmartOClockConfig(
        control_interval_s=tick_s,
        telemetry_interval_s=6 * tick_s,
        budget_update_period_s=duration_s / 6.0,
        checkpoint_interval_s=duration_s / 15.0,
        soa_restart_delay_s=3 * tick_s,
        server_restart_delay_s=6 * tick_s,
        vm_restart_delay_s=3 * tick_s,
        enable_goa_ha=True,
        goa_heartbeat_interval_s=3 * tick_s,
        goa_lease_s=9 * tick_s,
        eager_accounting=eager)
    platform = SmartOClockPlatform(datacenter, config, fault_injector=injector)

    services = []
    for i, server in enumerate(servers):
        vm = VirtualMachine(vm_cores, name=f"svc{i}-vm", priority=10,
                            workload=f"svc{i}", utilization=base_util)
        server.place_vm(vm)
        agent = platform.register_service(
            f"svc{i}", metrics_policy=MetricsTriggerPolicy(
                start_fraction=0.7, stop_fraction=0.2, consecutive=2))
        platform.attach_vm(f"svc{i}", vm,
                           target_freq_ghz=_MODEL.plan.overclock_max_ghz,
                           priority=10)
        services.append((agent, vm))

    ticks = int(duration_s / tick_s)
    rng = np.random.default_rng(
        np.random.SeedSequence(event_entropy(seed, "chaos-load")))
    util_noise = rng.uniform(-0.1, 0.1, size=(ticks, len(services)))
    p99_noise = rng.uniform(-1.0, 1.0, size=(ticks, len(services)))

    power_trajectory = []
    for i in range(ticks):
        now = i * tick_s
        in_peak = duration_s / 3.0 <= now < 2.0 * duration_s / 3.0
        for j, (agent, vm) in enumerate(services):
            vm.set_utilization(float(np.clip(
                base_util + (0.15 if in_peak else 0.0) + util_noise[i, j],
                0.05, 1.0)))
            agent.observe(now, (8.5 if in_peak else 2.5)
                          + float(p99_noise[i, j]), _SLO_MS)
        platform.tick(now, tick_s)
        power_trajectory.append(rack.power_watts())
        if probe is not None and i % 3 == 0:
            probe(platform, servers)
    if platform.lifecycle is not None:
        platform.lifecycle.finish(duration_s)

    return {
        "fault_counters": platform.fault_counters(),
        "grant_statistics": platform.grant_statistics(),
        "channel_statistics": platform.channel_statistics(),
        "power_trajectory": power_trajectory,
        "cores": [(core.busy_seconds, core.overclock_seconds)
                  for server in servers for core in server.cores],
        "wear": [counter.state_dict()
                 for soa in platform.soas.values()
                 for counter in soa.wear_counters],
    }


def _run_idle_day(eager: bool):
    """One fault-free simulated day, 1 rack x 4 servers at 30 s ticks:
    a service with a daily hot window on one server, the other three
    loaded but control-idle, so their accrual and wear ledgers coalesce
    into day-long runs."""
    day_s, tick_s, vm_cores = 86400.0, 30.0, 24
    hot_start_s, hot_end_s = 10 * 3600.0, 14 * 3600.0
    # Utilizations whose ``u * dt`` is not a small integer: the sums of
    # such increments round, so only the exact left fold matches.
    idle_utils = (0.41, 0.53, 0.67)
    busy_watts = _MODEL.uniform_server_watts(0.6, _MODEL.plan.turbo_ghz,
                                             vm_cores)
    rack = Rack("r0", 1.08 * 4 * busy_watts)
    servers = [Server(f"s{i}", _MODEL) for i in range(4)]
    for server in servers:
        rack.add_server(server)
    datacenter = Datacenter("idle-day")
    datacenter.add_rack(rack)
    platform = SmartOClockPlatform(
        datacenter, SmartOClockConfig(control_interval_s=tick_s,
                                      eager_accounting=eager))
    vm = VirtualMachine(vm_cores, name="svc-vm", priority=10,
                        workload="svc", utilization=0.46)
    servers[0].place_vm(vm)
    agent = platform.register_service(
        "svc", metrics_policy=MetricsTriggerPolicy(
            start_fraction=0.7, stop_fraction=0.2, consecutive=2))
    platform.attach_vm("svc", vm,
                       target_freq_ghz=_MODEL.plan.overclock_max_ghz,
                       priority=10)
    for i, util in enumerate(idle_utils, start=1):
        servers[i].place_vm(VirtualMachine(vm_cores, name=f"idle{i}",
                                           utilization=util))

    power_trajectory = []
    for i in range(int(day_s / tick_s)):
        now = i * tick_s
        hot = hot_start_s <= now < hot_end_s
        vm.set_utilization(0.77 if hot else 0.46)
        agent.observe(now, 8.0 if hot else 2.0, _SLO_MS)
        platform.tick(now, tick_s)
        power_trajectory.append(rack.power_watts())
    return {
        "grant_statistics": platform.grant_statistics(),
        "power_trajectory": power_trajectory,
        "cores": [(core.busy_seconds, core.overclock_seconds)
                  for server in servers for core in server.cores],
        "wear": [counter.state_dict()
                 for soa in platform.soas.values()
                 for counter in soa.wear_counters],
    }


class TestEagerVsLazy:
    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_faulted_run_matches_field_by_field(self, seed):
        lazy = _run_faulted_platform(seed, eager=False)
        eager = _run_faulted_platform(seed, eager=True)
        for key in eager:
            assert lazy[key] == eager[key], \
                f"seed {seed}: eager/lazy diverged on {key}"

    def test_mid_run_reads_do_not_perturb_the_run(self):
        # Reads flush pending accrual early (core properties, wear
        # counter state_dicts); forcing those flushes at arbitrary
        # mid-run points must not change where the run ends up — the
        # replayed additions are the same whether folded in one batch
        # at the end or in many partial batches along the way.
        def read_everything(platform, servers):
            for server in servers:
                for core in server.cores:
                    core.busy_seconds
                    core.overclock_seconds
            for soa in platform.soas.values():
                for counter in soa.wear_counters:
                    counter.state_dict()

        undisturbed = _run_faulted_platform(11, eager=False)
        probed = _run_faulted_platform(11, eager=False,
                                       probe=read_everything)
        for key in undisturbed:
            assert probed[key] == undisturbed[key], \
                f"mid-run reads perturbed {key}"

    def test_idle_heavy_day_matches_through_the_closed_form(
            self, monkeypatch):
        calls = {"topology": 0, "wearout": 0}

        def counting(site, kernel):
            def wrapper(acc, inc, n):
                calls[site] += 1
                return kernel(acc, inc, n)
            return wrapper

        for site, module in (("topology", repro.cluster.topology),
                             ("wearout", repro.reliability.wearout)):
            monkeypatch.setattr(module, "repeat_add",
                                counting(site, module.repeat_add))
        eager = _run_idle_day(eager=True)
        assert calls == {"topology": 0, "wearout": 0}
        lazy = _run_idle_day(eager=False)
        # Both replay sites took the closed form, not only the loop.
        assert calls["topology"] > 0 and calls["wearout"] > 0
        assert any(busy > 0 for busy, _ in eager["cores"])
        assert any(oc > 0 for _, oc in eager["cores"])
        for key in eager:
            assert lazy[key] == eager[key], \
                f"eager/lazy diverged on {key}"

    def test_eager_flag_defaults_off(self):
        assert SmartOClockConfig().eager_accounting is False


class TestWorkerCountInvariance:
    def test_chaos_sweep_byte_identical_across_workers(self):
        reports = {
            workers: format_chaos_report(
                chaos_sweep(10, seed=0, config=SHORT, workers=workers),
                as_json=True)
            for workers in (1, 2, 4)
        }
        assert reports[1] == reports[2]
        assert reports[1] == reports[4]
