"""Cross-module integration scenarios exercising whole control loops."""

import numpy as np
import pytest

from repro.cluster.power import DEFAULT_POWER_MODEL
from repro.cluster.topology import Datacenter, Rack, Server, VirtualMachine
from repro.core.config import SmartOClockConfig
from repro.core.platform import SmartOClockPlatform
from repro.core.workload_intelligence import (
    MetricsTriggerPolicy,
    OverclockSchedule,
)

TURBO = DEFAULT_POWER_MODEL.plan.turbo_ghz
MAX = DEFAULT_POWER_MODEL.plan.overclock_max_ghz


def build(n_servers=3, rack_limit=2500.0, config=None):
    rack = Rack("r0", rack_limit)
    servers = [Server(f"s{i}", DEFAULT_POWER_MODEL)
               for i in range(n_servers)]
    for s in servers:
        rack.add_server(s)
    dc = Datacenter()
    dc.add_rack(rack)
    return SmartOClockPlatform(dc, config), servers


class TestEndToEndOverclockCycle:
    """One latency spike: trigger → grant → ramp → relax → stop."""

    def test_full_cycle(self):
        platform, servers = build()
        vm = VirtualMachine(8, utilization=0.9)
        servers[0].place_vm(vm)
        service = platform.register_service(
            "svc", metrics_policy=MetricsTriggerPolicy(
                start_fraction=0.7, stop_fraction=0.3, consecutive=2))
        platform.attach_vm("svc", vm)

        # Two high observations start overclocking.
        service.observe(0.0, 9.0, 10.0)
        service.observe(10.0, 9.0, 10.0)
        platform.tick(10.0, dt=10.0)
        assert vm.freq_ghz == pytest.approx(MAX)

        # The load relaxes; two low observations stop it.
        service.observe(20.0, 2.0, 10.0)
        service.observe(30.0, 2.0, 10.0)
        platform.tick(30.0, dt=10.0)
        assert vm.freq_ghz == pytest.approx(TURBO)

    def test_wear_accounted_during_boost(self):
        platform, servers = build()
        vm = VirtualMachine(8, utilization=0.9)
        servers[0].place_vm(vm)
        service = platform.register_service(
            "svc", metrics_policy=MetricsTriggerPolicy(consecutive=1))
        platform.attach_vm("svc", vm)
        service.observe(0.0, 9.0, 10.0)
        for i in range(1, 6):
            platform.tick(i * 10.0, dt=10.0)
        soa = platform.soas["s0"]
        core = servers[0].vm_cores(vm)[0]
        counter = soa.wear_counters[core.index]
        # Overclocked wear accrues faster than wall-clock time at this
        # utilization because of the voltage acceleration.
        assert counter.overclock_seconds > 0
        assert counter.wear_seconds > 0.9 * counter.busy_seconds


class TestScheduledOverclocking:
    def test_schedule_drives_reservation_and_release(self):
        platform, servers = build()
        vm = VirtualMachine(8, utilization=0.8)
        servers[0].place_vm(vm)
        # Window: Monday 0:00-1:00.
        service = platform.register_service(
            "svc", schedule=OverclockSchedule([((0,), 0.0, 1.0)]))
        platform.attach_vm("svc", vm)

        service.apply(60.0)  # inside the window
        assert platform.soas["s0"].is_overclocking(vm.vm_id)
        platform.tick(60.0, dt=10.0)
        assert vm.freq_ghz == pytest.approx(MAX)

        # After the window, the WI agent stops the overclock.
        service.apply(3700.0)
        assert not platform.soas["s0"].is_overclocking(vm.vm_id)


class TestPowerSafetyEndToEnd:
    def test_naive_overclocking_trips_the_rack(self):
        """Without admission control the rack caps; with it, it doesn't."""
        results = {}
        for label, config in (
                ("naive", SmartOClockConfig().as_naive()),
                ("smart", SmartOClockConfig())):
            # Rack limit sized so baseline fits but boosts do not.
            platform, servers = build(n_servers=3, rack_limit=890.0,
                                      config=config)
            vms = []
            for server in servers:
                vm = VirtualMachine(16, utilization=1.0)
                server.place_vm(vm)
                vms.append(vm)
            service = platform.register_service(
                "svc", metrics_policy=MetricsTriggerPolicy(consecutive=1))
            for vm in vms:
                platform.attach_vm("svc", vm)
            service.observe(0.0, 9.0, 10.0)
            for i in range(1, 8):
                platform.tick(i * 10.0, dt=10.0)
                service.apply(i * 10.0)
            results[label] = platform.total_cap_events()
        assert results["naive"] > 0
        assert results["smart"] <= results["naive"]

    def test_rack_never_ends_above_limit_with_smart(self):
        platform, servers = build(n_servers=3, rack_limit=900.0)
        for server in servers:
            vm = VirtualMachine(16, utilization=1.0)
            server.place_vm(vm)
            service_name = f"svc-{server.server_id}"
            service = platform.register_service(
                service_name,
                metrics_policy=MetricsTriggerPolicy(consecutive=1))
            platform.attach_vm(service_name, vm)
            service.observe(0.0, 9.0, 10.0)
        for i in range(1, 30):
            platform.tick(i * 10.0, dt=10.0)
        rack = platform.datacenter.racks["r0"]
        assert rack.power_watts() <= rack.power_limit_watts + 1e-6


class TestLifetimeExhaustion:
    """§IV-D: the epoch budget runs out under a granted, overclocked VM.

    With admission control on, a metric grant's lease ends when its
    cores' budget would, so expiry revokes it first.  A grant without a
    lease (admission control off) burns the budget down instead: the sOA
    moves the VM onto cores that still have budget, and once none has
    any, revokes the grant and tells the owning service."""

    def test_reschedule_then_revoke(self):
        config = SmartOClockConfig(
            enable_admission_control=False, enable_proactive_scaleout=False,
            oc_budget_fraction=0.1, epoch_seconds=1200.0)  # 120 s a core
        platform, (server,) = build(n_servers=1, rack_limit=8000.0,
                                    config=config)
        vm = VirtualMachine(len(server.cores) // 2, utilization=0.9)
        server.place_vm(vm)
        scale_outs = []
        service = platform.register_service(
            "svc", metrics_policy=MetricsTriggerPolicy(consecutive=1),
            scale_out_handler=lambda now, n: scale_outs.append(now),
            rejections_per_scale_out=1)
        platform.attach_vm("svc", vm)
        service.observe(0.0, 9.0, 10.0)
        soa = platform.soas[server.server_id]

        def cores():
            return [core.index for core in server.vm_cores(vm)]

        def has_budget(index, now):
            return soa.core_budgets[index].available_seconds(now) \
                >= config.min_grant_s

        first, now = cores(), 0.0
        while cores() == first:
            now += 10.0
            assert now <= 300.0, "the VM never moved off its spent cores"
            platform.tick(now, dt=10.0)
        moved = cores()
        assert not set(moved) & set(first)
        assert not any(has_budget(i, now) for i in first)
        assert all(has_budget(i, now) for i in moved)
        assert soa.is_overclocking(vm.vm_id)
        assert vm.freq_ghz > TURBO
        assert scale_outs == []

        while soa.is_overclocking(vm.vm_id):
            now += 10.0
            assert now <= 600.0, "the grant outlived every core's budget"
            platform.tick(now, dt=10.0)
        assert not any(has_budget(i, now) for i in range(len(server.cores)))
        assert not soa.loop.is_engaged(vm)
        assert vm.freq_ghz == pytest.approx(TURBO)
        assert scale_outs == [now]
        assert service.exhaustion_signals == 0


class TestTraceToPolicyPipeline:
    def test_fleet_generation_to_policy_comparison(self):
        """Synthetic traces flow through templates, budgets, and the
        policy kernels without manual glue."""
        from repro.experiments.largescale import compare_policies_streaming
        from repro.traces.synthetic import FleetConfig
        scores = compare_policies_streaming(
            FleetConfig(n_racks=1, weeks=2, seed=13, servers_per_rack_min=8,
                        servers_per_rack_max=8, p99_util_beta=(2.0, 2.0),
                        p99_util_range=(0.85, 0.95)),
            policy_names=("Central", "NaiveOClock", "SmartOClock"))
        assert scores["Central"].success_rate >= \
            scores["SmartOClock"].success_rate - 0.02
        assert scores["NaiveOClock"].cap_events >= \
            scores["SmartOClock"].cap_events
