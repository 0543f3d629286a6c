"""Equivalence tests for the incremental power-accounting layer.

Every mutation path through the topology (placement, frequency steps,
utilization writes, per-core overrides, core reassignment, cap/restore
cycles) delta-updates the cached server/rack/datacenter wattage; these
tests assert the caches always agree with a from-scratch per-core
recompute, including after long randomized mutation sequences.
"""

import random

import pytest

from repro.cluster.capping import RackPowerManager
from repro.cluster.containers import Container, ContainerHost
from repro.cluster.frequency import FrequencyPlan
from repro.cluster.power import DEFAULT_POWER_MODEL, PowerModel
from repro.cluster.topology import Datacenter, Rack, Server, VirtualMachine

LOW_SKU = PowerModel(plan=FrequencyPlan(base_ghz=2.0, turbo_ghz=2.8,
                                        overclock_max_ghz=3.4),
                     idle_watts=120.0, cores=32)


def assert_in_sync(dc, rel=1e-6):
    """Cached power == from-scratch recompute at every level."""
    for rack in dc.racks.values():
        for server in rack.servers:
            assert server.power_watts() == pytest.approx(
                server.recompute_power_watts(), rel=rel, abs=1e-9)
        assert rack.power_watts() == pytest.approx(
            rack.recompute_power_watts(), rel=rel, abs=1e-9)
    assert dc.total_power_watts() == pytest.approx(
        dc.recompute_total_power_watts(), rel=rel, abs=1e-9)


def build_dc(n_racks=2, servers_per_rack=3, limit=2000.0):
    dc = Datacenter("equiv")
    for r in range(n_racks):
        rack = Rack(f"r{r}", limit)
        for s in range(servers_per_rack):
            model = DEFAULT_POWER_MODEL if (r + s) % 2 == 0 else LOW_SKU
            rack.add_server(Server(f"r{r}-s{s}", model))
        dc.add_rack(rack)
    return dc


class TestDeterministicPaths:
    def test_placement_and_removal_update_caches(self):
        dc = build_dc()
        server = dc.find_server("r0-s0")
        vm = VirtualMachine(8, utilization=0.7)
        server.place_vm(vm)
        assert_in_sync(dc)
        server.remove_vm(vm)
        assert_in_sync(dc)
        assert server.power_watts() == pytest.approx(
            server.power_model.idle_watts)

    def test_frequency_and_utilization_updates(self):
        dc = build_dc()
        server = dc.find_server("r0-s0")
        vm = VirtualMachine(8, utilization=0.5)
        server.place_vm(vm)
        server.set_vm_frequency(vm, 4.0)
        assert_in_sync(dc)
        vm.utilization = 0.9
        assert_in_sync(dc)
        vm.set_utilization(0.0)
        assert_in_sync(dc)

    def test_core_override_and_reassignment(self):
        dc = build_dc()
        server = dc.find_server("r0-s0")
        vm = VirtualMachine(4, utilization=0.5)
        server.place_vm(vm)
        cores = server.vm_cores(vm)
        cores[0].utilization_override = 1.0
        assert_in_sync(dc)
        cores[1].utilization_override = 0.0
        assert_in_sync(dc)
        new_cores = [c for c in server.cores if not c.allocated][-4:]
        server.reassign_vm_cores(vm, new_cores)
        assert_in_sync(dc)

    def test_background_watts_delta(self):
        dc = build_dc()
        server = dc.find_server("r1-s1")
        server.background_watts = 25.0
        assert_in_sync(dc)
        server.background_watts = 5.0
        assert_in_sync(dc)

    def test_container_host_operations(self):
        dc = build_dc()
        server = dc.find_server("r0-s0")
        vm = VirtualMachine(8, utilization=0.6)
        server.place_vm(vm)
        host = ContainerHost(vm, server)
        host.add_container(Container("web", 4, utilization=0.8))
        assert_in_sync(dc)
        host.boost_container("web", 4.0)
        assert_in_sync(dc)
        host.set_container_utilization("web", 0.3)
        assert_in_sync(dc)
        host.unboost_container("web")
        assert_in_sync(dc)
        host.remove_container("web")
        assert_in_sync(dc)

    def test_cap_and_restore_cycle(self):
        dc = Datacenter("cap")
        rack = Rack("r0", 900.0)
        for s in range(2):
            rack.add_server(Server(f"s{s}", DEFAULT_POWER_MODEL))
        dc.add_rack(rack)
        vms = []
        for server in rack.servers:
            vm = VirtualMachine(16, utilization=1.0)
            server.place_vm(vm)
            server.set_vm_frequency(vm, 4.0)
            vms.append(vm)
        manager = RackPowerManager(rack)
        manager.sample(now=1.0)  # fires a cap event and throttles
        assert_in_sync(dc)
        for vm in vms:
            vm.utilization = 0.05
        assert_in_sync(dc)
        manager.sample(now=2.0)  # restores
        assert_in_sync(dc)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_randomized_mutation_sequence_stays_in_sync(seed):
    """Arbitrary interleavings of every mutation kind never desync the
    cached power from a from-scratch recompute."""
    rng = random.Random(seed)
    dc = build_dc(n_racks=2, servers_per_rack=3, limit=1200.0)
    servers = [s for rack in dc.racks.values() for s in rack.servers]
    managers = {rack.rack_id: RackPowerManager(rack)
                for rack in dc.racks.values()}
    placed: list[VirtualMachine] = []

    def op_place():
        server = rng.choice(servers)
        n = rng.randint(1, 8)
        if server.free_cores < n:
            return
        vm = VirtualMachine(n, utilization=rng.random(),
                            priority=rng.randint(0, 10))
        server.place_vm(vm)
        placed.append(vm)

    def op_remove():
        if not placed:
            return
        vm = placed.pop(rng.randrange(len(placed)))
        vm.server.remove_vm(vm)

    def op_set_frequency():
        if not placed:
            return
        vm = rng.choice(placed)
        plan = vm.server.plan
        freq = rng.uniform(plan.base_ghz - 0.2, plan.overclock_max_ghz + 0.2)
        vm.server.set_vm_frequency(vm, freq)

    def op_set_utilization():
        if not placed:
            return
        rng.choice(placed).utilization = rng.random()

    def op_core_override():
        if not placed:
            return
        vm = rng.choice(placed)
        core = rng.choice(vm.server.vm_cores(vm))
        core.utilization_override = (None if rng.random() < 0.3
                                     else rng.random())

    def op_reassign():
        if not placed:
            return
        vm = rng.choice(placed)
        server = vm.server
        pool = [c for c in server.cores
                if not c.allocated or c.vm_id == vm.vm_id]
        if len(pool) < vm.n_cores:
            return
        server.reassign_vm_cores(vm, rng.sample(pool, vm.n_cores))

    def op_background():
        rng.choice(servers).background_watts = rng.uniform(0.0, 40.0)

    def op_sample():
        for manager in managers.values():
            manager.sample(now=rng.random() * 1e4)

    ops = [op_place, op_place, op_remove, op_set_frequency, op_set_frequency,
           op_set_utilization, op_set_utilization, op_core_override,
           op_reassign, op_background, op_sample]
    for _ in range(400):
        rng.choice(ops)()
        assert_in_sync(dc)


def overclocked_core_scan(server: Server) -> int:
    """The O(cores) scan the maintained counter replaced: the reference."""
    plan = server.plan
    return sum(1 for core in server.cores
               if core.allocated and plan.is_overclocked(core.freq_ghz))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_randomized_overclocked_core_count_matches_scan(seed):
    """Every path that writes a core's frequency or VM binding — the
    server API and the guest-side container writes — keeps
    ``overclocked_core_count()`` equal to a full scan."""
    rng = random.Random(seed)
    server = Server("s0", DEFAULT_POWER_MODEL)
    Rack("r0", 2000.0).add_server(server)
    plan = server.plan
    placed: list[VirtualMachine] = []
    hosts: dict[int, ContainerHost] = {}
    names = iter(range(10 ** 6))

    def op_place():
        n = rng.randint(1, 12)
        if server.free_cores >= n:
            vm = VirtualMachine(n, utilization=rng.random())
            server.place_vm(vm)
            placed.append(vm)

    def op_remove():
        if placed:
            vm = placed.pop(rng.randrange(len(placed)))
            hosts.pop(vm.vm_id, None)
            server.remove_vm(vm)

    def op_set_frequency():
        if placed:
            freq = rng.choice([plan.turbo_ghz, plan.overclock_max_ghz,
                               rng.uniform(plan.base_ghz - 0.2,
                                           plan.overclock_max_ghz + 0.2)])
            server.set_vm_frequency(rng.choice(placed), freq)

    def op_reassign():
        # Container hosts keep their (now stale) cores: a later boost
        # then writes the frequency of a free or foreign core.
        if placed:
            vm = rng.choice(placed)
            pool = [c for c in server.cores
                    if not c.allocated or c.vm_id == vm.vm_id]
            server.reassign_vm_cores(vm, rng.sample(pool, vm.n_cores))

    def op_add_container():
        if placed:
            vm = rng.choice(placed)
            host = hosts.setdefault(vm.vm_id, ContainerHost(vm, server))
            free = len(host.free_cores())
            if free:
                host.add_container(Container(
                    f"c{next(names)}", rng.randint(1, free),
                    utilization=rng.random()))

    def op_boost():
        live = [(h, name) for h in hosts.values() for name in h.containers]
        if live:
            host, name = rng.choice(live)
            if rng.random() < 0.6:
                host.boost_container(name, rng.uniform(
                    plan.turbo_ghz - 0.3, plan.overclock_max_ghz + 0.2))
            else:
                host.unboost_container(name)

    def op_offline():
        server.offline = not server.offline

    ops = [op_place, op_place, op_remove, op_set_frequency, op_set_frequency,
           op_reassign, op_add_container, op_boost, op_boost, op_offline]
    for _ in range(500):
        rng.choice(ops)()
        assert server.overclocked_core_count() == overclocked_core_scan(
            server)
