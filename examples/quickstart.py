#!/usr/bin/env python3
"""Quickstart: deploy SmartOClock on a small rack and watch one
latency-triggered overclocking cycle end to end.

Run with::

    python examples/quickstart.py
"""

from repro.cluster.power import DEFAULT_POWER_MODEL
from repro.cluster.topology import Datacenter, Rack, Server, VirtualMachine
from repro.core.platform import SmartOClockPlatform
from repro.core.workload_intelligence import MetricsTriggerPolicy

TURBO = DEFAULT_POWER_MODEL.plan.turbo_ghz


def main() -> None:
    # --- physical plant: one rack, four servers -------------------------
    rack = Rack("rack-0", power_limit_watts=1200.0)
    servers = [Server(f"server-{i}", DEFAULT_POWER_MODEL)
               for i in range(4)]
    for server in servers:
        rack.add_server(server)
    datacenter = Datacenter("quickstart-dc")
    datacenter.add_rack(rack)

    # --- the SmartOClock control plane -----------------------------------
    platform = SmartOClockPlatform(datacenter)

    # --- a latency-critical service with one VM -------------------------
    vm = VirtualMachine(8, utilization=0.85, name="frontend-0",
                        priority=10)
    servers[0].place_vm(vm)
    service = platform.register_service(
        "frontend",
        metrics_policy=MetricsTriggerPolicy(
            start_fraction=0.7, stop_fraction=0.3, consecutive=2))
    platform.attach_vm("frontend", vm, target_freq_ghz=4.0)

    slo_ms = 10.0
    print(f"{'t(s)':>5} {'p99(ms)':>8} {'freq(GHz)':>10} "
          f"{'server W':>9} {'state':>12}")

    # Simulated latency telemetry: a load spike from t=30 to t=150.
    def p99_at(t: float) -> float:
        return 9.0 if 30.0 <= t < 150.0 else 2.0

    for tick in range(24):
        now = tick * 10.0
        p99 = p99_at(now)
        service.observe(now, p99, slo_ms)
        platform.tick(now, dt=10.0)
        state = ("overclocked"
                 if platform.soas["server-0"].is_overclocking(vm.vm_id)
                 else "turbo")
        print(f"{now:5.0f} {p99:8.1f} {vm.freq_ghz:10.2f} "
              f"{servers[0].power_watts():9.1f} {state:>12}")

    stats = platform.grant_statistics()
    print(f"\nrequests granted: {stats['granted']}, "
          f"rejected: {stats['rejected_power']} (power) "
          f"+ {stats['rejected_lifetime']} (lifetime)")
    core = servers[0].vm_cores(vm)[0]
    counter = platform.soas["server-0"].wear_counters[core.index]
    print(f"core 0 overclocked for {counter.overclock_seconds:.0f}s, "
          f"wear accrued {counter.wear_seconds:.0f} reference-seconds "
          f"over {counter.elapsed_seconds:.0f}s elapsed")


if __name__ == "__main__":
    main()
