#!/usr/bin/env python3
"""Tour of the §VI extensions: container-granularity overclocking, GPU
components, online wear counters, and automatic threshold inference.

Run with::

    python examples/extensions_tour.py
"""

import numpy as np

from repro.cluster.containers import Container, ContainerHost
from repro.cluster.gpu import GPU_FREQUENCY_PLAN, GPU_POWER_MODEL
from repro.cluster.power import DEFAULT_POWER_MODEL
from repro.cluster.topology import Rack, Server, VirtualMachine
from repro.core.threshold_inference import infer_trigger_policy
from repro.reliability import CoreWearoutCounter, OnlineWearBudget

MAX = DEFAULT_POWER_MODEL.plan.overclock_max_ghz
HOUR = 3600.0


def container_granularity() -> None:
    print("=== finer-grained overclocking (containers in VMs) ===")
    server = Server("host", DEFAULT_POWER_MODEL)
    vm = VirtualMachine(16, name="guest")
    server.place_vm(vm)
    host = ContainerHost(vm, server)
    host.add_container(Container("api-frontend", 4, utilization=0.95))
    host.add_container(Container("batch-worker", 12, utilization=0.40))
    baseline = server.power_watts()

    server.set_vm_frequency(vm, MAX)
    whole_vm_delta = server.power_watts() - baseline
    server.set_vm_frequency(vm, DEFAULT_POWER_MODEL.plan.turbo_ghz)

    host.boost_container("api-frontend", MAX)
    container_delta = server.power_watts() - baseline
    print(f"boosting the whole 16-core VM: +{whole_vm_delta:5.1f} W")
    print(f"boosting only the hot 4-core container: "
          f"+{container_delta:5.1f} W "
          f"({container_delta / whole_vm_delta:.0%} of the cost)")


def gpu_components() -> None:
    print("\n=== the same framework on GPUs ===")
    device = Server("gpu-0", GPU_POWER_MODEL)
    job = VirtualMachine(108, utilization=0.9, name="training")
    device.place_vm(job)
    boost = device.power_watts()
    device.set_vm_frequency(job, GPU_FREQUENCY_PLAN.overclock_max_ghz)
    print(f"boost clock {GPU_FREQUENCY_PLAN.turbo_ghz:.2f} GHz: "
          f"{boost:.0f} W; overclocked "
          f"{GPU_FREQUENCY_PLAN.overclock_max_ghz:.2f} GHz: "
          f"{device.power_watts():.0f} W "
          f"(+{device.power_watts() / boost - 1:.0%} power for "
          f"+{GPU_FREQUENCY_PLAN.overclock_max_ghz / GPU_FREQUENCY_PLAN.turbo_ghz - 1:.0%} clock)")


def online_wear() -> None:
    print("\n=== online wear counters vs the offline 10% budget ===")
    v_oc = DEFAULT_POWER_MODEL.plan.voltage(MAX)
    for util in (0.25, 0.5, 0.85):
        counter = CoreWearoutCounter()
        counter.accumulate(48 * HOUR, util, 1.05)
        budget = OnlineWearBudget(counter, warmup_seconds=0.0)
        fraction = budget.sustainable_fraction(util, v_oc)
        verdict = "more than" if fraction > 0.10 else "less than"
        print(f"core at {util:.0%} utilization: counters allow "
              f"{fraction:5.1%} overclocking — {verdict} the offline 10%")


def threshold_inference() -> None:
    print("\n=== inferring overclocking thresholds from history ===")
    rng = np.random.default_rng(3)
    t = np.linspace(0, 6 * np.pi, 2000)
    history = 2.0 + 7.0 * np.clip(np.sin(t), 0, 1) \
        + rng.normal(0, 0.2, 2000)
    slo = 12.0
    inferred = infer_trigger_policy(history, slo, budget_fraction=0.10)
    print(f"history P90 → scale-up at {inferred.scale_up_value:.2f} ms "
          f"({inferred.policy.start_fraction:.0%} of the {slo:.0f} ms SLO)")
    print(f"estimated boost impact → scale-down at "
          f"{inferred.scale_down_value:.2f} ms "
          f"(dithering-safe hysteresis)")


if __name__ == "__main__":
    container_granularity()
    gpu_components()
    online_wear()
    threshold_inference()
