"""SmartOClock reproduction: workload- and risk-aware overclocking.

A full reimplementation of *SmartOClock: Workload- and Risk-Aware
Overclocking in the Cloud* (ISCA 2024), including every substrate the
paper's evaluation depends on:

* :mod:`repro.core` — the SmartOClock platform itself (WI agents,
  admission control, heterogeneous budgets, decentralized enforcement);
* :mod:`repro.cluster` — datacenter topology, DVFS/power models, rack
  power capping;
* :mod:`repro.sim` — metric primitives, the closed-form accrual fold
  and the per-tick invariant monitor;
* :mod:`repro.workloads` — microservice/ML/WebConf workload models;
* :mod:`repro.traces` — synthetic production-trace generation;
* :mod:`repro.prediction` — power-template prediction;
* :mod:`repro.reliability` — ageing model and overclocking budgets;
* :mod:`repro.autoscale` — the ScaleOut/ScaleUp comparators;
* :mod:`repro.experiments` — drivers regenerating every table and figure.

Quickstart::

    from repro.cluster.power import DEFAULT_POWER_MODEL
    from repro.cluster.topology import Datacenter, Rack, Server, VirtualMachine
    from repro.core.platform import SmartOClockPlatform

    rack = Rack("r0", power_limit_watts=2000.0)
    server = Server("s0", DEFAULT_POWER_MODEL)
    rack.add_server(server)
    dc = Datacenter()
    dc.add_rack(rack)
    platform = SmartOClockPlatform(dc)
"""

__version__ = "1.0.0"

__all__ = [
    "sim",
    "cluster",
    "workloads",
    "traces",
    "prediction",
    "reliability",
    "autoscale",
    "core",
    "experiments",
]
