"""Outside-in tracing of the ``repro`` package's layers.

Nothing under ``src/`` knows it is being traced: :func:`install` replaces
the public functions and methods named in :data:`LAYERS` with timing
wrappers, in every loaded ``repro`` module that holds a reference to
them, before the measured phase starts.  Each wrapper opens a span on a
stack; spans are aggregated in memory per (layer, parent layer) as a
call count, a total time and a self time (total minus the time of the
nested spans).  The measured phase itself is the root span ``driver``,
so the self times of all layers plus ``driver.other_s`` (the root's self
time) add up to the traced wall time exactly.

Full spans are kept for two layers only: one per platform tick
(``platform``) and one per (rack, policy) job (``largescale``).

A layer nested in itself (``super()`` calls between two wrapped
overrides) is counted once, at its outermost entry.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from typing import Any, Callable, Optional

#: layer -> wrapped targets, as ``module:Class.method`` or
#: ``module:function``; ``*.method`` means that method on every class the
#: module defines.  Order is the report order.
LAYERS: dict[str, tuple[str, ...]] = {
    "synthetic": ("repro.traces.synthetic:generate_fleet_rack",),
    "policies.fit": ("repro.core.policies:*.begin_week",
                     "repro.core.policies:*.begin_week_fast"),
    "policies.plan": ("repro.core.policies:*.plan_segment",),
    "policies.fallback": ("repro.core.policies:*.fast_decide",
                          "repro.core.policies:*.on_warning",
                          "repro.core.policies:*.on_cap",
                          "repro.core.policies:*.enforcement_budget_at",
                          "repro.core.policies:*.osub_admitted_at"),
    "largescale": ("repro.experiments.largescale:simulate_rack",),
    "parallel.wait": ("repro.experiments.parallel:iter_rack_policy_results",),
    "parallel.fold": ("repro.experiments.largescale:PolicyAccumulator.add",),
    "platform": ("repro.core.platform:SmartOClockPlatform.tick",),
    "lifecycle": ("repro.recovery.lifecycle:ServerLifecycleManager.tick",),
    "checkpoint.save": ("repro.recovery.checkpoint:DurableStore.save",
                        "repro.recovery.checkpoint:DurableStore.save_goa"),
    "checkpoint.load": ("repro.recovery.checkpoint:DurableStore.load",
                        "repro.recovery.checkpoint:DurableStore.load_verified",
                        "repro.recovery.checkpoint:DurableStore.load_goa"),
    "messaging": ("repro.core.messaging:MessageChannel.pump",),
    "goa_ha": ("repro.core.goa_ha:GoaSupervisor.tick",),
    "goa": ("repro.core.goa:GlobalOverclockingAgent.update",
            "repro.core.goa_ha:GoaSupervisor.update"),
    "soa.control": ("repro.core.soa:ServerOverclockingAgent.control_tick",),
    "soa.telemetry": ("repro.core.soa:ServerOverclockingAgent.telemetry_tick",),
    "capping": ("repro.cluster.capping:RackPowerManager.sample",),
    "topology.advance": ("repro.cluster.topology:Server.advance",),
    # Deferred accrual is paid wherever a read or a mutation flushes it;
    # these two private flushes are the only places it runs.
    "topology.accrual": ("repro.cluster.topology:Server._flush_accrual",
                         "repro.core.soa:ServerOverclockingAgent._flush_wear"),
    "topology.mutate": ("repro.cluster.topology:VirtualMachine.set_utilization",
                        "repro.cluster.topology:Server.set_vm_frequency"),
    "wi": ("repro.core.workload_intelligence:GlobalWIAgent.observe",),
    "microservices": (
        "repro.workloads.microservices:MicroserviceDeployment.p99_latency_ms",
        "repro.workloads.microservices:MicroserviceInstance.p99_latency_ms"),
    "cluster.latency": (
        "repro.experiments.cluster:LatencyAggregator.p99_ms",
        "repro.experiments.cluster:LatencyAggregator.mean_ms",
        "repro.experiments.cluster:LatencyAggregator.missed_slo_fraction"),
    "monitors": ("repro.sim.monitors:InvariantMonitor.check",),
}

#: Layers whose every span is kept (start offset, duration).
_FULL_SPANS = ("platform", "largescale")


class Tracer:
    """Span stack plus in-memory aggregates for one traced pass."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        #: open spans, innermost last: [layer, start, time in child spans]
        self.stack: list[list[Any]] = [["driver", self.t0, 0.0]]
        #: (layer, parent) -> [count, total_s, self_s]
        self.aggregates: dict[tuple[str, str], list[float]] = {}
        self.spans: dict[str, list[tuple[float, float]]] = {
            layer: [] for layer in _FULL_SPANS}
        #: counts observed at layer boundaries (ticks planned, caps, ...)
        self.counts: Counter[str] = Counter()
        self.first_result_s: Optional[float] = None
        self.wall_s: Optional[float] = None

    def start(self) -> None:
        """Open the root span, dropping whatever set-up recorded."""
        self.aggregates.clear()
        self.counts.clear()
        for spans in self.spans.values():
            spans.clear()
        self.t0 = time.perf_counter()
        self.stack[:] = [["driver", self.t0, 0.0]]

    def stop(self) -> float:
        """Close the root span; returns the traced wall time."""
        _, start, child = self.stack.pop()
        self.wall_s = time.perf_counter() - start
        self.aggregates[("driver", "")] = [1, self.wall_s,
                                           self.wall_s - child]
        return self.wall_s

    def close(self, frame: list[Any], parent: list[Any],
              elapsed: float) -> None:
        """Fold a finished span (already popped) into the aggregates."""
        parent[2] += elapsed
        key = (frame[0], parent[0])
        agg = self.aggregates.get(key)
        if agg is None:
            agg = self.aggregates[key] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += elapsed
        agg[2] += elapsed - frame[2]
        spans = self.spans.get(frame[0])
        if spans is not None:
            spans.append((frame[1] - self.t0, elapsed))

    # -- per-layer totals -----------------------------------------------

    def self_s(self, layer: str) -> float:
        return sum((a[2] for (name, _), a in self.aggregates.items()
                    if name == layer), 0.0)

    def calls(self, layer: str) -> int:
        return int(sum(a[0] for (name, _), a in self.aggregates.items()
                       if name == layer))


# ---------------------------------------------------------------------------
# Installing wrappers
# ---------------------------------------------------------------------------

def _resolve(target: str) -> list[tuple[Any, str]]:
    """``module:Class.method`` -> [(owner, attribute)] to replace."""
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    if "." not in path:
        return [(module, path)]
    owner_name, attr = path.split(".")
    if owner_name != "*":
        return [(getattr(module, owner_name), attr)]
    return [(cls, attr) for cls in vars(module).values()
            if inspect.isclass(cls) and cls.__module__ == module_name
            and attr in vars(cls)]


def replace(owner: Any, attr: str,
            make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
    """Replace ``owner.attr`` by ``make(original)``.

    A module-level function is also replaced in every loaded ``repro``
    module that imported it by name, so callers that hold their own
    reference see the wrapper too."""
    original = vars(owner)[attr]
    wrapper = make(original)
    setattr(owner, attr, wrapper)
    if inspect.ismodule(owner):
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and module is not None \
                    and vars(module).get(attr) is original:
                setattr(module, attr, wrapper)


def _span_wrapper(tracer: Tracer, layer: str,
                  after: Optional[Callable[..., None]],
                  count: Optional[str]
                  ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    stack, clock = tracer.stack, time.perf_counter

    def make(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            if parent[0] == layer:
                return fn(*args, **kwargs)
            if count is not None:
                tracer.counts[count] += 1
            frame = [layer, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[1]
                stack.pop()
                tracer.close(frame, parent, elapsed)
            if after is not None:
                after(tracer, args, result)
            return result
        return wrapper
    return make


def _generator_wrapper(tracer: Tracer, layer: str
                       ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Time every ``next()`` of a result generator: on the pool path this
    is the driver waiting for workers (and for the reorder buffer)."""
    stack, clock = tracer.stack, time.perf_counter

    def make(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            inner = fn(*args, **kwargs)
            try:
                while True:
                    parent = stack[-1]
                    frame = [layer, clock(), 0.0]
                    stack.append(frame)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        elapsed = clock() - frame[1]
                        stack.pop()
                        tracer.close(frame, parent, elapsed)
                    if tracer.first_result_s is None:
                        tracer.first_result_s = clock() - tracer.t0
                    yield item
            finally:
                inner.close()
        return wrapper
    return make


def _after_plan(tracer: Tracer, args: tuple, plan: Any) -> None:
    start = args[2]
    if plan is not None and plan.stop > start:
        tracer.counts["plan_useful"] += 1
        tracer.counts["plan_ticks"] += plan.stop - start


def _after_simulate(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["ticks"] += result.ticks
    tracer.counts["cap_events"] += result.cap_events
    tracer.counts["warnings"] += result.warnings


_AFTER: dict[str, Callable[..., None]] = {
    "policies.plan": _after_plan,
    "largescale": _after_simulate,
}

#: Targets whose calls are counted on their own, apart from their layer:
#: one ``fast_decide`` per tick that left the vectorized block.
_COUNTED = {"repro.core.policies:*.fast_decide": "fallback_ticks"}


def install(tracer: Tracer) -> None:
    """Wrap every target of :data:`LAYERS` (process-wide, for good)."""
    for layer, targets in LAYERS.items():
        for target in targets:
            if layer == "parallel.wait":
                make = _generator_wrapper(tracer, layer)
            else:
                make = _span_wrapper(tracer, layer, _AFTER.get(layer),
                                     _COUNTED.get(target))
            for owner, attr in _resolve(target):
                replace(owner, attr, make)


class PlatformMonitors:
    """Attach an :class:`~repro.sim.monitors.InvariantMonitor` to every
    :class:`~repro.core.platform.SmartOClockPlatform` and check the safety
    invariants after each of its ticks (the check pass)."""

    def __init__(self) -> None:
        from repro.core.platform import SmartOClockPlatform
        from repro.sim.monitors import InvariantMonitor

        self.platforms: list[Any] = []
        self.monitors: dict[int, Any] = {}

        def make(tick: Callable[..., Any]) -> Callable[..., Any]:
            @functools.wraps(tick)
            def checked_tick(platform: Any, now: float, dt: float) -> None:
                tick(platform, now, dt)
                monitor = self.monitors.get(id(platform))
                if monitor is None:
                    monitor = self.monitors[id(platform)] = \
                        InvariantMonitor(platform)
                    self.platforms.append(platform)
                monitor.check(now)
            return checked_tick

        replace(SmartOClockPlatform, "tick", make)

    def violations(self) -> list[Any]:
        return [v for m in self.monitors.values() for v in m.violations]

    def failed_ticks(self) -> int:
        """Platform ticks with at least one violation."""
        return sum(len({v.at_s for v in m.violations})
                   for m in self.monitors.values())


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer: Tracer, monitors: PlatformMonitors, *,
                  workers: int, driver_cpu_s: float, worker_cpu_s: float,
                  worker_peak_rss_mib: float) -> dict[str, float]:
    """Every per-layer metric of the traced pass (BENCHMARK.json
    ``per_layer``), except the overhead, which needs the untraced runs."""
    wall = tracer.wall_s or 0.0
    s = tracer.self_s
    n = tracer.calls
    platforms = monitors.platforms
    grants = [p.grant_statistics() for p in platforms]
    channels = [p.channel_statistics() for p in platforms]
    received = sum(g["received"] for g in grants)
    ticks = tracer.counts["ticks"]
    fallback_ticks = tracer.counts["fallback_ticks"]
    jobs = [d for _, d in tracer.spans["largescale"]]
    tick_us = [d * 1e6 for _, d in tracer.spans["platform"]]
    layer_self = sum(s(layer) for layer in LAYERS)
    return {
        "synthetic.expand_s": s("synthetic"),
        "synthetic.racks": n("synthetic"),
        "policies.fit_s": s("policies.fit"),
        "policies.fit_calls": n("policies.fit"),
        "policies.plan_s": s("policies.plan"),
        "policies.plan_calls": n("policies.plan"),
        "policies.plan_ticks": tracer.counts["plan_ticks"],
        "policies.plan_useful_frac": (tracer.counts["plan_useful"]
                                      / max(1, n("policies.plan"))),
        "policies.fallback_s": s("policies.fallback"),
        "policies.fallback_ticks": fallback_ticks,
        "largescale.engine_s": s("largescale"),
        "largescale.ticks": ticks,
        "largescale.vector_frac": (ticks - fallback_ticks) / max(1, ticks),
        "largescale.cap_events": tracer.counts["cap_events"],
        "largescale.warnings": tracer.counts["warnings"],
        "largescale.job_p50_s": _quantile(jobs, 0.5),
        "largescale.job_max_s": max(jobs, default=0.0),
        "parallel.first_result_s": tracer.first_result_s or 0.0,
        "parallel.fold_s": s("parallel.fold"),
        "parallel.wait_s": s("parallel.wait"),
        "parallel.worker_cpu_s": worker_cpu_s,
        "parallel.driver_cpu_s": driver_cpu_s,
        "parallel.cpu_util": ((driver_cpu_s + worker_cpu_s)
                              / (workers * wall) if wall else 0.0),
        "parallel.worker_peak_rss_mib": worker_peak_rss_mib,
        "platform.tick_self_s": s("platform"),
        "platform.tick_p50_us": _quantile(tick_us, 0.5),
        "platform.tick_p99_us": _quantile(tick_us, 0.99),
        "soa.control_s": s("soa.control"),
        "soa.control_calls": n("soa.control"),
        "soa.telemetry_s": s("soa.telemetry"),
        "soa.telemetry_calls": n("soa.telemetry"),
        "soa.grant_frac": (sum(g["granted"] for g in grants) / received
                           if received else 0.0),
        "wi.observe_s": s("wi"),
        "topology.advance_s": s("topology.advance"),
        "topology.accrual_s": s("topology.accrual"),
        "topology.mutate_s": s("topology.mutate"),
        "topology.mutations": n("topology.mutate"),
        "lifecycle.tick_s": s("lifecycle"),
        "checkpoint.save_s": s("checkpoint.save"),
        "checkpoint.saves": n("checkpoint.save"),
        "goa.update_s": s("goa"),
        "goa.updates": n("goa"),
        "goa_ha.tick_s": s("goa_ha"),
        "goa_ha.failovers": sum(sup.counters.failovers for p in platforms
                                for sup in p.supervisors.values()),
        "messaging.pump_s": s("messaging"),
        "messaging.sent": sum(c["sent"] for c in channels),
        "messaging.dropped": sum(c["dropped"] for c in channels),
        "capping.sample_s": s("capping"),
        "capping.cap_events": sum(p.total_cap_events() for p in platforms),
        "capping.warnings": sum(p.total_warnings() for p in platforms),
        "microservices.p99_s": s("microservices"),
        "cluster.latency_reduce_s": s("cluster.latency"),
        "monitors.check_s": s("monitors"),
        "monitors.checks": n("monitors"),
        "monitors.violations": len(monitors.violations()),
        "driver.other_s": s("driver"),
        "trace.wall_s": wall,
        "trace.attributed_frac": layer_self / wall if wall else 0.0,
    }
