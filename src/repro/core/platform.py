"""The composed SmartOClock platform.

Wires the whole architecture of paper Fig. 10 onto a simulated cluster:
one sOA per server, one gOA + rack power manager per rack, and per-service
Global WI agents with per-VM Local WI agents.  The platform is tick-driven
(``tick(now, dt)``): experiments advance simulated time and the platform
runs its control, telemetry, capping and budget-update cadences.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.cluster.capping import (
    FairShareThrottler,
    PrioritizedThrottler,
    RackPowerManager,
)
from repro.cluster.topology import Datacenter, VirtualMachine
from repro.core.config import SmartOClockConfig
from repro.core.goa import GlobalOverclockingAgent
from repro.core.goa_ha import GoaSupervisor
from repro.core.messaging import MessageChannel
from repro.core.soa import ServerOverclockingAgent
from repro.core.types import ExhaustionSignal
from repro.core.workload_intelligence import (
    GlobalWIAgent,
    LocalWIAgent,
    MetricsTriggerPolicy,
    OverclockSchedule,
)

if TYPE_CHECKING:  # core stays layered below repro.faults/repro.recovery
    from repro.faults.injector import FaultInjector
    from repro.recovery.checkpoint import DurableStore
    from repro.recovery.lifecycle import ServerLifecycleManager
    from repro.reliability.hazard import HazardModel

__all__ = ["SmartOClockPlatform"]


class SmartOClockPlatform:
    """SmartOClock deployed on a datacenter.

    ``fault_injector`` (optional) is consulted at every interposition
    point — gOA update cycles, the per-rack gOA↔sOA message channels,
    sOA telemetry sampling, and template predictions.  Without one, all
    channels are healthy and behaviour is identical to the pre-fault
    platform.
    """

    def __init__(self, datacenter: Datacenter,
                 config: Optional[SmartOClockConfig] = None,
                 fault_injector: Optional["FaultInjector"] = None,
                 hazard_model: Optional["HazardModel"] = None,
                 durable_store: Optional["DurableStore"] = None,
                 recovery_seed: Optional[int] = None) -> None:
        self.datacenter = datacenter
        self.config = config or SmartOClockConfig()
        self.fault_injector = fault_injector
        self.soas: dict[str, ServerOverclockingAgent] = {}
        self.goas: dict[str, GlobalOverclockingAgent] = {}
        self.supervisors: dict[str, GoaSupervisor] = {}
        self.channels: dict[str, MessageChannel] = {}
        self.rack_managers: dict[str, RackPowerManager] = {}
        self.services: dict[str, GlobalWIAgent] = {}
        # Revocation/exhaustion routing indexes (add-only supersets):
        # vm_id → service names and server_id → service names with VMs
        # there.  Entries are added on attach and on placement (VM moves
        # never remove the old server's entry); the routing methods
        # re-verify against the live locals, so a stale superset only
        # costs a skipped service, never a wrong delivery.
        self._vm_services: dict[int, set[str]] = {}
        self._server_services: dict[str, set[str]] = {}
        self._last_telemetry = -float("inf")
        self._last_budget_update = -float("inf")

        # Durable store: needed by the recovery lifecycle (sOA
        # checkpoints) and by gOA HA (epoch checkpoints).  The fault
        # injector's corruption hook interposes on every save.
        plan = fault_injector.plan if fault_injector is not None else None
        wants_lifecycle = hazard_model is not None or (
            plan is not None and (plan.server_crashes or plan.soa_restarts
                                  or plan.checkpoint_corruptions))
        self.durable_store: Optional["DurableStore"] = None
        if wants_lifecycle or self.config.enable_goa_ha \
                or durable_store is not None:
            if durable_store is None:
                from repro.recovery.checkpoint import DurableStore
                durable_store = DurableStore()
            if fault_injector is not None \
                    and durable_store.corruption_hook is None:
                durable_store.corruption_hook = \
                    fault_injector.corruption_hook()
            self.durable_store = durable_store

        for rack in datacenter.racks.values():
            rack_soas: list[ServerOverclockingAgent] = []
            for server in rack.servers:
                if self.config.eager_accounting:
                    server.eager_accounting = True
                soa = ServerOverclockingAgent(
                    server, self.config,
                    on_exhaustion=self._route_exhaustion,
                    on_grant_revoked=self._route_revocation)
                if fault_injector is not None:
                    soa.prediction_scale = fault_injector.prediction_hook(
                        server.server_id)
                self.soas[server.server_id] = soa
                rack_soas.append(soa)
            # Prioritized capping is part of the SmartOClock stack; the
            # NaiveOClock ablation falls back to fair-share capping.
            throttler = (PrioritizedThrottler()
                         if self.config.enable_admission_control
                         else FairShareThrottler())
            manager = RackPowerManager(
                rack, warning_fraction=self.config.warning_fraction,
                graceful_restore=self.config.enable_admission_control,
                throttler=throttler)
            for soa in rack_soas:
                manager.on_warning(soa.on_warning)
                manager.on_cap(soa.on_cap)
            self.rack_managers[rack.rack_id] = manager
            channel = MessageChannel(
                fault_injector.channel_hook(rack.rack_id)
                if fault_injector is not None else None)
            self.channels[rack.rack_id] = channel
            if self.config.enable_goa_ha:
                assert self.durable_store is not None
                self.supervisors[rack.rack_id] = GoaSupervisor(
                    rack, self.config, rack_soas, channel,
                    self.durable_store,
                    down_hook=self._ha_down_hook(rack.rack_id))
            else:
                self.goas[rack.rack_id] = GlobalOverclockingAgent(
                    rack, self.config, rack_soas, channel=channel)

        # Crash/recovery lifecycle: engaged when a hazard model is given
        # or the fault plan carries crash/restart/corruption content.
        # Without it, behaviour is identical to the pre-recovery platform.
        self.lifecycle: Optional["ServerLifecycleManager"] = None
        if wants_lifecycle:
            # Local import: repro.core stays importable without the
            # recovery package loaded (layering mirrors repro.faults).
            from repro.recovery.lifecycle import ServerLifecycleManager
            from repro.recovery.quarantine import (
                QuarantineController,
                QuarantinePolicy,
            )
            quarantine = None
            if self.config.enable_quarantine \
                    and self.config.enable_admission_control:
                quarantine = QuarantineController(
                    QuarantinePolicy.from_config(self.config))
            seed = recovery_seed
            if seed is None:
                seed = fault_injector.seed if fault_injector else 0
            self.lifecycle = ServerLifecycleManager(
                self, hazard_model=hazard_model, plan=plan, seed=seed,
                store=durable_store, quarantine=quarantine)

    def _ha_down_hook(self, rack_id: str) -> Callable[[int, float], bool]:
        """Map :class:`~repro.faults.spec.GoaOutage` windows onto HA
        replica 0 — the machine the non-HA deployment runs its only gOA
        on.  Reads the plan directly (not the injector's counting
        ``goa_down``): under HA a primary outage is the supervisor's
        problem, tallied in its own counters."""
        def hook(index: int, at: float) -> bool:
            if index != 0 or self.fault_injector is None:
                return False
            return self.fault_injector.plan.goa_down(rack_id, at)
        return hook

    def _all_goas(self) -> list[GlobalOverclockingAgent]:
        """Every gOA instance: the bare per-rack ones, or both HA
        replicas per rack (for counter aggregation)."""
        goas = list(self.goas.values())
        for supervisor in self.supervisors.values():
            goas.extend(r.goa for r in supervisor.replicas)
        return goas

    # ------------------------------------------------------------------
    # Service registration
    # ------------------------------------------------------------------

    def register_service(self, name: str, *,
                         metrics_policy: Optional[MetricsTriggerPolicy] = None,
                         schedule: Optional[OverclockSchedule] = None,
                         scale_out_handler: Optional[
                             Callable[[float, int], None]] = None,
                         rejections_per_scale_out: int = 2,
                         scale_out_per: int = 1) -> GlobalWIAgent:
        """Create the Global WI agent for a service."""
        if name in self.services:
            raise ValueError(f"service {name!r} already registered")
        agent = GlobalWIAgent(
            name, metrics_policy=metrics_policy, schedule=schedule,
            scale_out_handler=scale_out_handler,
            rejections_per_scale_out=rejections_per_scale_out,
            scale_out_per=scale_out_per)
        self.services[name] = agent
        return agent

    def attach_vm(self, service_name: str, vm: VirtualMachine, *,
                  target_freq_ghz: float = 4.0,
                  priority: int = 0) -> LocalWIAgent:
        """Deploy a VM's Local WI agent and hook it to its server's sOA."""
        if vm.server is None:
            raise ValueError(f"{vm.name} must be placed before attaching")
        service = self.services.get(service_name)
        if service is None:
            raise KeyError(f"unknown service {service_name!r}")
        soa = self.soas[vm.server.server_id]
        local = LocalWIAgent(vm, soa, target_freq_ghz=target_freq_ghz,
                             priority=priority)
        service.attach(local)
        self._vm_services.setdefault(vm.vm_id, set()).add(service_name)
        self._server_services.setdefault(
            vm.server.server_id, set()).add(service_name)
        return local

    def note_vm_placement(self, vm: VirtualMachine) -> None:
        """Record a VM's (re)placement in the routing indexes.

        Called by the recovery lifecycle after an evacuation rebinds the
        VM's Local WI agent to the new server's sOA, so exhaustion
        signals from that server keep reaching the owning service.
        """
        if vm.server is None:
            return
        names = self._vm_services.get(vm.vm_id)
        if names:
            self._server_services.setdefault(
                vm.server.server_id, set()).update(names)

    def _route_revocation(self, vm: VirtualMachine, why: str,
                          now: float) -> None:
        """A grant was revoked (budget ran out): the owning service takes
        corrective action (§IV-D "Managing resource exhaustion")."""
        names = self._vm_services.get(vm.vm_id)
        if not names:
            return
        # Iterate in registration order, restricted by the index, and
        # re-verify against the live locals: identical delivery to the
        # full scan at O(index hit) cost.
        for name, service in self.services.items():
            if name not in names:
                continue
            if any(local.vm.vm_id == vm.vm_id for local in service.locals):
                service.on_rejection(now)
                return

    def _route_exhaustion(self, signal: ExhaustionSignal) -> None:
        """Deliver an sOA exhaustion signal to the services with VMs on the
        affected server."""
        names = self._server_services.get(signal.server_id)
        if not names:
            return
        for name, service in self.services.items():
            if name not in names:
                continue
            if any(local.vm.server is not None
                   and local.vm.server.server_id == signal.server_id
                   for local in service.locals):
                service.on_exhaustion(signal)

    # ------------------------------------------------------------------
    # Time driving
    # ------------------------------------------------------------------

    def tick(self, now: float, dt: float) -> None:
        """Advance the platform by one control interval.

        Order matters and mirrors the paper's architecture: the failure
        lifecycle resolves first (crashes, restarts, evacuations land on
        tick boundaries), then in-flight control messages, then local
        control (sOAs), then rack-level safety (warnings/caps), then the
        slower telemetry and weekly budget cadences.
        """
        if self.lifecycle is not None:
            self.lifecycle.tick(now, dt)
        for channel in self.channels.values():
            if channel.in_flight:
                channel.pump(now)
        for supervisor in self.supervisors.values():
            supervisor.tick(now)
        for soa in self.soas.values():
            if soa.alive:
                soa.control_tick(now, dt)
        for manager in self.rack_managers.values():
            manager.sample(now)
        for rack in self.datacenter.racks.values():
            for server in rack.servers:
                server.advance(dt)
        if now - self._last_telemetry >= self.config.telemetry_interval_s:
            self._last_telemetry = now
            for server_id, soa in self.soas.items():
                if not soa.alive:
                    continue
                if self.fault_injector is not None and \
                        self.fault_injector.telemetry_drop(server_id, now):
                    continue
                soa.telemetry_tick(now)
        if now - self._last_budget_update >= self.config.budget_update_period_s:
            # First update happens immediately (bootstraps fair-share away).
            if self._last_budget_update > -float("inf"):
                self._goa_update(now)
            self._last_budget_update = now

    def _goa_update(self, now: float) -> None:
        """Run each rack's gOA cycle unless its gOA is faulted down.

        Under HA the supervisor decides who runs (whichever replicas
        believe primary and are up) and keeps its own missed-cycle
        tally, so the injector's counting ``goa_down`` is not consulted."""
        for rack_id, goa in self.goas.items():
            if self.fault_injector is not None and \
                    self.fault_injector.goa_down(rack_id, now):
                continue
            goa.update(now)
        for supervisor in self.supervisors.values():
            supervisor.update(now)

    def force_budget_update(self, now: float) -> None:
        """Trigger gOA profile collection + budget recompute immediately
        (skipped for racks whose gOA is faulted down, like the periodic
        cadence)."""
        self._goa_update(now)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def total_power_watts(self) -> float:
        """Current fleet draw: an O(1) read of the datacenter's
        incrementally-maintained power aggregate (no per-core model
        evaluation), cheap enough for per-tick telemetry at fleet scale."""
        return self.datacenter.total_power_watts()

    def rack_power_watts(self) -> dict[str, float]:
        """Per-rack draw snapshot from the cached rack aggregates."""
        return {rack_id: rack.power_watts()
                for rack_id, rack in self.datacenter.racks.items()}

    def total_cap_events(self) -> int:
        return sum(len(m.cap_events) for m in self.rack_managers.values())

    def total_warnings(self) -> int:
        return sum(len(m.warnings) for m in self.rack_managers.values())

    def channel_statistics(self) -> dict[str, int]:
        """Aggregate gOA↔sOA channel counters across racks."""
        totals = {"sent": 0, "delivered": 0, "dropped": 0, "delayed": 0,
                  "failed_pulls": 0}
        for channel in self.channels.values():
            totals["sent"] += channel.sent
            totals["delivered"] += channel.delivered
            totals["dropped"] += channel.dropped
            totals["delayed"] += channel.delayed
            totals["failed_pulls"] += channel.failed_pulls
        return totals

    def fault_counters(self) -> Optional[dict[str, int]]:
        """One consistent counter table for the whole failure surface.

        Merges the injector's activity counters, the recovery
        lifecycle's crash/restore counters and the gOAs' membership
        counters.  Missing subsystems contribute zeros so the table's
        shape is stable; returns None only when the platform runs with
        neither an injector nor a lifecycle.
        """
        if self.fault_injector is None and self.lifecycle is None \
                and not self.supervisors:
            return None
        if self.fault_injector is not None:
            merged = self.fault_injector.counters.as_dict()
        else:
            from repro.faults.injector import FaultCounters
            merged = FaultCounters().as_dict()
        if self.lifecycle is not None:
            merged.update(self.lifecycle.counter_dict())
        else:
            from repro.recovery.lifecycle import RecoveryCounters
            merged.update(RecoveryCounters().as_dict())
        from repro.core.goa_ha import HaCounters
        ha = HaCounters().as_dict()
        for supervisor in self.supervisors.values():
            for key, value in supervisor.counters.as_dict().items():
                ha[key] += value
        merged.update(ha)
        merged["stale_pushes_rejected"] = sum(
            s.stale_pushes_rejected for s in self.soas.values())
        merged["checkpoint_corruption_detected"] = (
            self.durable_store.corruption_detected
            if self.durable_store is not None else 0)
        merged["servers_marked_dead"] = sum(
            g.servers_marked_dead for g in self._all_goas())
        merged["servers_revived"] = sum(
            g.servers_revived for g in self._all_goas())
        return merged

    def grant_statistics(self) -> dict[str, int]:
        received = sum(s.requests_received for s in self.soas.values())
        granted = sum(s.requests_granted for s in self.soas.values())
        rej_power = sum(s.requests_rejected_power
                        for s in self.soas.values())
        rej_life = sum(s.requests_rejected_lifetime
                       for s in self.soas.values())
        rej_quarantine = sum(s.requests_rejected_quarantine
                             for s in self.soas.values())
        return {"received": received, "granted": granted,
                "rejected_power": rej_power, "rejected_lifetime": rej_life,
                "rejected_quarantine": rej_quarantine}
