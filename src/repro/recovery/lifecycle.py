"""Server failure-and-recovery lifecycle.

:class:`ServerLifecycleManager` drives the full crash story on top of a
:class:`~repro.core.platform.SmartOClockPlatform`:

* **crashes** — per-tick hazard draws (wear + voltage →
  :class:`~repro.reliability.hazard.HazardModel`) plus deterministic
  :class:`~repro.faults.spec.ServerCrashFault` windows kill whole
  servers: power off, sOA dead, VMs evacuated;
* **checkpoints** — alive sOAs snapshot their durable state to the
  :class:`~repro.recovery.checkpoint.DurableStore` on a cadence;
* **restarts** — crashed servers power back on after a delay and their
  sOAs restore from the latest checkpoint;
  :class:`~repro.faults.spec.SoaRestart` events exercise the same path
  for an sOA *process* crash with the server still up;
* **evacuation** — VMs of a crashed server restart on surviving
  same-rack servers via the resource-centric placer, with downtime
  accounted per server and per VM;
* **quarantine** — the risk controller blocks OC grants on crash-prone
  or wear-exhausted servers.

Every probabilistic decision uses the fault subsystem's per-event
SeedSequence scheme (:func:`repro.faults.injector.event_entropy`), so a
crash schedule is a pure function of (seed, hazard inputs): matched
naive/SmartOClock runs flip the *same coin* for the same server at the
same instant, and naive's higher hazard makes its crash set a superset
while the histories coincide.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.cluster.placement import PlacementError, ResourceCentricPlacer
from repro.faults.injector import event_entropy
from repro.faults.spec import FaultPlan
from repro.recovery.checkpoint import DurableStore, RestoreReport, SoaCheckpoint
from repro.recovery.quarantine import QuarantineController
from repro.reliability.hazard import HazardModel
from repro.sim.metrics import DowntimeTracker

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids core cycle)
    from repro.cluster.topology import Server, VirtualMachine
    from repro.core.platform import SmartOClockPlatform
    from repro.core.soa import ServerOverclockingAgent

__all__ = ["RecoveryCounters", "ServerLifecycleManager"]


@dataclass
class RecoveryCounters:
    """What the lifecycle manager actually did during a run."""

    server_crashes: int = 0
    forced_crashes: int = 0
    hazard_crashes: int = 0
    server_restarts: int = 0
    soa_restarts: int = 0
    vms_evacuated: int = 0
    evacuation_retries: int = 0
    checkpoints_taken: int = 0
    restores_from_checkpoint: int = 0
    restores_cold: int = 0
    restores_corrupted: int = 0
    grants_revoked_on_restore: int = 0
    quarantines: int = 0

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)


class ServerLifecycleManager:
    """Crash, checkpoint, restore, evacuate — one instance per platform."""

    def __init__(self, platform: "SmartOClockPlatform", *,
                 hazard_model: Optional[HazardModel] = None,
                 plan: Optional[FaultPlan] = None,
                 seed: int = 0,
                 store: Optional[DurableStore] = None,
                 quarantine: Optional[QuarantineController] = None) -> None:
        self.platform = platform
        self.hazard_model = hazard_model
        self.plan = plan if plan is not None else FaultPlan()
        self.seed = seed
        self.store = store if store is not None else DurableStore()
        self.quarantine = quarantine
        self.counters = RecoveryCounters()
        self.server_downtime = DowntimeTracker()
        self.vm_downtime = DowntimeTracker()
        self.restore_reports: list[RestoreReport] = []
        self._placer = ResourceCentricPlacer()
        self._last_checkpoint = -math.inf
        self._server_restart_at: dict[str, float] = {}
        self._soa_restore_at: dict[str, float] = {}
        # (vm, rack_id, earliest placement time)
        self._pending_vms: list[tuple["VirtualMachine", str, float]] = []
        self._fired_soa_restarts: set[tuple[float, Optional[str]]] = set()

    # ------------------------------------------------------------------
    # Tick
    # ------------------------------------------------------------------

    def tick(self, now: float, dt: float) -> None:
        """One lifecycle step; runs before the platform's control tick so
        a server that comes back (or dies) does so at a tick boundary."""
        self._complete_server_restarts(now)
        self._place_pending_vms(now)
        self._crash_servers(now, dt)
        self._fire_soa_restarts(now)
        self._complete_soa_restores(now)
        self._take_checkpoints(now)
        self._scan_wear_quarantine(now)

    def finish(self, now: float) -> None:
        """Close open downtime intervals at the end of the run."""
        self.server_downtime.finish(now)
        self.vm_downtime.finish(now)

    def counter_dict(self) -> dict[str, int]:
        """Counters including the risk controller's quarantine total."""
        if self.quarantine is not None:
            self.counters.quarantines = self.quarantine.quarantines
        return self.counters.as_dict()

    # ------------------------------------------------------------------
    # Crashes
    # ------------------------------------------------------------------

    def _hazard_inputs(self, soa: "ServerOverclockingAgent"
                       ) -> tuple[float, float]:
        """(worst wear ratio, worst current core voltage) for the server."""
        wear_ratio = max(
            (c.wear_ratio for c in soa.wear_counters), default=0.0)
        plan = soa.server.plan
        volts = max((plan.voltage(core.freq_ghz)
                     for core in soa.server.cores),
                    default=plan.voltage(plan.turbo_ghz))
        return wear_ratio, volts

    def _crash_draw(self, server_id: str, now: float, prob: float) -> bool:
        """Per-event deterministic hazard coin flip."""
        if prob <= 0.0:
            return False
        if prob >= 1.0:
            return True
        rng = np.random.default_rng(np.random.SeedSequence(
            event_entropy(self.seed, "server-crash", server_id, now)))
        return bool(rng.random() < prob)

    def _crash_servers(self, now: float, dt: float) -> None:
        for rack_id in sorted(self.platform.datacenter.racks):
            rack = self.platform.datacenter.racks[rack_id]
            for server in sorted(rack.servers, key=lambda s: s.server_id):
                if server.offline:
                    continue
                sid = server.server_id
                if self.plan.server_crash_forced(sid, now):
                    recover_at = max(
                        [c.window.end_s for c in self.plan.server_crashes
                         if c.matches(sid, now)]
                        + [now + self.platform.config.server_restart_delay_s])
                    self._crash_server(server, rack_id, now, recover_at,
                                       forced=True)
                    continue
                if self.hazard_model is None:
                    continue
                soa = self.platform.soas[sid]
                wear_ratio, volts = self._hazard_inputs(soa)
                prob = self.hazard_model.tick_failure_probability(
                    wear_ratio, volts, dt)
                if self._crash_draw(sid, now, prob):
                    recover_at = \
                        now + self.platform.config.server_restart_delay_s
                    self._crash_server(server, rack_id, now, recover_at,
                                       forced=False)

    def _crash_server(self, server: "Server", rack_id: str, now: float,
                      recover_at: float, *, forced: bool) -> None:
        sid = server.server_id
        self.counters.server_crashes += 1
        if forced:
            self.counters.forced_crashes += 1
        else:
            self.counters.hazard_crashes += 1
        soa = self.platform.soas[sid]
        if soa.alive:
            soa.crash(now)
        # An sOA process restore pending on this server is superseded by
        # the full server restart.
        self._soa_restore_at.pop(sid, None)
        self.server_downtime.mark_down(sid, now)
        delay = self.platform.config.vm_restart_delay_s
        for vm in sorted(server.vms.values(), key=lambda v: v.vm_id):
            self.vm_downtime.mark_down(vm.name, now)
            server.remove_vm(vm)
            self._pending_vms.append((vm, rack_id, now + delay))
            self.counters.vms_evacuated += 1
        server.offline = True
        self._server_restart_at[sid] = recover_at
        if self.quarantine is not None:
            self.quarantine.record_crash(sid, now)

    # ------------------------------------------------------------------
    # Restarts & restores
    # ------------------------------------------------------------------

    def _complete_server_restarts(self, now: float) -> None:
        due = sorted(sid for sid, at in self._server_restart_at.items()
                     if at <= now)
        for sid in due:
            del self._server_restart_at[sid]
            server = self.platform.soas[sid].server
            server.offline = False
            self.server_downtime.mark_up(sid, now)
            self.counters.server_restarts += 1
            self._restore_soa(sid, now)

    def _fire_soa_restarts(self, now: float) -> None:
        for event in self.plan.soa_restarts:
            key = (event.at_s, event.server_id)
            if key in self._fired_soa_restarts or event.at_s > now:
                continue
            self._fired_soa_restarts.add(key)
            for sid in sorted(self.platform.soas):
                if not event.matches(sid):
                    continue
                soa = self.platform.soas[sid]
                if not soa.alive or soa.server.offline:
                    continue  # already down: the event is moot
                soa.crash(now)
                self._soa_restore_at[sid] = \
                    now + self.platform.config.soa_restart_delay_s

    def _complete_soa_restores(self, now: float) -> None:
        due = sorted(sid for sid, at in self._soa_restore_at.items()
                     if at <= now)
        for sid in due:
            del self._soa_restore_at[sid]
            self._restore_soa(sid, now)

    def _restore_soa(self, server_id: str, now: float) -> None:
        soa = self.platform.soas[server_id]
        load = self.store.load_verified(server_id)
        checkpoint = load.checkpoint
        assert checkpoint is None or isinstance(checkpoint, SoaCheckpoint)
        report = soa.restart(now, checkpoint)
        self.counters.soa_restarts += 1
        if checkpoint is None:
            # Either no checkpoint was ever taken, or the stored one
            # failed fingerprint verification: in both cases the sOA
            # cold-starts rather than trusting bad durable state; the
            # corruption is noted on the audit record.
            self.counters.restores_cold += 1
            if load.corrupted:
                self.counters.restores_corrupted += 1
                report = dataclasses.replace(
                    report, checkpoint_corrupted=True)
        else:
            self.counters.restores_from_checkpoint += 1
        self.counters.grants_revoked_on_restore += report.grants_revoked
        self.restore_reports.append(report)
        # Quarantine state lives in the risk controller, not the
        # checkpoint: re-impose any cooldown still active.
        if self.quarantine is not None \
                and self.quarantine.active(server_id, now):
            soa.quarantined_until = self.quarantine.release_at(server_id)

    # ------------------------------------------------------------------
    # VM evacuation
    # ------------------------------------------------------------------

    def _place_pending_vms(self, now: float) -> None:
        still_pending: list[tuple["VirtualMachine", str, float]] = []
        for vm, rack_id, place_at in self._pending_vms:
            if place_at > now:
                still_pending.append((vm, rack_id, place_at))
                continue
            rack = self.platform.datacenter.racks[rack_id]
            candidates = [s for s in rack.servers if not s.offline]
            try:
                target = self._placer.place(vm, candidates)
            except PlacementError:
                # No same-rack capacity right now (e.g. the only donor is
                # itself down): retry next tick.
                self.counters.evacuation_retries += 1
                still_pending.append((vm, rack_id, place_at))
                continue
            self.vm_downtime.mark_up(vm.name, now)
            self._rebind_local_agent(vm, target.server_id)
            self.platform.note_vm_placement(vm)
        self._pending_vms = still_pending

    def _rebind_local_agent(self, vm: "VirtualMachine",
                            server_id: str) -> None:
        """Point the VM's Local WI agent at its new server's sOA."""
        new_soa = self.platform.soas[server_id]
        for service in self.platform.services.values():
            for local in service.locals:
                if local.vm.vm_id == vm.vm_id:
                    local.soa = new_soa
                    return

    # ------------------------------------------------------------------
    # Checkpoints & quarantine scans
    # ------------------------------------------------------------------

    def _take_checkpoints(self, now: float) -> None:
        interval = self.platform.config.checkpoint_interval_s
        if now - self._last_checkpoint < interval:
            return
        self._last_checkpoint = now
        for sid in sorted(self.platform.soas):
            soa = self.platform.soas[sid]
            if not soa.alive:
                continue
            self.store.save(soa.build_checkpoint(now))
            self.counters.checkpoints_taken += 1

    def _scan_wear_quarantine(self, now: float) -> None:
        if self.quarantine is None \
                or self.quarantine.policy.wear_floor_s <= 0:
            return
        for sid in sorted(self.platform.soas):
            soa = self.platform.soas[sid]
            if not soa.alive:
                continue
            min_available = min(
                (b.available_seconds(now) for b in soa.core_budgets),
                default=0.0)
            if self.quarantine.check_wear(sid, min_available, now):
                soa.quarantined_until = self.quarantine.release_at(sid)
