"""Server Overclocking Agent (paper Fig. 11, §IV-B/§IV-D).

The sOA is the decentralized decision-maker on every server:

* **admission control** — grants/rejects overclocking requests against the
  server's power budget (predicted power + overclock delta ≤ budget) and
  the per-core lifetime budgets;
* **enforcement** — a prioritized feedback loop steps granted VMs toward
  their targets while keeping measured power under the effective budget;
* **exploration** — when constrained by a possibly-stale budget, probes
  beyond it, guided by rack warnings (see
  :class:`~repro.core.exploration.ExplorationController`);
* **lifetime accounting** — consumes per-core epoch budgets while VMs run
  overclocked; reschedules VMs onto cores with remaining budget when their
  cores run dry;
* **exhaustion prediction** — warns the workload-intelligence layer when
  power or lifetime budget will run out within the configured window so it
  can scale out proactively;
* **profiling** — builds the weekly power/overclock profile report the gOA
  uses for heterogeneous budgeting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.cluster.capping import CapEvent, WarningMessage
from repro.cluster.topology import Core, Server, VirtualMachine
from repro.core.budgets import BudgetAssignment
from repro.core.config import SmartOClockConfig
from repro.core.enforcement import FeedbackLoop
from repro.core.exploration import ExplorationController, ExplorationPhase
from repro.core.types import (
    AdmissionDecision,
    ExhaustionKind,
    ExhaustionSignal,
    OverclockRequest,
    RejectionReason,
    RequestKind,
    ServerProfileReport,
)
from repro.core.oversubscription import RISK_LEVELS
from repro.prediction.predictor import TemplateStore
from repro.prediction.quantiles import DailyQuantileTemplate
from repro.recovery.checkpoint import RestoreReport, SoaCheckpoint
from repro.reliability.online_wear import OnlineWearBudget
from repro.reliability.wearout import CoreWearoutCounter, EpochBudget

__all__ = ["ServerOverclockingAgent", "GrantState"]

SECONDS_PER_WEEK = 7 * 86400.0


def _unit_scale(t: float) -> float:
    """Healthy prediction path: no skew."""
    return 1.0


@dataclass
class GrantState:
    """Book-keeping for one active overclocking grant."""

    vm_id: int
    kind: RequestKind
    target_freq_ghz: float
    granted_at: float
    granted_until: Optional[float]
    from_reservation: bool = False


class ServerOverclockingAgent:
    """One sOA per server."""

    def __init__(self, server: Server, config: SmartOClockConfig, *,
                 on_exhaustion: Optional[
                     Callable[[ExhaustionSignal], None]] = None,
                 on_grant_revoked: Optional[
                     Callable[[VirtualMachine, str, float], None]] = None
                 ) -> None:
        self.server = server
        self.config = config
        self.on_exhaustion = on_exhaustion or (lambda signal: None)
        self.on_grant_revoked = on_grant_revoked or (
            lambda vm, why, now: None)

        # Liveness & quarantine.  ``alive`` flips when the sOA process
        # (or its whole server) crashes; ``quarantined_until`` is a
        # cached projection of the platform's risk controller — the
        # controller is the source of truth and re-imposes it after
        # restarts.
        self.alive = True
        self.quarantined_until: Optional[float] = None
        # Fault hook: scales template predictions (1.0 = healthy).  The
        # fault injector installs a per-server skew to model the
        # misprediction regimes of §V / Kumbhare et al.  Survives
        # restarts: the hook models the *environment*, not sOA state.
        self.prediction_scale: Callable[[float], float] = _unit_scale
        # Telemetry counters (harness instrumentation: survive restarts
        # so experiment totals cover the whole run).
        self.requests_received = 0
        self.requests_granted = 0
        self.requests_rejected_power = 0
        self.requests_rejected_lifetime = 0
        self.requests_rejected_quarantine = 0
        self.stale_pushes_rejected = 0
        self._build_fresh_state()

    def _build_fresh_state(self) -> None:
        """(Re)build all in-memory control state, as a newly started sOA
        process would.  Durable state is layered back on top by
        :meth:`restart` when a checkpoint exists."""
        config = self.config
        server = self.server
        self.power_store = TemplateStore(config.template_kind,
                                         config.template_history_weeks)
        self.loop = FeedbackLoop(server,
                                 buffer_watts=config.power_buffer_watts)
        self.explorer = ExplorationController(
            step_watts=config.explore_step_watts,
            confirm_s=config.explore_confirm_s,
            backoff_initial_s=config.explore_backoff_initial_s,
            backoff_factor=config.explore_backoff_factor,
            backoff_max_s=config.explore_backoff_max_s,
            exploit_duration_s=config.exploit_duration_s)
        self.core_budgets = [
            EpochBudget(budget_fraction=config.oc_budget_fraction,
                        epoch_seconds=config.epoch_seconds,
                        weekday_only=config.weekday_only_budget,
                        carryover_cap_epochs=config.carryover_cap_epochs)
            for _ in server.cores
        ]
        self.wear_counters = [CoreWearoutCounter()
                              for _ in server.cores]
        # Lazy wear ledger: control ticks note [dt, tick-count] runs here;
        # the notes replay through ``accumulate_run`` when a counter is
        # read or the server's operating point changes.  Notes pending at
        # a crash are dropped with the rest of the volatile state — the
        # restore overwrites the counters from the checkpoint either way.
        self._pending_wear: list[list[float]] = []
        for counter in self.wear_counters:
            counter._flush_hook = self._flush_wear
        server.set_accrual_hook("soa", self._flush_wear)
        self.online_budgets = [
            OnlineWearBudget(counter,
                             safety_margin=config.online_wear_safety_margin,
                             warmup_seconds=config.online_wear_warmup_s)
            for counter in self.wear_counters
        ]
        self._assignment: Optional[BudgetAssignment] = None
        self._assignment_received_at: Optional[float] = None
        self._grants: dict[int, GrantState] = {}
        # Per-slot-of-week overclock demand telemetry for the gOA profile.
        self._slot_s = config.budget_slot_s
        n_slots = int(round(SECONDS_PER_WEEK / self._slot_s))
        self._oc_requested = np.zeros(n_slots)
        self._oc_granted = np.zeros(n_slots)
        # slot -> vm_id -> that VM's peak request/grant within the slot.
        self._requested_by_vm: dict[int, dict[int, int]] = {}
        self._granted_by_vm: dict[int, dict[int, int]] = {}
        self._regular_power = np.zeros(n_slots)
        self._regular_count = np.zeros(n_slots, dtype=np.int64)
        self._last_exhaustion_signal_at = -float("inf")
        self._last_power_rejection_at = -float("inf")

    # ------------------------------------------------------------------
    # Budget plumbing
    # ------------------------------------------------------------------

    def set_budget_assignment(self, assignment: BudgetAssignment,
                              now: Optional[float] = None) -> None:
        """Install the gOA's latest heterogeneous budget.

        ``now`` is the delivery time (stamped by the message channel);
        it anchors the staleness margin.  Without it the assignment is
        treated as ageless — the pre-channel behaviour.
        """
        if self.server.server_id not in assignment.budgets:
            raise KeyError(f"assignment lacks {self.server.server_id}")
        self._assignment = assignment
        self._assignment_received_at = now

    def receive_budget_push(self, assignment: BudgetAssignment,
                            now: Optional[float] = None) -> None:
        """Channel delivery endpoint for gOA budget pushes.

        A dead sOA process cannot take delivery: the push is silently
        lost (exactly what happens to a message addressed to a crashed
        agent) and the restarted sOA works from its restored assignment
        until the gOA's next cycle.

        Pushes are *epoch-fenced*: a push older than the installed
        assignment's epoch is a delayed/reordered delivery of something
        already superseded (or a split-brain push from a deposed gOA
        primary) — installing it would roll the budget backward *and*
        re-stamp stale data as fresh.  Such pushes are rejected and
        counted.  Equal epochs are re-deliveries of the same assignment
        and install harmlessly (they refresh nothing they shouldn't:
        same epoch means same recompute)."""
        if not self.alive:
            return
        if self._assignment is not None \
                and assignment.epoch < self._assignment.epoch:
            self.stale_pushes_rejected += 1
            return
        self.set_budget_assignment(assignment, now=now)

    def budget_age(self, now: float) -> Optional[float]:
        """Seconds since the current assignment arrived (None before the
        first stamped assignment)."""
        if self._assignment is None or self._assignment_received_at is None:
            return None
        return now - self._assignment_received_at

    def stale_budget_margin(self, now: float) -> float:
        """Safety margin shaved off an ageing assignment (fraction).

        A budget computed for the week it was pushed gets less
        trustworthy each missed update period: after
        ``stale_budget_grace_periods`` the sOA derates its budget by
        ``stale_budget_margin_per_period`` per additional period, capped
        at ``stale_budget_margin_max`` — graceful degradation instead of
        either freezing overclocking or trusting stale data forever.
        """
        age = self.budget_age(now)
        if age is None:
            return 0.0
        period = self.config.budget_update_period_s
        over = age / period - self.config.stale_budget_grace_periods
        if over <= 0.0:
            return 0.0
        return min(self.config.stale_budget_margin_max,
                   over * self.config.stale_budget_margin_per_period)

    def assigned_budget(self, now: float) -> float:
        """The gOA-assigned budget (fair fallback before first assignment),
        derated by the stale-budget safety margin as the assignment ages."""
        if self._assignment is not None:
            # Periodic replay is deliberate here: a stale assignment keeps
            # serving its time-of-week budgets (derated below) until the
            # gOA ships a fresh one.
            budget = self._assignment.budget_at(self.server.server_id, now,
                                                out_of_horizon="wrap")
            return budget * (1.0 - self.stale_budget_margin(now))
        rack = self.server.rack
        if rack is not None:
            return rack.fair_share_watts()
        # Standalone server: its own max power is the only bound.
        return self.server.power_model.max_server_watts()

    def effective_budget(self, now: float) -> float:
        """Assigned budget plus whatever exploration has claimed."""
        return self.assigned_budget(now) + self.explorer.extra_watts

    # ------------------------------------------------------------------
    # Crash / checkpoint / restore lifecycle
    # ------------------------------------------------------------------

    def crash(self, now: float) -> None:
        """The sOA process dies: all volatile control state is lost.

        Enforcement targets die with the process, but the *hardware*
        keeps whatever frequencies were last programmed — a dead agent
        does not reset VM clocks.  The rack capping path, which runs
        independently of the sOA, remains the safety net until
        :meth:`restart` reconciles the frequencies against the restored
        grant ledger.
        """
        self.alive = False
        self.loop.disengage_all(reset_to_turbo=False)
        self._grants.clear()

    def build_checkpoint(self, now: float) -> SoaCheckpoint:
        """Snapshot the durable state (wear counters, epoch budgets,
        template history, grant ledger, last budget assignment) as a
        JSON-compatible payload.  The assignment's budgets go in as its
        cached :class:`~repro.recovery.checkpoint.CanonicalFragment`,
        which the rack's sOAs share until the next push."""
        grants = {
            str(vm_id): {
                "vm_id": grant.vm_id,
                "kind": grant.kind.value,
                "target_freq_ghz": grant.target_freq_ghz,
                "granted_at": grant.granted_at,
                "granted_until": grant.granted_until,
                "from_reservation": grant.from_reservation,
            }
            for vm_id, grant in sorted(self._grants.items())
        }
        assignment = None
        if self._assignment is not None:
            assignment = {
                "slot_s": self._assignment.slot_s,
                "epoch": self._assignment.epoch,
                "received_at": self._assignment_received_at,
                "budgets": self._assignment.budgets_fragment,
            }
        payload = {
            "server_id": self.server.server_id,
            "wear_counters": [c.state_dict() for c in self.wear_counters],
            "epoch_budgets": [b.state_dict() for b in self.core_budgets],
            "templates": self.power_store.state_dict(),
            "grants": grants,
            "assignment": assignment,
        }
        return SoaCheckpoint(server_id=self.server.server_id,
                             taken_at=now, payload=payload)

    def restart(self, now: float,
                checkpoint: Optional[SoaCheckpoint] = None) -> RestoreReport:
        """Bring the sOA process back up, restoring durable state.

        All volatile state is rebuilt from scratch (nothing is
        replayed); the checkpoint layers the durable state back on top.
        Grants the restored ledger cannot prove were still valid — the
        VM left the server, or the grant carries no unexpired deadline —
        are conservatively revoked, and any VM still running overclocked
        without a surviving grant is forced back to turbo.
        """
        self._build_fresh_state()
        self.alive = True
        # Quarantine is a projection of the platform's risk controller;
        # the lifecycle manager re-imposes any active cooldown after the
        # restart (restoring it here from a stale checkpoint could
        # *shorten* a quarantine imposed while we were down).
        self.quarantined_until = None
        report = self._restore_checkpoint(checkpoint, now)
        plan = self.server.plan
        for vm in self.server.vms.values():
            if vm.vm_id in self._grants:
                continue
            if vm.freq_ghz is not None and plan.is_overclocked(vm.freq_ghz):
                self.server.set_vm_frequency(vm, plan.turbo_ghz)
        return report

    def _restore_checkpoint(self, checkpoint: Optional[SoaCheckpoint],
                            now: float) -> RestoreReport:
        if checkpoint is None:
            return RestoreReport(
                server_id=self.server.server_id, restored_at=now,
                checkpoint_taken_at=None, grants_kept=0, grants_revoked=0,
                assignment_age_s=None, stale_margin=0.0,
                checkpoint_budget_watts=None, restored_budget_watts=None)
        payload = checkpoint.payload
        for counter, state in zip(self.wear_counters,
                                  payload["wear_counters"]):
            counter.load_state_dict(state)
        for budget, state in zip(self.core_budgets,
                                 payload["epoch_budgets"]):
            budget.load_state_dict(state)
        self.power_store.load_state_dict(payload["templates"])
        checkpoint_budget = None
        restored_budget = None
        assignment_age = None
        if payload["assignment"] is not None:
            spec = payload["assignment"]
            # The epoch restores with the assignment so the fence holds
            # across restarts: a stale push from a deposed gOA primary is
            # rejected even by a freshly restored sOA.
            self._assignment = BudgetAssignment(
                slot_s=spec["slot_s"], budgets=spec["budgets"],
                epoch=spec["epoch"])
            self._assignment_received_at = spec["received_at"]
            # The stale-budget margin re-derives from the restored
            # assignment age: an assignment that aged across the outage
            # comes back pre-derated.
            assignment_age = self.budget_age(now)
            checkpoint_budget = self._assignment.budget_at(
                self.server.server_id, now, out_of_horizon="wrap")
            restored_budget = self.assigned_budget(now)
        kept = 0
        revoked = 0
        for spec in payload["grants"].values():
            vm = self.server.vms.get(spec["vm_id"])
            valid = (vm is not None
                     and spec["granted_until"] is not None
                     and spec["granted_until"] > now)
            if not valid:
                revoked += 1
                continue
            self._grants[spec["vm_id"]] = GrantState(
                vm_id=spec["vm_id"], kind=RequestKind(spec["kind"]),
                target_freq_ghz=spec["target_freq_ghz"],
                granted_at=spec["granted_at"],
                granted_until=spec["granted_until"],
                from_reservation=spec["from_reservation"])
            self.loop.engage(vm, spec["target_freq_ghz"])
            kept += 1
        return RestoreReport(
            server_id=self.server.server_id, restored_at=now,
            checkpoint_taken_at=checkpoint.taken_at,
            grants_kept=kept, grants_revoked=revoked,
            assignment_age_s=assignment_age,
            stale_margin=self.stale_budget_margin(now),
            checkpoint_budget_watts=checkpoint_budget,
            restored_budget_watts=restored_budget)

    # ------------------------------------------------------------------
    # Admission control (§IV-B)
    # ------------------------------------------------------------------

    def predicted_power(self, t: float) -> float:
        """Server power prediction from the local template (falls back to
        the live measurement before the first weekly recompute).  Template
        outputs pass through the ``prediction_scale`` fault hook; the live
        fallback is a direct sensor read and is not skewed."""
        if self.power_store.has_template:
            return self.prediction_scale(t) * self.power_store.predict(t)
        return self.server.power_watts()

    def _oc_extra_watts(self, n_cores: int,
                        utilization: float = 1.0) -> float:
        """Overclock power delta for ``n_cores`` at ``utilization``.

        Admission uses the VM's predicted utilization (its recent level,
        floored for safety); exhaustion prediction keeps the worst case
        (§IV-D: "at a given core frequency and worst-case utilization").
        """
        return n_cores * self.server.power_model.overclock_core_delta(
            utilization)

    def _lifetime_available_s(self, vm: VirtualMachine, now: float) -> float:
        cores = self.server.vm_cores(vm)
        if self.config.lifetime_mode == "online":
            # Section VI wear-out counters: budget against each core's live
            # lifetime credits at the worst-case operating point.
            volts = self.server.plan.voltage(
                self.server.plan.overclock_max_ghz)
            return min(self.online_budgets[c.index].available_seconds(
                max(0.5, vm.utilization), volts) for c in cores)
        return min(self.core_budgets[c.index].available_seconds(now)
                   for c in cores)

    def handle_request(self, request: OverclockRequest,
                       now: float) -> AdmissionDecision:
        """Grant or reject an overclocking request (Fig. 11 left path)."""
        self.requests_received += 1
        vm = self.server.vms.get(request.vm_id)
        if vm is None:
            return AdmissionDecision(False, RejectionReason.UNKNOWN_VM)
        if request.vm_id in self._grants:
            return AdmissionDecision(
                False, RejectionReason.ALREADY_OVERCLOCKED)
        self._note_request(now, request.vm_id, request.n_cores)

        if not self.config.enable_admission_control:
            # NaiveOClock: grant unconditionally.
            return self._grant(vm, request, now, granted_until=None)

        # Risk controller: a quarantined server takes no new OC risk
        # until the cooldown lifts (it keeps running VMs at turbo).
        if self.quarantined_until is not None \
                and now < self.quarantined_until:
            self.requests_rejected_quarantine += 1
            return AdmissionDecision(False, RejectionReason.QUARANTINED)

        # Lifetime check: enough per-core budget for a useful grant.
        available_s = self._lifetime_available_s(vm, now)
        if request.kind is RequestKind.SCHEDULED:
            needed = request.duration_s
            if available_s < needed:
                self.requests_rejected_lifetime += 1
                return AdmissionDecision(
                    False, RejectionReason.LIFETIME_BUDGET)
        else:
            if available_s < self.config.min_grant_s:
                self.requests_rejected_lifetime += 1
                return AdmissionDecision(
                    False, RejectionReason.LIFETIME_BUDGET)

        # Power check: the request is admitted if at least the *minimum*
        # overclock step fits under the budget; the prioritized feedback
        # loop then ramps the VM as far as the budget allows (SmartOClock paper, section IV-D).
        predicted = self.predicted_power(now)
        admission_util = max(0.5, vm.utilization)
        plan = self.server.plan
        min_step_delta = request.n_cores * (
            self.server.power_model.core_dynamic_watts(
                admission_util, plan.turbo_ghz + plan.step_ghz)
            - self.server.power_model.core_dynamic_watts(
                admission_util, plan.turbo_ghz))
        if predicted + min_step_delta > self.effective_budget(now):
            self.requests_rejected_power += 1
            self._last_power_rejection_at = now
            return AdmissionDecision(False, RejectionReason.POWER_BUDGET)

        if request.kind is RequestKind.SCHEDULED:
            # Soft-reserve lifetime budget on each core for the window.
            for core in self.server.vm_cores(vm):
                if not self.core_budgets[core.index].reserve(
                        now, request.duration_s):
                    # Roll back partial reservations.
                    for other in self.server.vm_cores(vm):
                        if other.index == core.index:
                            break
                        self.core_budgets[other.index].release_reservation(
                            now, request.duration_s)
                    self.requests_rejected_lifetime += 1
                    return AdmissionDecision(
                        False, RejectionReason.LIFETIME_BUDGET)
            granted_until = now + request.duration_s
            return self._grant(vm, request, now, granted_until,
                               from_reservation=True)
        granted_until = now + available_s
        return self._grant(vm, request, now, granted_until)

    def _grant(self, vm: VirtualMachine, request: OverclockRequest,
               now: float, granted_until: Optional[float],
               from_reservation: bool = False) -> AdmissionDecision:
        self._grants[vm.vm_id] = GrantState(
            vm_id=vm.vm_id, kind=request.kind,
            target_freq_ghz=request.target_freq_ghz,
            granted_at=now, granted_until=granted_until,
            from_reservation=from_reservation)
        self.loop.engage(vm, request.target_freq_ghz)
        self.requests_granted += 1
        self._note_grant(now, vm.vm_id, request.n_cores)
        return AdmissionDecision(True, granted_until=granted_until)

    def stop_overclock(self, vm_id: int, now: float) -> None:
        """WI-triggered scale-down: end the grant and return to turbo."""
        grant = self._grants.pop(vm_id, None)
        if grant is None:
            return
        vm = self.server.vms.get(vm_id)
        if vm is not None:
            if grant.from_reservation and grant.granted_until is not None:
                unused = max(0.0, grant.granted_until - now)
                for core in self.server.vm_cores(vm):
                    self.core_budgets[core.index].release_reservation(
                        now, unused)
            self.loop.disengage(vm)

    def is_overclocking(self, vm_id: int) -> bool:
        return vm_id in self._grants

    @property
    def active_grants(self) -> int:
        return len(self._grants)

    # ------------------------------------------------------------------
    # Control loop (§IV-D)
    # ------------------------------------------------------------------

    def control_tick(self, now: float, dt: float) -> None:
        """One control iteration: budgets, expiry, feedback, exploration."""
        if dt <= 0:
            raise ValueError(f"dt must be > 0: {dt}")
        if (not self.config.eager_accounting
                and not self._grants
                and self.loop.active_vms == 0
                and self.explorer.phase is ExplorationPhase.IDLE
                and now - self._last_power_rejection_at
                >= 2 * self.config.explore_confirm_s):
            # Idle fast path: with no grants, no enforcement targets, an
            # idle explorer and no recent power rejection, every step
            # below is provably mutation-free (lifetime/expiry loops
            # have nothing to visit, the feedback tick prunes and steps
            # nothing, the explorer's IDLE branch ignores an
            # unconstrained tick, exhaustion prediction bails without
            # grants) — except wear accrual, which the ledger notes.
            self._note_wear(now, dt)
            return
        self._consume_lifetime(now, dt)
        self._expire_grants(now)
        if self.config.enable_admission_control:
            budget = self.effective_budget(now)
        else:
            # NaiveOClock: no local budget — the rack capping system is
            # the only brake on overclocked power draw.
            budget = self.server.power_model.max_server_watts() * 2.0
        self.loop.tick(budget)
        if self.config.enable_exploration:
            # Unsatisfied demand counts as constrained whether the VM is
            # engaged below target or was rejected outright (§IV-D: the
            # sOA "can independently explore a higher budget to maximize
            # overclocking").
            recently_rejected = (now - self._last_power_rejection_at
                                 < 2 * self.config.explore_confirm_s)
            constrained = self.loop.constrained(budget) or recently_rejected
            at_target = self.loop.all_at_target() and not recently_rejected
            self.explorer.tick(now, constrained, at_target)
        self._note_wear(now, dt)
        if self.config.enable_proactive_scaleout:
            self._predict_exhaustion(now)

    def _consume_lifetime(self, now: float, dt: float) -> None:
        if not self._grants:
            return
        # Iterate the live dict and defer the mutations (dead-grant
        # deletions, reschedules/revocations) until after the scan: a
        # consume only touches the grant's own cores, a reschedule only
        # claims *unallocated* cores and a revocation only retunes its
        # own VM, so deferral is order-equivalent and saves the per-tick
        # list() copy of the ledger.
        plan = self.server.plan
        dead: list[int] = []
        troubled: list[VirtualMachine] = []
        for vm_id, grant in self._grants.items():
            vm = self.server.vms.get(vm_id)
            if vm is None:
                dead.append(vm_id)
                continue
            if vm.freq_ghz is None or not plan.is_overclocked(vm.freq_ghz):
                continue  # granted but not ramped up yet: no budget burned
            cores = self.server.vm_cores(vm)
            exhausted: list[Core] = []
            if self.config.lifetime_mode == "online":
                # Wear accrues through the counters in _note_wear; the
                # grant ends when a core's credits run dry.
                volts = plan.voltage(vm.freq_ghz)
                for core in cores:
                    if not self.online_budgets[core.index].can_overclock(
                            vm.utilization, volts, dt):
                        exhausted.append(core)
            else:
                for core in cores:
                    ok = self.core_budgets[core.index].consume(
                        now, dt, from_reservation=grant.from_reservation)
                    if not ok:
                        exhausted.append(core)
            if exhausted:
                troubled.append(vm)
        for vm_id in dead:
            del self._grants[vm_id]
        for vm in troubled:
            if not self._reschedule_cores(vm, now):
                self._revoke(vm, now, "lifetime budget exhausted")

    def _reschedule_cores(self, vm: VirtualMachine, now: float) -> bool:
        """Per-core budget exploration: move the VM onto cores that still
        have budget (§IV-D "Exploring beyond the local budgets")."""
        needed = vm.n_cores
        if self.config.lifetime_mode == "online":
            volts = self.server.plan.voltage(
                self.server.plan.overclock_max_ghz)
            def has_budget(core: Core) -> bool:
                return self.online_budgets[core.index].available_seconds(
                    max(0.5, vm.utilization), volts) \
                    >= self.config.min_grant_s
        else:
            def has_budget(core: Core) -> bool:
                return self.core_budgets[core.index].available_seconds(
                    now) >= self.config.min_grant_s
        candidates = [
            core for core in self.server.cores
            if (not core.allocated or core.vm_id == vm.vm_id)
            and has_budget(core)
        ]
        if len(candidates) < needed:
            return False
        self.server.reassign_vm_cores(vm, candidates[:needed])
        return True

    def _expire_grants(self, now: float) -> None:
        if not self._grants:
            return
        # Collect first, revoke after: revocations mutate the ledger.
        expired = [vm_id for vm_id, grant in self._grants.items()
                   if grant.granted_until is not None
                   and now >= grant.granted_until]
        for vm_id in expired:
            vm = self.server.vms.get(vm_id)
            if vm is not None:
                self._revoke(vm, now, "grant expired")
            else:
                del self._grants[vm_id]

    def _revoke(self, vm: VirtualMachine, now: float, why: str) -> None:
        self._grants.pop(vm.vm_id, None)
        self.loop.disengage(vm)
        self.on_grant_revoked(vm, why, now)

    def _accrue_wear(self, now: float, dt: float) -> None:
        plan = self.server.plan
        for vm in self.server.vms.values():
            volts = plan.voltage(vm.freq_ghz) if vm.freq_ghz else \
                plan.voltage(plan.turbo_ghz)
            for core in self.server.vm_cores(vm):
                self.wear_counters[core.index].accumulate(
                    dt, vm.utilization, volts)

    def _note_wear(self, now: float, dt: float) -> None:
        """Record one control tick's wear, eagerly or in the ledger."""
        if self.config.eager_accounting:
            self._accrue_wear(now, dt)
            return
        pending = self._pending_wear
        if pending and pending[-1][0] == dt:
            pending[-1][1] += 1
        else:
            pending.append([dt, 1])

    def _flush_wear(self) -> None:
        """Replay the pending wear ledger into the counters.

        Runs from the counters' read hooks and from the server's accrual
        flush, i.e. always *before* an operating-point change lands — the
        VM state read here is still the state every pending tick saw.
        """
        pending = self._pending_wear
        if not pending:
            return
        self._pending_wear = []
        plan = self.server.plan
        for vm in self.server.vms.values():
            volts = plan.voltage(vm.freq_ghz) if vm.freq_ghz else \
                plan.voltage(plan.turbo_ghz)
            for core in self.server.vm_cores(vm):
                counter = self.wear_counters[core.index]
                for dt, count in pending:
                    counter.accumulate_run(dt, vm.utilization, volts,
                                           int(count))

    # ------------------------------------------------------------------
    # Rack events
    # ------------------------------------------------------------------

    def on_warning(self, message: WarningMessage) -> None:
        if self.config.enable_warnings:
            self.explorer.on_warning(message.time)

    def on_cap(self, event: CapEvent) -> None:
        self.explorer.on_cap(event.time)

    # ------------------------------------------------------------------
    # Exhaustion prediction → proactive scale-out (§IV-D, Fig. 11 right)
    # ------------------------------------------------------------------

    def _predict_exhaustion(self, now: float) -> None:
        window = self.config.exhaustion_window_s
        if window <= 0 or not self._grants:
            return
        # Rate-limit signals to one per window.
        if now - self._last_exhaustion_signal_at < window:
            return
        signal = self.predict_power_exhaustion(now)
        if signal is None:
            signal = self.predict_lifetime_exhaustion(now)
        if signal is not None:
            self._last_exhaustion_signal_at = now
            self.on_exhaustion(signal)

    def predict_power_exhaustion(self, now: float
                                 ) -> Optional[ExhaustionSignal]:
        """Earliest time within the window when predicted power plus the
        active overclock draw exceeds the budget."""
        if not self.power_store.has_template:
            return None
        active_cores = sum(
            len(self.server.vm_cores(self.server.vms[g.vm_id]))
            for g in self._grants.values()
            if g.vm_id in self.server.vms)
        extra = self._oc_extra_watts(active_cores)
        step = self.config.budget_slot_s
        t = now
        while t <= now + self.config.exhaustion_window_s:
            if self.predicted_power(t) + extra > self.effective_budget(t):
                return ExhaustionSignal(
                    server_id=self.server.server_id,
                    kind=ExhaustionKind.POWER, time=now,
                    time_to_exhaustion_s=max(0.0, t - now))
            t += step
        return None

    def predict_lifetime_exhaustion(self, now: float
                                    ) -> Optional[ExhaustionSignal]:
        """Shortest remaining per-core lifetime budget among overclocking
        VMs, if within the window."""
        worst: Optional[float] = None
        for grant in self._grants.values():
            vm = self.server.vms.get(grant.vm_id)
            if vm is None:
                continue
            remaining = self._lifetime_available_s(vm, now)
            if grant.from_reservation and grant.granted_until is not None:
                remaining = max(remaining, grant.granted_until - now)
            if worst is None or remaining < worst:
                worst = remaining
        if worst is not None and worst <= self.config.exhaustion_window_s:
            return ExhaustionSignal(
                server_id=self.server.server_id,
                kind=ExhaustionKind.LIFETIME, time=now,
                time_to_exhaustion_s=worst)
        return None

    # ------------------------------------------------------------------
    # Telemetry & profile reporting (§IV-C)
    # ------------------------------------------------------------------

    def _slot_of_week(self, t: float) -> int:
        return int((t % SECONDS_PER_WEEK) // self._slot_s)

    def _note_demand(self, per_vm: dict[int, dict[int, int]],
                     series: np.ndarray, now: float, vm_id: int,
                     n_cores: int) -> None:
        """Record per-slot overclock demand as the *sum over distinct VMs*
        of each VM's peak request in the slot.

        Taking a plain max over requests understates concurrent demand:
        two VMs asking for 4 cores each in the same slot need 8 cores of
        overclock headroom, not 4 — and ``compute_heterogeneous_budgets``
        sizes this server's share of the rack headroom from that need.
        """
        slot = self._slot_of_week(now)
        vms = per_vm.setdefault(slot, {})
        vms[vm_id] = max(vms.get(vm_id, 0), n_cores)
        series[slot] = float(sum(vms.values()))

    def _note_request(self, now: float, vm_id: int, n_cores: int) -> None:
        self._note_demand(self._requested_by_vm, self._oc_requested,
                          now, vm_id, n_cores)

    def _note_grant(self, now: float, vm_id: int, n_cores: int) -> None:
        self._note_demand(self._granted_by_vm, self._oc_granted,
                          now, vm_id, n_cores)

    def telemetry_tick(self, now: float) -> None:
        """Sample power into the template store (5-minute cadence).

        The sOA separates measured power into regular and overclock parts
        using its knowledge of currently-overclocked cores (this is phase
        1 of the gOA's §IV-C computation, done at the edge).
        """
        measured = self.server.power_watts()
        oc_cores = self.server.overclocked_core_count()
        regular = measured - oc_cores * \
            self.server.power_model.overclock_core_delta(1.0)
        regular = max(self.server.power_model.idle_watts, regular)
        self.power_store.record(now, measured)
        slot = self._slot_of_week(now)
        self._regular_power[slot] += regular
        self._regular_count[slot] += 1

    def recompute_template(self) -> None:
        self.power_store.recompute()

    def build_profile_report(self) -> ServerProfileReport:
        """Weekly profile for the gOA: regular power + overclock demand."""
        counts = np.maximum(self._regular_count, 1)
        regular = self._regular_power / counts
        # Slots never observed fall back to the overall mean.
        seen = self._regular_count > 0
        if np.any(seen):
            fallback = float(np.mean(regular[seen]))
        else:
            fallback = self.server.power_model.idle_watts
        regular = np.where(seen, regular, fallback)
        return ServerProfileReport(
            server_id=self.server.server_id,
            slot_s=self._slot_s,
            regular_power_watts=regular,
            oc_requested_cores=self._oc_requested.copy(),
            oc_granted_cores=self._oc_granted.copy(),
            hi_quantile_power_watts=self._hi_quantile_series(regular))

    def _hi_quantile_series(self, regular: np.ndarray
                            ) -> Optional[np.ndarray]:
        """Per-slot high-quantile measured power for oversubscription.

        Built from the same retained telemetry as the template store, at
        the configured risk level's quantile, and floored at the regular
        series (an upper bound on power can't sit below the mean regular
        draw — quantiles of a short gappy history otherwise could).
        Returns ``None`` when oversubscription is off or the history
        can't support a template yet.
        """
        if not self.config.enable_oversubscription:
            return None
        times, values = self.power_store.history()
        if len(times) < 2:
            return None
        quantile = RISK_LEVELS[self.config.osub_risk_level].quantile
        try:
            template = DailyQuantileTemplate(times, values, q=quantile)
        except ValueError:
            return None  # degenerate history (e.g. irregular after gaps)
        slot_times = np.arange(len(regular)) * self._slot_s
        hi = template.predict_series(slot_times)
        return np.maximum(hi, regular)

    def reset_profile_window(self) -> None:
        """Start a fresh profiling week (called after reporting)."""
        self._oc_requested[:] = 0
        self._oc_granted[:] = 0
        self._requested_by_vm.clear()
        self._granted_by_vm.clear()
        self._regular_power[:] = 0
        self._regular_count[:] = 0
