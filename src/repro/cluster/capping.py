"""Rack power-capping subsystem.

Reproduces the safety net the paper assumes from prior work (Intel RAPL,
prioritized capping): a rack manager samples rack power, broadcasts a
*warning* to all server agents when the draw crosses a warning threshold
(default 95 % of the rack limit, §IV-D), and fires a *capping event* with
prioritized throttling when the draw exceeds the limit.

Throttling order (matching "prioritized capping" [Kumbhare+ ATC'21,
Li+ OSDI'20] as the paper uses it):

1. overclocked VMs are stepped back to max turbo, least-important first;
2. if still over the limit, all VMs are stepped below turbo toward the base
   frequency, least-important first.

The performance penalty Table I reports ("Penalty on Power Cap") is the
frequency reduction this throttler inflicts on *non-overclocked* VMs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.cluster.topology import Rack, Server, VirtualMachine
from repro.sim.fold import left_sum

__all__ = ["WarningMessage", "CapEvent", "PrioritizedThrottler",
           "FairShareThrottler", "RackPowerManager"]


@dataclass(frozen=True)
class WarningMessage:
    """Broadcast when rack power crosses the warning threshold."""

    rack_id: str
    time: float
    power_watts: float
    limit_watts: float


@dataclass(frozen=True)
class CapEvent:
    """A power capping event: the rack exceeded its limit."""

    rack_id: str
    time: float
    power_watts: float
    limit_watts: float
    throttled_vms: int = 0
    # Mean frequency reduction (GHz) inflicted on non-overclocked VMs.
    noc_penalty_ghz: float = 0.0


class PrioritizedThrottler:
    """Reduce rack power below its limit by stepping down VM frequencies."""

    def __init__(self, max_iterations: int = 512) -> None:
        self.max_iterations = max_iterations

    def throttle(self, rack: Rack,
                 target_watts: Optional[float] = None) -> tuple[int, float]:
        """Throttle until rack power is at most ``target_watts`` (defaults
        to the rack limit) or every VM is at its floor.

        Real capping hardware overshoots: it drives power to a recovery
        setpoint *below* the limit and releases gradually, so callers pass
        a target under the limit.

        Returns ``(throttled_vm_count, mean_noc_penalty_ghz)``.
        """
        if target_watts is None:
            target_watts = rack.power_limit_watts
        touched: set[int] = set()
        noc_before: dict[int, float] = {}
        vms = [(vm, server) for server in rack.servers
               for vm in server.vms.values()]
        if not vms:
            return 0, 0.0
        # Each VM is judged against *its own server's* plan: racks may mix
        # SKUs (the paper's §IV-B heterogeneous budgeting case), so there
        # is no single turbo/base threshold for the whole rack.
        for vm, server in vms:
            if vm.freq_ghz is not None and \
                    not server.plan.is_overclocked(vm.freq_ghz):
                noc_before[vm.vm_id] = vm.freq_ghz

        # Phase 0 — the immediate hardware response revokes every boost:
        # overclocked VMs drop straight back to their server's max turbo.
        for vm, server in vms:
            plan = server.plan
            if vm.freq_ghz is not None and plan.is_overclocked(vm.freq_ghz):
                server.set_vm_frequency(vm, plan.turbo_ghz)
                touched.add(vm.vm_id)
        # Phase 1 — if the rack is still over the recovery target, the
        # least important VMs are driven toward base frequency first; this
        # is what makes capping events expensive for low-priority
        # bystanders (e.g. ML training) under a naive policy (§V-A).
        if rack.power_watts() > target_watts:
            self._phase(rack, vms, touched, target_watts,
                        eligible=lambda vm, server:
                        vm.freq_ghz > server.plan.base_ghz + 1e-9,
                        floor=lambda vm, server: server.plan.base_ghz)

        penalties: list[float] = []
        for vm, _ in vms:
            if vm.vm_id in noc_before and vm.vm_id in touched:
                penalties.append(noc_before[vm.vm_id] - vm.freq_ghz)
        mean_penalty = (left_sum(penalties) / len(penalties)
                        if penalties else 0.0)
        return len(touched), mean_penalty

    def _phase(self, rack: Rack, vms: list[tuple[VirtualMachine, Server]],
               touched: set[int], target_watts: float,
               eligible: Callable[[VirtualMachine, Server], bool],
               floor: Callable[[VirtualMachine, Server], float]) -> None:
        # Strictly prioritized: the least-important VM is driven all the
        # way to its floor before the next one is touched.  The ordering
        # is computed once; each step only needs the O(1) cached rack
        # power, so a full capping event is O(steps), not
        # O(steps × servers × cores).
        ordering = sorted(vms, key=lambda pair: (pair[0].priority,
                                                 pair[0].vm_id))
        steps = 0
        for vm, server in ordering:
            while steps < self.max_iterations:
                if rack.power_watts() <= target_watts:
                    return
                if vm.freq_ghz is None or not eligible(vm, server):
                    break
                target = max(floor(vm, server),
                             vm.freq_ghz - server.plan.step_ghz)
                if target >= vm.freq_ghz - 1e-9:
                    break
                server.set_vm_frequency(vm, target)
                touched.add(vm.vm_id)
                steps += 1


class FairShareThrottler(PrioritizedThrottler):
    """Capping that splits the rack budget evenly among servers.

    The NaiveOClock behaviour (SmartOClock paper, section V-B): on a capping event every
    server is clamped toward the even share of the recovery target, so
    power-hungry servers (ML training) and overclocked servers alike are
    throttled -- the section III Q4 pathology.
    """

    def throttle(self, rack: Rack,
                 target_watts: Optional[float] = None) -> tuple[int, float]:
        if target_watts is None:
            target_watts = rack.power_limit_watts
        if not rack.servers:
            return 0, 0.0
        share = target_watts / len(rack.servers)
        touched: set[int] = set()
        noc_before = {
            vm.vm_id: vm.freq_ghz
            for server in rack.servers for vm in server.vms.values()
            if vm.freq_ghz is not None
            and not server.plan.is_overclocked(vm.freq_ghz)
        }
        for server in rack.servers:
            # Each server is clamped against its *own* plan (racks can mix
            # SKUs), and the candidate ordering is computed once: stepping
            # a VM down never changes the (priority, vm_id) order, it only
            # removes the VM once it reaches the base floor.
            plan = server.plan
            steps = 0
            candidates = sorted(
                (vm for vm in server.vms.values() if vm.freq_ghz is not None),
                key=lambda vm: (vm.priority, vm.vm_id))
            for vm in candidates:
                while (server.power_watts() > share
                       and steps < self.max_iterations
                       and vm.freq_ghz > plan.base_ghz + 1e-9):
                    server.set_vm_frequency(vm, plan.step_down(vm.freq_ghz))
                    touched.add(vm.vm_id)
                    steps += 1
                if (server.power_watts() <= share
                        or steps >= self.max_iterations):
                    break
        penalties = [noc_before[vm.vm_id] - vm.freq_ghz
                     for server in rack.servers
                     for vm in server.vms.values()
                     if vm.vm_id in noc_before and vm.vm_id in touched]
        mean_penalty = (left_sum(penalties) / len(penalties)
                        if penalties else 0.0)
        return len(touched), mean_penalty


class RackPowerManager:
    """Samples rack power, issues warnings, and fires capping events.

    Server agents subscribe with :meth:`on_warning` / :meth:`on_cap`.  The
    manager is sampled explicitly (``sample(now)``) by whatever drives time
    (:meth:`repro.core.platform.SmartOClockPlatform.tick`, or the baseline
    environments' tick loop in :mod:`repro.experiments.cluster`).
    """

    def __init__(self, rack: Rack, *, warning_fraction: float = 0.95,
                 restore_fraction: float = 0.90,
                 graceful_restore: bool = True,
                 throttler: Optional[PrioritizedThrottler] = None) -> None:
        if not 0.0 < warning_fraction <= 1.0:
            raise ValueError(
                f"warning_fraction must be in (0, 1], got {warning_fraction}")
        if not 0.0 < restore_fraction <= warning_fraction:
            raise ValueError(
                "restore_fraction must be in (0, warning_fraction], got "
                f"{restore_fraction}")
        self.rack = rack
        self.warning_fraction = warning_fraction
        self.restore_fraction = restore_fraction
        self.graceful_restore = graceful_restore
        self.throttler = throttler or PrioritizedThrottler()
        self._warning_subscribers: list[Callable[[WarningMessage], None]] = []
        self._cap_subscribers: list[Callable[[CapEvent], None]] = []
        self.warnings: list[WarningMessage] = []
        self.cap_events: list[CapEvent] = []

    @property
    def warning_watts(self) -> float:
        return self.warning_fraction * self.rack.power_limit_watts

    def on_warning(self, callback: Callable[[WarningMessage], None]) -> None:
        self._warning_subscribers.append(callback)

    def on_cap(self, callback: Callable[[CapEvent], None]) -> None:
        self._cap_subscribers.append(callback)

    def sample(self, now: float) -> Optional[CapEvent]:
        """Inspect rack power once; warn and/or cap as needed.

        Returns the :class:`CapEvent` if one fired, else ``None``.
        """
        power = self.rack.power_watts()
        limit = self.rack.power_limit_watts
        if power < self.restore_fraction * limit:
            # Capped state releases as power recedes: throttled VMs step
            # back toward turbo (most important first).
            self._restore_step()
            power = self.rack.power_watts()
        if power >= self.warning_watts:
            message = WarningMessage(self.rack.rack_id, now, power, limit)
            self.warnings.append(message)
            for callback in self._warning_subscribers:
                callback(message)
        if power > limit:
            throttled, penalty = self.throttler.throttle(
                self.rack, target_watts=self.restore_fraction * limit)
            event = CapEvent(self.rack.rack_id, now, power, limit,
                             throttled_vms=throttled,
                             noc_penalty_ghz=penalty)
            self.cap_events.append(event)
            for callback in self._cap_subscribers:
                callback(event)
            return event
        return None

    def _restore_step(self) -> None:
        """Restore throttled (below-turbo) VMs, most important first, up
        to the restore threshold.

        The hardware cap releases within seconds once power recedes, so a
        single sample restores as far as the threshold allows rather than
        one step per tick -- which is also why a naive policy oscillates
        between capping and restoring instead of settling.  The ordering
        is computed once and every per-step budget check is an O(1) read
        of the rack's cached power.
        """
        if self.rack.below_turbo_vms() == 0:
            return  # nothing throttled: the restore scan is a no-op
        budget = self.restore_fraction * self.rack.power_limit_watts
        vms = [(vm, server) for server in self.rack.servers
               for vm in server.vms.values()]
        if not self.graceful_restore:
            # Dumb hardware: the cap releases fully once power recedes --
            # every throttled VM snaps back to turbo, which is what makes
            # a naive policy oscillate between capping and restoring.
            for vm, server in vms:
                if vm.freq_ghz is not None and \
                        vm.freq_ghz < server.plan.turbo_ghz - 1e-9:
                    server.set_vm_frequency(vm, server.plan.turbo_ghz)
            return
        ordering = sorted(vms, key=lambda pair: (-pair[0].priority,
                                                 pair[0].vm_id))
        for _ in range(512):
            if self.rack.power_watts() >= budget:
                return
            stepped = False
            for vm, server in ordering:
                if self.rack.power_watts() >= budget:
                    return
                if vm.freq_ghz is not None and \
                        vm.freq_ghz < server.plan.turbo_ghz - 1e-9:
                    server.set_vm_frequency(
                        vm, min(server.plan.turbo_ghz,
                                server.plan.step_up(vm.freq_ghz)))
                    stepped = True
            if not stepped:
                return
