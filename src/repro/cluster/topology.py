"""Datacenter topology: datacenter → rack → server → VM → core.

This is the physical plant the SmartOClock control plane manages.  The
objects are deliberately "dumb": they hold placement, per-VM operating
points, and utilization, and can report power through a
:class:`~repro.cluster.power.PowerModel`.  All policy (who gets to
overclock, how budgets are split) lives in :mod:`repro.core`.

Power accounting is *incremental*: every mutation that can change a
server's draw (placement, frequency, utilization, per-core overrides)
applies a watt delta to the owning server's cached total, and the delta
propagates up through the rack to the datacenter.  ``power_watts()`` at
every level is therefore an O(1) read — the property the capping and
enforcement loops rely on to poll power once per 100 MHz step (see
DESIGN.md "Incremental power accounting").  ``recompute_power_watts()``
is the from-scratch evaluation kept for validation.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, Optional

from repro.cluster.frequency import FrequencyPlan
from repro.cluster.power import PowerModel
from repro.sim.fold import MIN_CLOSED_FORM_RUN, left_sum, repeat_add

__all__ = ["Core", "VirtualMachine", "Server", "Rack", "Datacenter"]

_vm_ids = itertools.count()


class Core:
    """One physical core: operating point plus wear-relevant accounting.

    ``utilization_override`` lets finer-grained schedulers (containers
    inside a VM, SmartOClock paper section VI) pin a per-core utilization distinct from
    the VM-level average; ``None`` means "use the VM's utilization".

    ``freq_ghz``, ``vm_id`` and ``utilization_override`` are
    invalidation-aware properties: writes notify the owning server so it
    can delta-update its cached wattage (guest-side code such as
    :mod:`repro.cluster.containers` mutates them directly), and they
    first fold any pending lazy accrual in at the *old* operating point.
    ``busy_seconds``/``overclock_seconds`` likewise flush on read, so
    deferred accrual is invisible to every observer.
    """

    __slots__ = ("index", "_busy_seconds", "_overclock_seconds",
                 "_freq_ghz", "_vm_id", "_utilization_override", "_server")

    def __init__(self, index: int, freq_ghz: float,
                 vm_id: Optional[int] = None,
                 busy_seconds: float = 0.0,
                 overclock_seconds: float = 0.0,
                 utilization_override: Optional[float] = None) -> None:
        self.index = index
        self._busy_seconds = busy_seconds
        self._overclock_seconds = overclock_seconds
        self._freq_ghz = freq_ghz
        self._vm_id = vm_id
        self._utilization_override = utilization_override
        self._server: Optional["Server"] = None

    @property
    def busy_seconds(self) -> float:
        server = self._server
        if server is not None and server._pending_runs:
            server._flush_accrual()
        return self._busy_seconds

    @busy_seconds.setter
    def busy_seconds(self, value: float) -> None:
        self._busy_seconds = value

    @property
    def overclock_seconds(self) -> float:
        server = self._server
        if server is not None and server._pending_runs:
            server._flush_accrual()
        return self._overclock_seconds

    @overclock_seconds.setter
    def overclock_seconds(self, value: float) -> None:
        self._overclock_seconds = value

    def _replay_accrual(self, runs: list[list[float]], vm_utilization: float,
                        plan: FrequencyPlan) -> None:
        """Fold pending ``[dt, count]`` runs into the accumulators.

        The operating point is constant across the pending window (any
        change flushes first), so the per-tick increments are hoisted;
        the left fold returns what the eager per-tick loop's adds return,
        bit for bit: short runs replay them one by one, longer ones take
        the closed form of :func:`repro.sim.fold.repeat_add`.
        """
        eff = self.effective_utilization(vm_utilization)
        overclocked = plan.is_overclocked(self._freq_ghz)
        busy = self._busy_seconds
        oc = self._overclock_seconds
        for dt, count in runs:
            inc = eff * dt
            n = int(count)
            if n < MIN_CLOSED_FORM_RUN:
                for _ in itertools.repeat(None, n):
                    busy += inc
                    if overclocked:
                        oc += dt
            else:
                busy = repeat_add(busy, inc, n)
                if overclocked:
                    oc = repeat_add(oc, dt, n)
        self._busy_seconds = busy
        self._overclock_seconds = oc

    @property
    def freq_ghz(self) -> float:
        return self._freq_ghz

    @freq_ghz.setter
    def freq_ghz(self, value: float) -> None:
        if value == self._freq_ghz:
            return
        server = self._server
        if server is None:
            self._freq_ghz = value
            return
        server._flush_accrual()
        before = server._core_watts(self)
        was_overclocked = server._counts_as_overclocked(self)
        self._freq_ghz = value
        server._apply_core_change(self, before, was_overclocked)

    @property
    def vm_id(self) -> Optional[int]:
        return self._vm_id

    @vm_id.setter
    def vm_id(self, value: Optional[int]) -> None:
        if value == self._vm_id:
            return
        server = self._server
        if server is None:
            self._vm_id = value
            return
        server._flush_accrual()
        before = server._core_watts(self)
        was_overclocked = server._counts_as_overclocked(self)
        self._vm_id = value
        server._apply_core_change(self, before, was_overclocked)

    @property
    def utilization_override(self) -> Optional[float]:
        return self._utilization_override

    @utilization_override.setter
    def utilization_override(self, value: Optional[float]) -> None:
        if value == self._utilization_override:
            return
        server = self._server
        if server is None:
            self._utilization_override = value
            return
        server._flush_accrual()
        before = server._core_watts(self)
        self._utilization_override = value
        server._apply_core_delta(server._core_watts(self) - before)

    @property
    def allocated(self) -> bool:
        return self._vm_id is not None

    def effective_utilization(self, vm_utilization: float) -> float:
        if self._utilization_override is None:
            return vm_utilization
        return self._utilization_override

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Core(index={self.index}, freq_ghz={self._freq_ghz}, "
                f"vm_id={self._vm_id})")


class VirtualMachine:
    """A VM instance: cores, utilization, operating point, priority.

    ``priority`` orders VMs for prioritized capping and for the sOA's
    feedback loop: **higher value = more important** (throttled last,
    overclocked first).  ``utilization`` is the average per-core busy
    fraction in [0, 1].
    """

    def __init__(self, n_cores: int, *, name: str = "",
                 priority: int = 0, workload: str = "generic",
                 utilization: float = 0.0,
                 vm_id: Optional[int] = None) -> None:
        if n_cores < 1:
            raise ValueError(f"a VM needs at least 1 core, got {n_cores}")
        self.vm_id = next(_vm_ids) if vm_id is None else vm_id
        self.name = name or f"vm-{self.vm_id}"
        self.n_cores = n_cores
        self.priority = priority
        self.workload = workload
        self.freq_ghz: Optional[float] = None  # set on placement
        self.server: Optional["Server"] = None
        self._utilization = 0.0
        self.utilization = utilization

    @property
    def placed(self) -> bool:
        return self.server is not None

    @property
    def utilization(self) -> float:
        return self._utilization

    @utilization.setter
    def utilization(self, utilization: float) -> None:
        if not 0.0 <= utilization <= 1.0:
            raise ValueError(
                f"utilization must be in [0, 1], got {utilization}")
        if utilization == self._utilization:
            return
        if self.server is not None:
            self.server._vm_utilization_changed(self, utilization)
        else:
            self._utilization = utilization

    def set_utilization(self, utilization: float) -> None:
        self.utilization = utilization

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = self.server.server_id if self.server else "unplaced"
        return (f"VirtualMachine({self.name}, cores={self.n_cores}, "
                f"util={self.utilization:.2f}, f={self.freq_ghz}, on={where})")


class Server:
    """A physical server hosting VMs on its cores.

    The server applies per-VM frequencies to the VM's assigned cores and
    reports power via its :class:`PowerModel`.  ``advance(dt)`` accrues the
    busy/overclocked core-seconds that the reliability subsystem consumes.
    """

    def __init__(self, server_id: str, power_model: PowerModel,
                 rack: Optional["Rack"] = None) -> None:
        self.server_id = server_id
        self.power_model = power_model
        self.rack = rack
        self.vms: dict[int, VirtualMachine] = {}
        self._vm_cores: dict[int, list[Core]] = {}
        # Cached sum of per-core dynamic watts, delta-updated on mutation.
        self._dynamic_watts = 0.0
        # Extra non-VM power (e.g. a colocated agent); usually zero.
        self._background_watts = 0.0
        # Powered off (crashed): draws nothing, contributes nothing to
        # the rack aggregate until brought back online.
        self._offline = False
        # Lazy accrual: ``advance`` appends/extends [dt, tick-count] runs
        # here instead of touching every core; any operating-point change
        # (and any accumulator read) folds the runs in at the still-old
        # point via ``_flush_accrual``.  ``eager_accounting`` disables the
        # deferral — the equivalence oracle's reference mode.
        self._pending_runs: list[list[float]] = []
        self._accrual_hooks: dict[str, Callable[[], None]] = {}
        self.eager_accounting = False
        # VMs currently below the plan's turbo frequency; lets the rack
        # restore step skip entirely when nothing needs stepping up.
        self._below_turbo_vms = 0
        # Cores both allocated and overclocked, maintained by
        # ``_apply_core_change``; a new server's cores are all free.
        self._overclocked_cores = 0
        plan = power_model.plan
        self.cores = [Core(i, plan.turbo_ghz)
                      for i in range(power_model.cores)]
        for core in self.cores:
            core._server = self

    @property
    def plan(self) -> FrequencyPlan:
        return self.power_model.plan

    @property
    def background_watts(self) -> float:
        return self._background_watts

    @background_watts.setter
    def background_watts(self, value: float) -> None:
        delta = value - self._background_watts
        self._background_watts = value
        if delta and self.rack is not None and not self._offline:
            self.rack._apply_power_delta(delta)

    @property
    def offline(self) -> bool:
        return self._offline

    @offline.setter
    def offline(self, value: bool) -> None:
        """Power the server off/on.

        The cached dynamic/background watt totals keep tracking core
        state while the server is off (so the books stay consistent for
        whoever powers it back on); only the *rack* aggregate sees the
        server disappear and reappear.
        """
        if value == self._offline:
            return
        self._flush_accrual()
        live_watts = (self.power_model.idle_watts + self._dynamic_watts
                      + self._background_watts)
        self._offline = value
        if self.rack is not None:
            self.rack._apply_power_delta(
                -live_watts if value else live_watts)

    # -- incremental power accounting ----------------------------------

    def _core_watts(self, core: Core) -> float:
        """Current dynamic-power contribution of one core (0 when idle)."""
        vm = self.vms.get(core._vm_id) if core._vm_id is not None else None
        if vm is None:
            return 0.0
        return self.power_model.core_dynamic_watts(
            core.effective_utilization(vm._utilization), core._freq_ghz)

    def _apply_core_delta(self, delta: float) -> None:
        """Fold a per-core watt change into this server's cached total and
        propagate it up to the rack (and from there to the datacenter)."""
        if delta:
            self._dynamic_watts += delta
            if self.rack is not None and not self._offline:
                self.rack._apply_power_delta(delta)

    def _counts_as_overclocked(self, core: Core) -> bool:
        """Whether ``core`` counts in :meth:`overclocked_core_count`."""
        return (core._vm_id is not None
                and self.power_model.plan.is_overclocked(core._freq_ghz))

    def _apply_core_change(self, core: Core, before_watts: float,
                           was_overclocked: bool) -> None:
        """Re-account one core after a frequency or VM-binding write: its
        watt delta and its membership in the overclocked-core count."""
        self._apply_core_delta(self._core_watts(core) - before_watts)
        self._overclocked_cores += (self._counts_as_overclocked(core)
                                    - was_overclocked)

    def _vm_utilization_changed(self, vm: VirtualMachine,
                                utilization: float) -> None:
        """Re-account the VM's cores around a VM-level utilization write."""
        self._flush_accrual()
        cores = self._vm_cores.get(vm.vm_id, ())
        before = left_sum(self._core_watts(c) for c in cores)
        # The one sanctioned cross-object write: this *is* the delta
        # protocol the setter delegates to.
        vm._utilization = utilization  # oclint: disable=power-cache-write
        after = left_sum(self._core_watts(c) for c in cores)
        self._apply_core_delta(after - before)

    @property
    def free_cores(self) -> int:
        return sum(1 for c in self.cores if not c.allocated)

    def place_vm(self, vm: VirtualMachine) -> None:
        """Assign the VM to free cores at max turbo."""
        if vm.placed:
            raise ValueError(f"{vm.name} is already placed on "
                             f"{vm.server.server_id}")
        free = [c for c in self.cores if not c.allocated]
        if len(free) < vm.n_cores:
            raise ValueError(
                f"{self.server_id}: need {vm.n_cores} cores, "
                f"only {len(free)} free")
        # Flush before registration: pending runs predate this VM and
        # must not accrue onto its cores.
        self._flush_accrual()
        assigned = free[:vm.n_cores]
        # Register the VM first so the core setters below can see its
        # utilization and delta-update the cached wattage.
        self.vms[vm.vm_id] = vm
        self._vm_cores[vm.vm_id] = assigned
        for core in assigned:
            core.vm_id = vm.vm_id
            core.freq_ghz = self.plan.turbo_ghz
        vm.server = self
        vm.freq_ghz = self.plan.turbo_ghz

    def remove_vm(self, vm: VirtualMachine) -> None:
        if vm.vm_id not in self.vms:
            raise KeyError(f"{vm.name} is not on {self.server_id}")
        self._flush_accrual()
        if (vm.freq_ghz is not None
                and vm.freq_ghz < self.plan.turbo_ghz - 1e-9):
            self._below_turbo_vms -= 1
        for core in self._vm_cores[vm.vm_id]:
            core.vm_id = None
            core.freq_ghz = self.plan.turbo_ghz
            core.utilization_override = None
        del self.vms[vm.vm_id]
        del self._vm_cores[vm.vm_id]
        vm.server = None
        vm.freq_ghz = None

    def vm_cores(self, vm: VirtualMachine) -> list[Core]:
        return list(self._vm_cores[vm.vm_id])

    def set_vm_frequency(self, vm: VirtualMachine, freq_ghz: float) -> float:
        """Set the VM's cores to ``freq_ghz`` (clamped to the plan). Returns
        the actually-applied frequency."""
        if vm.vm_id not in self.vms:
            raise KeyError(f"{vm.name} is not on {self.server_id}")
        # Explicit flush: vm.freq_ghz feeds the wear ledger's voltage even
        # when every core already sits at the target (guest-side writes).
        self._flush_accrual()
        applied = self.plan.clamp(freq_ghz)
        threshold = self.plan.turbo_ghz - 1e-9
        was_below = vm.freq_ghz is not None and vm.freq_ghz < threshold
        for core in self._vm_cores[vm.vm_id]:
            core.freq_ghz = applied
        vm.freq_ghz = applied
        self._below_turbo_vms += (applied < threshold) - was_below
        return applied

    def reassign_vm_cores(self, vm: VirtualMachine,
                          new_cores: list[Core]) -> None:
        """Move the VM onto a different set of this server's free cores.

        Implements the sOA's per-core budget exploration of §IV-D: when a
        VM's cores run out of overclock budget, the sOA reschedules it on
        cores that still have budget.
        """
        if vm.vm_id not in self.vms:
            raise KeyError(f"{vm.name} is not on {self.server_id}")
        if len(new_cores) != vm.n_cores:
            raise ValueError(
                f"need exactly {vm.n_cores} cores, got {len(new_cores)}")
        for core in new_cores:
            if core.allocated and core.vm_id != vm.vm_id:
                raise ValueError(
                    f"core {core.index} is allocated to VM {core.vm_id}")
        self._flush_accrual()
        freq = vm.freq_ghz if vm.freq_ghz is not None else self.plan.turbo_ghz
        for core in self._vm_cores[vm.vm_id]:
            core.vm_id = None
            core.freq_ghz = self.plan.turbo_ghz
        for core in new_cores:
            core.vm_id = vm.vm_id
            core.freq_ghz = freq
        self._vm_cores[vm.vm_id] = list(new_cores)

    def core_loads(self) -> list[tuple[float, float]]:
        """(utilization, freq) per allocated core, for the power model."""
        loads: list[tuple[float, float]] = []
        for vm in self.vms.values():
            for core in self._vm_cores[vm.vm_id]:
                loads.append((core.effective_utilization(vm.utilization),
                              core.freq_ghz))
        return loads

    def power_watts(self) -> float:
        """Current wall power of this server.  O(1): reads the cached
        dynamic-watt total maintained incrementally by every mutation."""
        if self._offline:
            return 0.0
        return (self.power_model.idle_watts + self._dynamic_watts
                + self._background_watts)

    def recompute_power_watts(self) -> float:
        """Full per-core power-model evaluation, bypassing the cache.

        Kept for validation (the randomized equivalence tests) and as the
        baseline the capping micro-benchmark measures against.
        """
        if self._offline:
            return 0.0
        return (self.power_model.server_watts(self.core_loads())
                + self._background_watts)

    def overclocked_vms(self) -> list[VirtualMachine]:
        plan = self.plan
        return [vm for vm in self.vms.values()
                if vm.freq_ghz is not None and plan.is_overclocked(vm.freq_ghz)]

    def overclocked_core_count(self) -> int:
        """Allocated cores above turbo.  O(1): a counter the core
        frequency and VM-binding setters keep current."""
        return self._overclocked_cores

    def advance(self, dt: float) -> None:
        """Accrue ``dt`` seconds of busy/overclock time on allocated cores.

        O(1) on the fast path: the tick is noted as a pending run and
        folded into the per-core accumulators lazily — on read, or when
        an operating point changes (change-point integration).  With
        ``eager_accounting`` set the fold happens immediately, which is
        the reference arithmetic the equivalence oracle compares against.
        """
        if dt < 0:
            raise ValueError(f"dt must be non-negative, got {dt}")
        if self._offline:
            return  # powered off: no cycles executed, no wear accrued
        if self.eager_accounting:
            plan = self.plan
            for vm in self.vms.values():
                for core in self._vm_cores[vm.vm_id]:
                    core.busy_seconds += core.effective_utilization(
                        vm.utilization) * dt
                    if plan.is_overclocked(core.freq_ghz):
                        core.overclock_seconds += dt
            return
        runs = self._pending_runs
        if runs and runs[-1][0] == dt:
            runs[-1][1] += 1
        else:
            runs.append([dt, 1])

    def set_accrual_hook(self, key: str,
                         hook: Callable[[], None]) -> None:
        """Register a flush participant (e.g. the sOA's wear ledger).

        Hooks run whenever this server's pending accrual is folded in, so
        co-located lazy accounting stays synchronised with the same
        change points.
        """
        self._accrual_hooks[key] = hook

    def _flush_accrual(self) -> None:
        """Fold pending runs into every allocated core, then run hooks.

        Hooks always run — the sOA notes wear *before* ``advance`` sees
        the tick (control ticks precede plant advancement), so its ledger
        can be pending while ``_pending_runs`` is empty.
        """
        runs = self._pending_runs
        if runs:
            self._pending_runs = []
            plan = self.plan
            for vm in self.vms.values():
                util = vm._utilization
                for core in self._vm_cores[vm.vm_id]:
                    core._replay_accrual(runs, util, plan)
        for hook in self._accrual_hooks.values():
            hook()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Server({self.server_id}, vms={len(self.vms)}, "
                f"free_cores={self.free_cores})")


class Rack:
    """A rack: the power-delivery unit whose limit SmartOClock respects."""

    def __init__(self, rack_id: str, power_limit_watts: float) -> None:
        if power_limit_watts <= 0:
            raise ValueError(
                f"power limit must be positive, got {power_limit_watts}")
        self.rack_id = rack_id
        self.power_limit_watts = power_limit_watts
        self.servers: list[Server] = []
        self.datacenter: Optional["Datacenter"] = None
        # Cached sum of server wattages, updated by server deltas.
        self._power_watts = 0.0

    def add_server(self, server: Server) -> None:
        if server.rack is not None:
            raise ValueError(f"{server.server_id} already belongs to "
                             f"{server.rack.rack_id}")
        server.rack = self
        self.servers.append(server)
        self._apply_power_delta(server.power_watts())

    def _apply_power_delta(self, delta: float) -> None:
        self._power_watts += delta
        if self.datacenter is not None:
            self.datacenter._apply_power_delta(delta)

    def power_watts(self) -> float:
        """O(1): the rack aggregate maintained by server power deltas."""
        return self._power_watts

    def recompute_power_watts(self) -> float:
        """From-scratch per-server recompute, for validation."""
        return sum(s.recompute_power_watts() for s in self.servers)

    def utilization(self) -> float:
        """Rack power as a fraction of the rack limit."""
        return self.power_watts() / self.power_limit_watts

    def below_turbo_vms(self) -> int:
        """VMs in this rack currently below their plan's turbo frequency.

        O(servers): sums per-server counters maintained on placement and
        frequency changes.  Zero means the restore step has nothing to do.
        """
        return sum(s._below_turbo_vms for s in self.servers)

    def fair_share_watts(self) -> float:
        """The even per-server split of the rack budget (the baseline the
        paper's heterogeneous assignment improves on, §III Q4)."""
        if not self.servers:
            raise ValueError(f"rack {self.rack_id} has no servers")
        return self.power_limit_watts / len(self.servers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Rack({self.rack_id}, servers={len(self.servers)}, "
                f"limit={self.power_limit_watts}W)")


class Datacenter:
    """A collection of racks with id-based lookup."""

    def __init__(self, name: str = "dc") -> None:
        self.name = name
        self.racks: dict[str, Rack] = {}
        self._total_watts = 0.0

    def add_rack(self, rack: Rack) -> None:
        if rack.rack_id in self.racks:
            raise ValueError(f"duplicate rack id {rack.rack_id}")
        if rack.datacenter is not None:
            raise ValueError(f"rack {rack.rack_id} already belongs to "
                             f"datacenter {rack.datacenter.name}")
        rack.datacenter = self
        self.racks[rack.rack_id] = rack
        self._apply_power_delta(rack.power_watts())

    def _apply_power_delta(self, delta: float) -> None:
        self._total_watts += delta

    def servers(self) -> Iterator[Server]:
        for rack in self.racks.values():
            yield from rack.servers

    def find_server(self, server_id: str) -> Server:
        for server in self.servers():
            if server.server_id == server_id:
                return server
        raise KeyError(f"no server {server_id} in datacenter {self.name}")

    def total_power_watts(self) -> float:
        """O(1): the fleet aggregate maintained by rack power deltas."""
        return self._total_watts

    def recompute_total_power_watts(self) -> float:
        """From-scratch recompute across all racks, for validation."""
        return sum(rack.recompute_power_watts()
                   for rack in self.racks.values())
