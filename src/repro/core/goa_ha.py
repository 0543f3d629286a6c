"""gOA high availability: primary/standby replicas with lease failover.

The paper survives a dead gOA by decentralization alone: sOAs keep
operating on their last assignment, degrading overclocking quality until
the gOA returns (§III Q5).  That bounds *safety* but not *liveness* — a
gOA that stays dead means budgets go stale for good.  This module adds
the standard control-plane fix: one standby replica per rack that
watches the primary's heartbeat lease and takes over when it lapses.

Design (all on existing plumbing — no new transport):

* **Heartbeats** are ordinary :data:`~repro.core.messaging.GOA_HEARTBEAT`
  messages over the rack's :class:`~repro.core.messaging.MessageChannel`,
  so the same fault plans that drop budget pushes can drop heartbeats —
  false failovers are a scenario, not a bug.
* **Lease**: a standby that has not heard a heartbeat for
  ``config.goa_lease_s`` promotes itself.  It cannot distinguish a dead
  primary from a partitioned one, and does not need to:
* **Fencing**: every budget push carries the assignment's epoch
  (:class:`~repro.core.budgets.BudgetAssignment.epoch`), stamped from the
  pushing gOA's monotone counter.  A promoted standby seeds its counter
  past the greatest epoch it can prove existed — its own, the last one
  heard in a heartbeat, and the one in the durable gOA checkpoint — so
  its first recompute pushes at a strictly higher epoch and every sOA's
  fence (:meth:`~repro.core.soa.ServerOverclockingAgent
  .receive_budget_push`) rejects the deposed primary's stale pushes,
  including ones already in flight.
* **Stepdown**: a deposed primary learns of its deposition from either
  a heartbeat carrying a higher epoch or the durable checkpoint's epoch
  (checked before every push cycle) and demotes itself to standby.
  Until then the epoch fence keeps its split-brain pushes harmless.
* **State rebuild**: a promoted standby re-pulls live profiles from the
  sOAs (``goa.update``) rather than replaying history; the only state
  that must survive the primary is the epoch, which is exactly what the
  :class:`~repro.recovery.checkpoint.GoaCheckpoint` carries.  A
  corrupted or missing checkpoint degrades the epoch floor, never
  safety: heartbeat-observed epochs still fence, and in the worst case
  stale pushes are rejected by the sOAs' installed epoch anyway.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Optional

from repro.cluster.topology import Rack
from repro.core.budgets import BudgetAssignment
from repro.core.config import SmartOClockConfig
from repro.core.goa import GlobalOverclockingAgent
from repro.core.messaging import GOA_HEARTBEAT, Envelope, MessageChannel
from repro.core.soa import ServerOverclockingAgent
from repro.recovery.checkpoint import DurableStore, GoaCheckpoint

__all__ = ["HaCounters", "GoaReplica", "GoaSupervisor"]

PRIMARY = "primary"
STANDBY = "standby"

#: Is replica ``index`` down at time ``now``?  Installed by the platform
#: to map :class:`~repro.faults.spec.GoaOutage` windows onto replica 0
#: (the machine the non-HA deployment runs its only gOA on).
DownHook = Callable[[int, float], bool]


@dataclass
class HaCounters:
    """What the HA layer did during a run (telemetry for experiments)."""

    failovers: int = 0             # standby promotions (lease lapses)
    stepdowns: int = 0             # deposed primaries demoting
    heartbeats_sent: int = 0
    heartbeats_received: int = 0
    cycles_missed: int = 0         # update cycles with no live primary

    def as_dict(self) -> dict[str, int]:
        return {f"ha_{name}": value for name, value in asdict(self).items()}


@dataclass
class GoaReplica:
    """One gOA replica plus the supervisor's view of it.

    ``role`` is the replica's own belief — two replicas can both believe
    ``primary`` during a partition (that is the split-brain window the
    epoch fence exists for)."""

    index: int
    goa: GlobalOverclockingAgent
    role: str
    # Standby bookkeeping: when the heartbeat lease runs out, and the
    # greatest primary epoch ever heard (fencing floor on promotion).
    lease_expires_at: float = 0.0
    last_seen_epoch: int = 0
    # Primary bookkeeping: next heartbeat due time.
    next_heartbeat_at: float = 0.0

    @property
    def name(self) -> str:
        return f"goa{self.index}"


class GoaSupervisor:
    """Runs a rack's primary + standby gOA replicas.

    The platform drives it exactly like a bare gOA — :meth:`tick` every
    platform tick (heartbeats, lease checks), :meth:`update` on the
    budget cadence — and reads :attr:`active_goa` wherever it read
    ``self.goas[rack_id]`` before.
    """

    def __init__(self, rack: Rack, config: SmartOClockConfig,
                 soas: list[ServerOverclockingAgent],
                 channel: MessageChannel,
                 store: DurableStore,
                 down_hook: Optional[DownHook] = None) -> None:
        self.rack = rack
        self.config = config
        self.channel = channel
        self.store = store
        self.down_hook = down_hook
        self.counters = HaCounters()
        # Both replicas speak to the same sOAs over the same channel —
        # they are two processes, not two control planes.
        self.replicas = [
            GoaReplica(index=0, role=PRIMARY,
                       goa=GlobalOverclockingAgent(
                           rack, config, soas, channel=channel)),
            GoaReplica(index=1, role=STANDBY,
                       goa=GlobalOverclockingAgent(
                           rack, config, soas, channel=channel),
                       lease_expires_at=config.goa_lease_s),
        ]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def active_goa(self) -> GlobalOverclockingAgent:
        """The highest-epoch replica currently believing it is primary
        (falling back to replica 0 if, transiently, neither does)."""
        primaries = [r for r in self.replicas if r.role == PRIMARY]
        if not primaries:
            return self.replicas[0].goa
        return max(primaries, key=lambda r: (r.goa.epoch, -r.index)).goa

    @property
    def primary_indices(self) -> list[int]:
        return [r.index for r in self.replicas if r.role == PRIMARY]

    def _down(self, index: int, now: float) -> bool:
        if self.down_hook is None:
            return False
        return self.down_hook(index, now)

    def _stored_epoch(self) -> int:
        """Fencing floor from the durable gOA checkpoint.

        A corrupted checkpoint verifies as missing (epoch floor 0) —
        the heartbeat-observed epoch and the sOAs' installed epochs
        still fence, so corruption degrades takeover freshness only."""
        load = self.store.load_goa(self.rack.rack_id)
        if load.checkpoint is None:
            return 0
        return int(load.checkpoint.payload["epoch"])

    def _save_goa_checkpoint(self, replica: GoaReplica, now: float) -> None:
        goa = replica.goa
        self.store.save_goa(GoaCheckpoint(
            rack_id=self.rack.rack_id,
            taken_at=now,
            payload={
                "epoch": goa.epoch,
                "primary_index": replica.index,
                "budget_updates": goa.budget_updates,
            }))

    # ------------------------------------------------------------------
    # Role transitions
    # ------------------------------------------------------------------

    def _promote(self, replica: GoaReplica, now: float) -> None:
        """Standby → primary: seed the epoch fence, rebuild, push."""
        replica.goa.epoch = max(replica.goa.epoch,
                                replica.last_seen_epoch,
                                self._stored_epoch())
        replica.role = PRIMARY
        replica.next_heartbeat_at = now
        self.counters.failovers += 1
        # Rebuild from the live sOAs: re-pull profiles and push a fresh
        # assignment at epoch+1.  Failed pulls just mean the sOAs keep
        # their last assignment until the next cycle — the non-HA
        # degradation mode, now bounded by the failover instead of
        # lasting as long as the outage.
        replica.goa.update(now)
        self._save_goa_checkpoint(replica, now)

    def _stepdown(self, replica: GoaReplica, now: float) -> None:
        """Deposed primary → standby with a fresh full lease."""
        replica.role = STANDBY
        replica.lease_expires_at = now + self.config.goa_lease_s
        self.counters.stepdowns += 1

    def _receive_heartbeat(self, receiver: GoaReplica, epoch: int,
                           at: float) -> None:
        if self._down(receiver.index, at):
            return  # a dead replica cannot take delivery
        self.counters.heartbeats_received += 1
        receiver.last_seen_epoch = max(receiver.last_seen_epoch, epoch)
        if receiver.role == STANDBY:
            receiver.lease_expires_at = at + self.config.goa_lease_s
            return
        # Two primaries hear each other: strictly higher epoch wins,
        # the other demotes.  A stale heartbeat (lower epoch, e.g. a
        # deposed primary's or one delayed in flight) is ignored.
        if epoch > receiver.goa.epoch:
            self._stepdown(receiver, at)

    # ------------------------------------------------------------------
    # Platform hooks
    # ------------------------------------------------------------------

    def tick(self, now: float) -> None:
        """Per-platform-tick HA work: heartbeats and lease checks."""
        for replica in self.replicas:
            if self._down(replica.index, now):
                continue
            if replica.role == PRIMARY:
                if now >= replica.next_heartbeat_at:
                    self._send_heartbeat(replica, now)
                    replica.next_heartbeat_at = (
                        now + self.config.goa_heartbeat_interval_s)
            elif now >= replica.lease_expires_at:
                self._promote(replica, now)

    def _send_heartbeat(self, sender: GoaReplica, now: float) -> None:
        peer = self.replicas[1 - sender.index]
        self.counters.heartbeats_sent += 1
        self.channel.send(
            Envelope(GOA_HEARTBEAT, f"{self.rack.rack_id}/{sender.name}",
                     f"{self.rack.rack_id}/{peer.name}", now),
            lambda at, r=peer, e=sender.goa.epoch:
                self._receive_heartbeat(r, e, at))

    def update(self, now: float) -> Optional[BudgetAssignment]:
        """One budget cadence cycle, run by whoever believes primary.

        Each believer fence-checks the durable epoch before pushing: a
        deposed primary finds a higher stored epoch and steps down
        instead of pushing.  (Its already-in-flight pushes are fenced by
        the sOAs.)  Replica order is fixed, so runs are deterministic."""
        result: Optional[BudgetAssignment] = None
        live_primary = False
        for replica in self.replicas:
            if replica.role != PRIMARY:
                continue
            if self._down(replica.index, now):
                continue
            if self._stored_epoch() > replica.goa.epoch:
                self._stepdown(replica, now)
                continue
            live_primary = True
            assignment = replica.goa.update(now)
            self._save_goa_checkpoint(replica, now)
            if result is None or (assignment is not None
                                  and assignment.epoch > result.epoch):
                result = assignment
        if not live_primary:
            self.counters.cycles_missed += 1
        return result
