"""Heterogeneous power-budget computation (paper §IV-C).

The gOA splits each rack's power limit across its servers in three phases:

1. separate each server's profile into *regular* and *overclock* power
   (done upstream: the :class:`~repro.core.types.ServerProfileReport`
   carries regular power and overclocked-core counts);
2. give every server an initial budget equal to its regular power;
3. split the remaining headroom proportionally to each server's overclock
   *need* in watts (granted cores × per-core overclock delta).

Worked example from the paper: limit 1.3 kW; Server-X regular 400 W,
needs 50 W; Server-Y regular 300 W, needs 100 W → budgets 600 W and 700 W.

Edge cases the paper leaves implicit, resolved here:

* nobody needs overclocking at a slot → headroom is split evenly (any
  server may later *explore* into it);
* predicted regular power already exceeds the limit (overcommitted rack /
  misprediction) → budgets are regular power scaled down proportionally so
  they sum to the limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from repro.core.types import ServerProfileReport
from repro.recovery.checkpoint import CanonicalFragment
from repro.sim.fold import left_sum

__all__ = ["BudgetAssignment", "compute_heterogeneous_budgets"]


#: Valid ``out_of_horizon`` policies for :meth:`BudgetAssignment.budget_at`.
OUT_OF_HORIZON_MODES = ("raise", "clamp", "wrap")


@dataclass(frozen=True)
class BudgetAssignment:
    """Per-server power budgets, one value per slot of the planning week.

    ``epoch`` is the gOA's monotone push counter (fencing token): every
    recompute-and-push stamps the next epoch, and sOAs reject pushes
    older than what they already installed, so a delayed or reordered
    delivery can never roll a server back to a superseded assignment.
    Hand-built assignments default to epoch 0 (always installable on a
    fresh sOA).

    An assignment is read-only all the way down: ``budgets`` becomes a
    read-only mapping of read-only float64 copies of the given series.
    One assignment is shared by every sOA of the rack until the next
    push, and each of their checkpoints splices in
    :attr:`budgets_fragment`, encoded once; a series that could change
    would leave that cached encoding stale.
    """

    slot_s: float
    budgets: Mapping[str, np.ndarray]
    epoch: int = 0

    def __post_init__(self) -> None:
        if self.epoch < 0:
            raise ValueError(f"epoch must be >= 0: {self.epoch}")
        frozen: dict[str, np.ndarray] = {}
        for server_id, series in self.budgets.items():
            # A copy: the caller may hold a writable view of the series.
            array = np.array(series, dtype=np.float64)
            array.flags.writeable = False
            frozen[server_id] = array
        object.__setattr__(self, "budgets", MappingProxyType(frozen))

    @cached_property
    def budgets_fragment(self) -> CanonicalFragment:
        """The budgets as a checkpoint stores them — each series a tuple
        of floats, servers in sorted order — encoded once."""
        return CanonicalFragment({
            server_id: tuple(self.budgets[server_id].tolist())
            for server_id in sorted(self.budgets)})

    @property
    def plan_horizon(self) -> float:
        """Length in seconds covered by the budget series.

        Plans are no longer always exactly one week: the ceil-derived
        trailing partial week means the horizon is whatever the series
        actually covers.
        """
        first = next(iter(self.budgets.values()))
        return self.slot_s * len(first)

    def budget_at(self, server_id: str, t: float, *,
                  out_of_horizon: str = "raise") -> float:
        """Budget for ``server_id`` at time ``t`` (seconds from plan start).

        ``t`` outside ``[0, plan_horizon)`` is an explicit decision, not a
        silent modulo: ``t == plan_horizon`` is already the first instant
        *past* the plan (slot indices are half-open), and the old implicit
        wrap handed back the *week-start* budget there — one slot off even
        under periodic-replay semantics, and simply wrong for a partial
        trailing week.

        * ``"raise"`` (default) — out-of-horizon lookups are a
          :class:`LookupError`; callers must opt into a semantic.
        * ``"clamp"`` — hold the boundary slot (last slot for late ``t``,
          first for negative): the conservative stale-plan behaviour.
        * ``"wrap"`` — periodic time-of-horizon replay (the sOA's
          steady-state use, where budgets repeat until a new assignment
          arrives).
        """
        if out_of_horizon not in OUT_OF_HORIZON_MODES:
            raise ValueError(
                f"out_of_horizon must be one of {OUT_OF_HORIZON_MODES}: "
                f"{out_of_horizon!r}")
        series = self.budgets[server_id]
        n = len(series)
        slot = int(t // self.slot_s)
        if slot < 0 or slot >= n:
            if out_of_horizon == "raise":
                raise LookupError(
                    f"t={t} outside plan horizon [0, {self.plan_horizon}) "
                    f"for {server_id!r}; pass out_of_horizon='clamp' or "
                    f"'wrap' to extrapolate")
            if out_of_horizon == "clamp":
                slot = n - 1 if slot >= n else 0
            else:
                slot %= n
        return float(series[slot])

    def total_at(self, t: float, *, out_of_horizon: str = "raise") -> float:
        return left_sum(self.budget_at(sid, t, out_of_horizon=out_of_horizon)
                        for sid in self.budgets)


def compute_heterogeneous_budgets(
        rack_limit_watts: "float | np.ndarray",
        profiles: list[ServerProfileReport],
        oc_delta_watts_per_core: float,
        even_headroom_fraction: float = 0.3) -> BudgetAssignment:
    """Three-phase heterogeneous split of ``rack_limit_watts``.

    All profiles must share slot resolution and length.  Budgets at every
    slot sum to exactly the rack limit (the whole limit is distributed:
    unneeded headroom still belongs to someone so local decisions can use
    it).

    ``rack_limit_watts`` may be a scalar (the physical limit, the common
    case) or a per-slot array of the same length as the profiles — the
    oversubscription controller plans against ``limit + admitted(t)``
    series.  A scalar behaves bit-identically to the equivalent constant
    array.

    ``even_headroom_fraction`` of the headroom is always split evenly so
    that a server whose demand the templates missed entirely still holds a
    usable floor (its exploration then starts from there); the remainder
    follows the paper's proportional-to-need rule.
    """
    if not 0.0 <= even_headroom_fraction <= 1.0:
        raise ValueError("even_headroom_fraction must be in [0, 1]: "
                         f"{even_headroom_fraction}")
    if not profiles:
        raise ValueError("need at least one server profile")
    if oc_delta_watts_per_core <= 0:
        raise ValueError(
            f"per-core delta must be > 0: {oc_delta_watts_per_core}")
    slot_s = profiles[0].slot_s
    n_slots = len(profiles[0].regular_power_watts)
    for p in profiles:
        if p.slot_s != slot_s or len(p.regular_power_watts) != n_slots:
            raise ValueError("profiles must share slot resolution/length")
    limit = np.asarray(rack_limit_watts, dtype=float)
    if limit.ndim == 0:
        limit = np.full(n_slots, float(limit))
    elif limit.shape != (n_slots,):
        raise ValueError(
            f"per-slot limit must have shape ({n_slots},), got "
            f"{limit.shape}")
    if np.any(limit <= 0):
        raise ValueError(f"rack limit must be > 0: {rack_limit_watts}")

    regular = np.stack([p.regular_power_watts for p in profiles])
    # Need is driven by *requested* cores: a server whose requests were
    # rejected last week still signals demand (otherwise budgets can never
    # bootstrap out of a bad initial split).
    need = np.stack([p.oc_requested_cores for p in profiles]).astype(float)
    need *= oc_delta_watts_per_core

    total_regular = regular.sum(axis=0)
    headroom = limit - total_regular
    total_need = need.sum(axis=0)

    budgets = np.empty_like(regular)
    n = len(profiles)
    over = headroom <= 0
    needy = ~over & (total_need > 0)
    idle = ~over & ~needy
    if np.any(over):
        # Overcommitted: scale regular power down proportionally.
        budgets[:, over] = (regular[:, over] * limit[over]
                            / total_regular[over])
    if np.any(needy):
        even = even_headroom_fraction * headroom[needy]
        by_need = headroom[needy] - even
        budgets[:, needy] = (regular[:, needy] + even / n
                             + by_need * need[:, needy] / total_need[needy])
    if np.any(idle):
        budgets[:, idle] = regular[:, idle] + headroom[idle] / n

    return BudgetAssignment(
        slot_s=slot_s,
        budgets={p.server_id: budgets[i] for i, p in enumerate(profiles)})
