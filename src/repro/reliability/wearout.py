"""Wear counters and epoch-based overclocking time budgets.

Two pieces (paper §IV-B "Managing lifetime impact from overclocking"):

* :class:`CoreWearoutCounter` — per-core time-in-state accounting, the
  simulated stand-in for Intel PMT / AMD HSMP counters plus the "wear-out
  counters" the paper is pursuing with vendors (§VI).
* :class:`EpochBudget` — the overall overclocking allowance (e.g. 10 % of
  time over the component's life) divided into epochs.  A week-long epoch
  lets unused weekend budget flow to weekdays; unused budget carries over
  to the next epoch (bounded), and scheduled requests can *reserve* budget
  for a predictable experience.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Optional

from repro.reliability.aging import DEFAULT_AGING_MODEL, AgingModel
from repro.sim.fold import MIN_CLOSED_FORM_RUN, repeat_add

__all__ = ["CoreWearoutCounter", "EpochBudget", "OverclockBudgetPlanner"]

SECONDS_PER_DAY = 86400.0
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY


class CoreWearoutCounter:
    """Accumulates wear and time-in-state for one core.

    The accumulators are private backing fields behind read-only
    properties: they are part of the sOA's *durable* (checkpointed)
    state, and the ``durable-state-write`` lint rule guarantees nothing
    outside the owner and the checkpoint/restore API mutates them.
    """

    def __init__(self, model: AgingModel = DEFAULT_AGING_MODEL) -> None:
        self.model = model
        self._elapsed_seconds = 0.0
        self._busy_seconds = 0.0
        self._overclock_seconds = 0.0
        self._wear_seconds = 0.0  # wear in reference-seconds
        # Owners running lazy accrual install a hook that folds any
        # pending time into the accumulators before they are read; the
        # properties and state_dict() call it so deferred accounting is
        # invisible to every reader (including checkpoints).
        self._flush_hook: Optional[Callable[[], None]] = None

    @property
    def elapsed_seconds(self) -> float:
        if self._flush_hook is not None:
            self._flush_hook()
        return self._elapsed_seconds

    @property
    def busy_seconds(self) -> float:
        if self._flush_hook is not None:
            self._flush_hook()
        return self._busy_seconds

    @property
    def overclock_seconds(self) -> float:
        if self._flush_hook is not None:
            self._flush_hook()
        return self._overclock_seconds

    @property
    def wear_seconds(self) -> float:
        if self._flush_hook is not None:
            self._flush_hook()
        return self._wear_seconds

    def accumulate(self, dt: float, utilization: float, volts: float,
                   temp_k: float | None = None) -> None:
        """Account ``dt`` seconds at the given operating point."""
        if dt < 0:
            raise ValueError(f"dt must be >= 0: {dt}")
        self._elapsed_seconds += dt
        self._busy_seconds += utilization * dt
        if volts > self.model.reference_volts + 1e-12:
            self._overclock_seconds += dt
        self._wear_seconds += self.model.aging(dt, utilization, volts,
                                               temp_k)

    def accumulate_run(self, dt: float, utilization: float, volts: float,
                       count: int, temp_k: float | None = None) -> None:
        """Account ``count`` consecutive ticks of ``dt`` seconds each.

        Bit-identical to calling :meth:`accumulate` ``count`` times with
        the same arguments: the per-tick increments are hoisted out of
        the loop (they depend only on the operating point, which is
        constant across the run).  Float addition does not reassociate,
        so each accumulator gets the left fold's exact result: short runs
        replay the adds one by one, longer ones take the closed form of
        :func:`repro.sim.fold.repeat_add`.
        """
        if dt < 0:
            raise ValueError(f"dt must be >= 0: {dt}")
        if count <= 0:
            if count == 0:
                return
            raise ValueError(f"count must be >= 0: {count}")
        busy_inc = utilization * dt
        wear_inc = self.model.aging(dt, utilization, volts, temp_k)
        overclocked = volts > self.model.reference_volts + 1e-12
        elapsed = self._elapsed_seconds
        busy = self._busy_seconds
        oc = self._overclock_seconds
        wear = self._wear_seconds
        if count < MIN_CLOSED_FORM_RUN:
            for _ in repeat(None, count):
                elapsed += dt
                busy += busy_inc
                if overclocked:
                    oc += dt
                wear += wear_inc
        else:
            elapsed = repeat_add(elapsed, dt, count)
            busy = repeat_add(busy, busy_inc, count)
            if overclocked:
                oc = repeat_add(oc, dt, count)
            wear = repeat_add(wear, wear_inc, count)
        self._elapsed_seconds = elapsed
        self._busy_seconds = busy
        self._overclock_seconds = oc
        self._wear_seconds = wear

    def state_dict(self) -> dict[str, float]:
        """Serializable accumulator snapshot (checkpoint payload)."""
        if self._flush_hook is not None:
            self._flush_hook()
        return {
            "elapsed_seconds": self._elapsed_seconds,
            "busy_seconds": self._busy_seconds,
            "overclock_seconds": self._overclock_seconds,
            "wear_seconds": self._wear_seconds,
        }

    def load_state_dict(self, state: dict[str, float]) -> None:
        """Restore the accumulators from a :meth:`state_dict` snapshot."""
        self._elapsed_seconds = float(state["elapsed_seconds"])
        self._busy_seconds = float(state["busy_seconds"])
        self._overclock_seconds = float(state["overclock_seconds"])
        self._wear_seconds = float(state["wear_seconds"])

    @property
    def wear_ratio(self) -> float:
        """Wear relative to elapsed time: 1.0 = ageing at the vendor
        reference rate; < 1 accumulates credits; > 1 burns lifetime."""
        if self.elapsed_seconds == 0:
            return 0.0
        return self.wear_seconds / self.elapsed_seconds

    @property
    def lifetime_credit_seconds(self) -> float:
        """Accumulated headroom: elapsed time minus wear (can be < 0)."""
        return self.elapsed_seconds - self.wear_seconds


@dataclass
class EpochBudget:
    """Overclocking time budget for one core, split into epochs.

    ``budget_fraction`` — share of total time allowed overclocked (the
    vendor-agreed figure, e.g. 0.10);
    ``epoch_seconds`` — epoch length (default: one week);
    ``weekday_only`` — when True, the epoch's budget is divided across the
    five weekdays (per-weekday max) instead of all seven days, modelling
    "assigning unused budgets from the weekend to the weekdays";
    ``carryover_cap_epochs`` — at most this many epochs' worth of unused
    budget may be carried forward.
    """

    budget_fraction: float = 0.10
    epoch_seconds: float = SECONDS_PER_WEEK
    weekday_only: bool = True
    carryover_cap_epochs: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.budget_fraction <= 1.0:
            raise ValueError(
                f"budget_fraction must be in [0, 1]: {self.budget_fraction}")
        if self.epoch_seconds <= 0:
            raise ValueError(
                f"epoch_seconds must be > 0: {self.epoch_seconds}")
        if self.carryover_cap_epochs < 0:
            raise ValueError("carryover_cap_epochs must be >= 0: "
                             f"{self.carryover_cap_epochs}")
        self._epoch_index = 0
        self._carryover = 0.0
        self._consumed = 0.0
        self._reserved = 0.0

    @property
    def epoch_allowance_seconds(self) -> float:
        """Fresh budget granted at the start of every epoch."""
        return self.budget_fraction * self.epoch_seconds

    def per_weekday_seconds(self) -> float:
        """Max overclocking time per weekday under the weekly epoch."""
        if self.epoch_seconds != SECONDS_PER_WEEK:
            raise ValueError(
                "per-weekday split is defined for week-long epochs")
        days = 5.0 if self.weekday_only else 7.0
        return self.epoch_allowance_seconds / days

    def _sync_epoch(self, now: float) -> None:
        epoch = int(now // self.epoch_seconds)
        while self._epoch_index < epoch:
            unused = max(0.0, self._available_no_sync())
            cap = self.carryover_cap_epochs * self.epoch_allowance_seconds
            self._carryover = min(unused, cap)
            self._consumed = 0.0
            self._reserved = 0.0
            self._epoch_index += 1
        if epoch < self._epoch_index:
            raise ValueError(
                f"time went backwards: epoch {epoch} < {self._epoch_index}")

    def _available_no_sync(self) -> float:
        return (self.epoch_allowance_seconds + self._carryover
                - self._consumed - self._reserved)

    def available_seconds(self, now: float) -> float:
        """Unreserved budget remaining in the current epoch."""
        self._sync_epoch(now)
        return max(0.0, self._available_no_sync())

    def reserve(self, now: float, seconds: float) -> bool:
        """Soft-reserve budget for a scheduled request.  Returns success."""
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0: {seconds}")
        self._sync_epoch(now)
        if self._available_no_sync() < seconds:
            return False
        self._reserved += seconds
        return True

    def release_reservation(self, now: float, seconds: float) -> None:
        """Return unused reserved budget to the pool."""
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0: {seconds}")
        self._sync_epoch(now)
        self._reserved = max(0.0, self._reserved - seconds)

    def consume(self, now: float, seconds: float, *,
                from_reservation: bool = False) -> bool:
        """Burn budget for actual overclocked time.  Returns success.

        With ``from_reservation`` the time is drawn from previously
        reserved budget; otherwise from the unreserved pool.
        """
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0: {seconds}")
        self._sync_epoch(now)
        if from_reservation:
            if self._reserved + 1e-9 < seconds:
                return False
            # The epsilon above absorbs float error; never let the
            # accounting dip below zero because of it.
            self._reserved = max(0.0, self._reserved - seconds)
            self._consumed += seconds
            return True
        if self._available_no_sync() + 1e-9 < seconds:
            return False
        self._consumed += seconds
        return True

    @property
    def consumed_seconds(self) -> float:
        return self._consumed

    @property
    def reserved_seconds(self) -> float:
        return self._reserved

    def state_dict(self) -> dict[str, float]:
        """Serializable epoch-accounting snapshot (checkpoint payload)."""
        return {
            "epoch_index": float(self._epoch_index),
            "carryover": self._carryover,
            "consumed": self._consumed,
            "reserved": self._reserved,
        }

    def load_state_dict(self, state: dict[str, float]) -> None:
        """Restore epoch accounting from a :meth:`state_dict` snapshot."""
        self._epoch_index = int(state["epoch_index"])
        self._carryover = float(state["carryover"])
        self._consumed = float(state["consumed"])
        self._reserved = float(state["reserved"])


class OverclockBudgetPlanner:
    """Derives the budget fraction from the ageing model.

    The paper obtains the max-overclocking-time figure from an offline
    vendor analysis; this planner reproduces that analysis with the
    parametric :class:`AgingModel`, so experiments can either take the
    derived figure or override it with the paper's 10 %.
    """

    def __init__(self, model: AgingModel = DEFAULT_AGING_MODEL) -> None:
        self.model = model

    def budget_fraction(self, *, baseline_utilization: float = 0.5,
                        oc_volts: float = 1.75,
                        oc_utilization: float | None = None,
                        temp_k: float | None = None) -> float:
        """Allowed overclocked-time fraction for lifetime-neutral wear.

        ``oc_utilization`` defaults to the worst case: the same utilization
        as the baseline (the paper's offline modelling assumption).
        """
        oc_util = (baseline_utilization if oc_utilization is None
                   else oc_utilization)
        return self.model.overclock_time_fraction(
            baseline_utilization, oc_util, oc_volts, temp_k)

    def make_budget(self, **kwargs: float) -> EpochBudget:
        """Construct an :class:`EpochBudget` from the derived fraction."""
        fraction = self.budget_fraction(**kwargs)
        return EpochBudget(budget_fraction=fraction)
