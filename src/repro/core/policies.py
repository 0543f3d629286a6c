"""Trace-driven overclocking policies (paper §V-B, Table I).

These are the decision kernels the large-scale simulator
(:mod:`repro.experiments.largescale`) runs against production-style rack
traces at 5-minute granularity:

* **Central** — an oracle with a zero-latency global view of rack power;
  grants exactly as many overclocked cores as fit under the limit.  Its
  only error source is telemetry lag (decisions see the previous tick).
* **NaiveOClock** — grants everything; fair-share capping.
* **NoFeedback** — heterogeneous per-server budgets from weekly templates,
  strictly enforced, no exploration.
* **NoWarning** — NoFeedback + exploration beyond the budget, but only
  capping events rein it in.
* **SmartOClock** — full system: budgets, exploration, rack warnings with
  exponential back-off.

Each policy sees, per tick, last tick's observed baseline power and
utilization (telemetry lag), the servers' overclock demand in cores, and
its own persistent state; it returns granted cores per server.

Fast-path contract (DESIGN.md "Performance architecture"): policies
additionally declare whether ``decide`` is *tick-stateless*
(``tick_stateless``) and may implement ``begin_week_fast`` /
``plan_segment`` so the vectorized simulator can pre-compute whole runs
of decisions.  Planned grants must be bitwise identical to what the
scalar ``decide`` loop would produce — the equivalence property tests
enforce this across all five policies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Optional

import numpy as np

from repro.core.budgets import compute_heterogeneous_budgets
from repro.core.oversubscription import (
    RISK_LEVELS,
    OversubscriptionController,
    OversubscriptionDecision,
)
from repro.core.types import ServerProfileReport
from repro.prediction.quantiles import DailyQuantileTemplate
from repro.prediction.templates import (
    PowerTemplate,
    TemplateKind,
    build_templates,
    predict_series_batch,
)

__all__ = [
    "TickContext",
    "WeekHistory",
    "RackWeekView",
    "SegmentPlan",
    "TracePolicy",
    "CentralOracle",
    "NaiveOClock",
    "NoFeedback",
    "NoWarning",
    "SmartOClockPolicy",
    "SmartOClockOSub",
    "make_policy",
    "POLICY_NAMES",
]


SECONDS_PER_WEEK = 7 * 86400.0


def _slots_per_week(slot_s: float) -> int:
    return int(round(SECONDS_PER_WEEK / slot_s))


def _shared(array: np.ndarray) -> np.ndarray:
    """Mark a memoized array read-only: every policy on the rack sees it."""
    array.flags.writeable = False
    return array


class WeekHistory:
    """One history week of a rack, shared by every policy planning from it.

    Holds the week's telemetry as per-server rows (``power`` and
    ``demand`` are servers x ticks on the ``times`` axis) and memoizes on
    itself, lazily, whatever policies derive from it that no policy
    changes: templates, their slot-resolution predictions, the demand
    template, budget splits per planning limit, tick predictions over the
    evaluation week and quantile series.  All six Table-I policies of a
    rack then fit each rack-week once, and a policy that never asks
    (Central, NaiveOClock) pays nothing.  Memoized arrays are read-only.
    """

    def __init__(self, times: np.ndarray, power: np.ndarray,
                 demand: np.ndarray, limit_watts: float) -> None:
        self.times = times
        self.power = power
        self.demand = demand
        self.limit_watts = limit_watts
        self._memo: dict[tuple, Any] = {}

    @property
    def n_servers(self) -> int:
        return len(self.power)

    def _memoized(self, key: tuple, compute: Callable[[], Any]) -> Any:
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def templates(self, kind: TemplateKind) -> list[PowerTemplate]:
        """One ``kind`` template per server, fitted in one batch."""
        return self._memoized(("templates", kind), lambda: build_templates(
            kind, self.times, self.power))

    def slot_times(self, slot_s: float) -> np.ndarray:
        """Slot start times of the week after this history."""
        week_start = (self.times[-1] // SECONDS_PER_WEEK + 1) \
            * SECONDS_PER_WEEK
        return week_start + slot_s * np.arange(_slots_per_week(slot_s))

    def regular(self, kind: TemplateKind, slot_s: float) -> np.ndarray:
        """(slots, servers) template predictions at :meth:`slot_times`."""
        return self._memoized(("regular", kind, slot_s), lambda: _shared(
            predict_series_batch(self.templates(kind),
                                 self.slot_times(slot_s))))

    def predictions(self, kind: TemplateKind,
                    times: np.ndarray) -> np.ndarray:
        """(ticks, servers) C-contiguous template predictions at
        ``times`` (the evaluation week's ticks)."""
        return self._memoized(
            ("predictions", kind, times.tobytes()),
            lambda: _shared(np.ascontiguousarray(
                predict_series_batch(self.templates(kind), times))))

    def demand_template(self, slot_s: float) -> np.ndarray:
        """(servers, slots) per-slot-of-week max overclock demand."""
        return self._memoized(("demand", slot_s),
                              lambda: _shared(self._slot_max(slot_s)))

    def _slot_max(self, slot_s: float) -> np.ndarray:
        n_slots = _slots_per_week(slot_s)
        slots = ((self.times % SECONDS_PER_WEEK)
                 // slot_s).astype(int) % n_slots
        table = np.zeros((self.n_servers, n_slots))
        if len(slots):
            # Sort the samples by slot and reduce each run of equal slots:
            # the same maxima as scattering with np.maximum.at, without
            # its per-element dispatch.  Slots never seen stay 0.
            order = np.argsort(slots, kind="stable")
            ordered = slots[order]
            starts = np.flatnonzero(np.concatenate(
                ([True], ordered[1:] != ordered[:-1])))
            table[:, ordered[starts]] = np.maximum.reduceat(
                self.demand[:, order], starts, axis=1)
        return table

    def budgets(self, kind: TemplateKind, slot_s: float,
                planning_limit: "float | np.ndarray") -> np.ndarray:
        """(servers, slots) heterogeneous split of ``planning_limit``
        (scalar or per slot) over the servers' regular power and demand."""
        limit = np.asarray(planning_limit, dtype=float)
        return self._memoized(
            ("budgets", kind, slot_s, limit.shape, limit.tobytes()),
            lambda: _shared(self._split(kind, slot_s, planning_limit)))

    def _split(self, kind: TemplateKind, slot_s: float,
               planning_limit: "float | np.ndarray") -> np.ndarray:
        regular_all = self.regular(kind, slot_s)
        demand_all = self.demand_template(slot_s)
        profiles = [ServerProfileReport(
            server_id=f"s{i:03d}", slot_s=slot_s,
            regular_power_watts=regular_all[:, i],
            oc_requested_cores=demand_all[i],
            oc_granted_cores=demand_all[i]) for i in range(self.n_servers)]
        # The headroom split is proportional, so any positive per-core
        # delta yields the same budgets; 1.0 keeps the weights in "cores".
        assignment = compute_heterogeneous_budgets(
            planning_limit, profiles, oc_delta_watts_per_core=1.0)
        return np.stack([assignment.budgets[p.server_id] for p in profiles])

    def quantile_series(self, q: float,
                        slot_s: float) -> Optional[np.ndarray]:
        """(slots, servers) per-server daily ``q``-quantile predictions at
        :meth:`slot_times`, or None when the history cannot hold a daily
        template (the time axis is shared, so either every server's fit
        fails or none does)."""
        return self._memoized(("quantile", q, slot_s),
                              lambda: self._quantile_series(q, slot_s))

    def _quantile_series(self, q: float,
                         slot_s: float) -> Optional[np.ndarray]:
        try:
            templates = DailyQuantileTemplate.fit_rows(
                self.times, self.power, q=q)
        except ValueError:
            return None
        return _shared(predict_series_batch(templates,
                                            self.slot_times(slot_s)))


@dataclass(frozen=True)
class TickContext:
    """Everything a policy may look at when deciding one tick.

    ``observed_power`` / ``observed_util`` are from the *previous* tick
    (telemetry lag); ``oracle_power`` is the *current* tick's baseline
    power, which only the Central oracle may read; ``demand_cores`` is the
    current tick's overclock demand; ``delta_full_watts`` is the per-core
    overclock power delta at full utilization (scale by utilization for
    the expected draw).
    """

    index: int
    time: float
    limit_watts: float
    warning_watts: float
    observed_power: np.ndarray
    observed_util: np.ndarray
    oracle_power: np.ndarray
    oracle_util: np.ndarray
    demand_cores: np.ndarray
    delta_full_watts: float


@dataclass(frozen=True)
class RackWeekView:
    """One evaluation week of a rack trace in tick-major layout.

    The vectorized fast path of
    :func:`repro.experiments.largescale.simulate_rack` hands this to
    :meth:`TracePolicy.begin_week_fast` and
    :meth:`TracePolicy.plan_segment`.  Rows are ticks, columns servers
    (C-contiguous), so ``observed_power[k]`` carries bitwise the same
    values as the :class:`TickContext` for that tick would.  ``indices``
    are the absolute trace tick indices (``TickContext.index``) of the
    rows; ``*_power_sums`` are the per-row rack totals (bit-equal to
    ``np.sum`` over the corresponding context array).
    """

    indices: np.ndarray              # (ticks,) int64 absolute tick indices
    times: np.ndarray                # (ticks,) seconds
    observed_power: np.ndarray       # (ticks, servers) previous-tick rows
    observed_util: np.ndarray        # (ticks, servers)
    oracle_power: np.ndarray         # (ticks, servers) current-tick rows
    oracle_util: np.ndarray          # (ticks, servers)
    demand: np.ndarray               # (ticks, servers) int64
    observed_power_sums: np.ndarray  # (ticks,)
    oracle_power_sums: np.ndarray    # (ticks,)
    limit_watts: float
    warning_watts: float
    delta_full_watts: float

    @property
    def n_ticks(self) -> int:
        return len(self.indices)

    def boost(self, rows: "int | slice", granted: np.ndarray,
              enforcement: Optional[np.ndarray]
              ) -> tuple[np.ndarray, np.ndarray, Any]:
        """What tick ``rows`` (one row, or a slice of them) draw under the
        engine's enforcement semantics: each server's full overclock
        power for its ``granted`` cores, the part of it local enforcement
        allows (all of it when ``enforcement`` is None), and the rack
        total (oracle baseline plus allowed boost) per tick.  The
        engine's blocks and the stateful policies' plans both call this,
        so a plan's cap test is the engine's, bit for bit."""
        oracle = self.oracle_power[rows]
        raw = granted * self.delta_full_watts * self.oracle_util[rows]
        allowed = raw if enforcement is None else np.minimum(
            np.maximum(enforcement - oracle, 0.0), raw)
        return raw, allowed, np.add.reduce(oracle + allowed, axis=-1)


@dataclass
class SegmentPlan:
    """Pre-computed decisions for ticks ``[start, stop)`` of a week view.

    Row ``k`` of ``granted`` must be bitwise what ``decide`` would return
    at tick ``start + k``, and ``enforcement`` row ``k`` what
    ``enforcement_budget_at`` would return after that decision (None →
    no local enforcement), provided no capping event strikes before tick
    ``start + k``.  The plan applies the policy's ``on_warning`` hook
    itself at every planned tick whose rack total reaches the warning
    threshold without capping, so the engine leaves a plan only at a
    tick that caps; that tick runs through the scalar fallback, hooks
    included.  ``commit(n)`` sets the policy's state to what the first
    ``n`` planned ticks leave behind; the engine calls it whenever it
    stops consuming the plan, at its end or at a capping tick.
    """

    start: int
    stop: int
    granted: np.ndarray                       # (stop - start, servers)
    enforcement: Optional[np.ndarray] = None  # (stop - start, servers)
    commit: Optional[Callable[[int], None]] = None
    #: Per-tick oversubscribed headroom (watts) active over the planned
    #: span; row ``k`` must equal ``osub_admitted_at`` at tick
    #: ``start + k``.  None → the policy admits nothing (all baselines).
    osub_admitted: Optional[np.ndarray] = None


class TracePolicy:
    """Base class; subclasses override :meth:`decide` and the hooks."""

    name = "base"
    capping_mode = "heterogeneous"  # or "fair"

    #: Declares that ``decide`` reads only the :class:`TickContext` plus
    #: per-week state installed by ``begin_week``, mutates nothing
    #: between ticks, and leaves the ``on_warning``/``on_cap`` hooks as
    #: the base no-ops.  The fast path may then serve a whole week from
    #: one plan.  Stateful policies keep the default ``False``; their
    #: plans end at their first capping tick, whose hooks move the state.
    tick_stateless: ClassVar[bool] = False

    #: Declares that ``on_warning`` is the base no-op, so a
    #: warning-threshold crossing changes nothing but the warning
    #: counter: the fast path may then plan across a cap's recovery
    #: ticks, where the scalar path skips the hook that a plan applies
    #: (a policy whose hook acts runs those ticks scalar).  Any subclass
    #: overriding ``on_warning`` MUST set this back to False.
    warning_inert: ClassVar[bool] = True

    def __init__(self, n_servers: int) -> None:
        if n_servers < 1:
            raise ValueError(f"need at least one server: {n_servers}")
        self.n_servers = n_servers

    def begin_week(self, history: WeekHistory) -> None:
        """Install the prior week's telemetry (per-server rows)."""

    def begin_week_fast(self, view: RackWeekView) -> bool:
        """Prepare per-week pre-computation for the vectorized fast path.

        Called right after :meth:`begin_week` with the evaluation week's
        tick-major telemetry.  Returning False opts out: the engine then
        runs every tick of the week through the scalar fallback (always
        correct, just slower), so policies without a fast path keep
        working unchanged.  A policy must opt out when its plans do not
        apply its ``on_warning`` (:meth:`_plans_apply_on_warning`).
        """
        return False

    def _plans_apply_on_warning(self) -> bool:
        """Whether this policy's plans apply its ``on_warning`` hook, as
        :class:`SegmentPlan` requires.  Plans that apply no hook are
        right only while ``on_warning`` is the base no-op: a subclass
        that overrides it runs scalar instead of having its hook skipped."""
        return type(self).on_warning is TracePolicy.on_warning

    def plan_segment(self, view: RackWeekView, start: int,
                     end: int) -> Optional[SegmentPlan]:
        """Plan decisions for a prefix of ticks ``[start, end)``.

        Only called after :meth:`begin_week_fast` returned True, and
        for a policy that is not warning-inert only outside a cap's
        recovery ticks.  None (or an empty plan) sends tick ``start`` to
        the scalar fallback.
        """
        return None

    def fast_decide(self, view: RackWeekView, rel: int,
                    ctx: TickContext) -> np.ndarray:
        """Single-tick decision inside the fast path's scalar fallback.

        Must equal ``decide(ctx)`` bitwise, including state mutations;
        subclasses override it to reuse ``begin_week_fast``
        pre-computation instead of re-deriving predictions per tick.
        """
        return self.decide(ctx)

    def decide(self, ctx: TickContext) -> np.ndarray:
        raise NotImplementedError

    def on_warning(self, ctx: TickContext) -> None:
        """Rack power crossed the warning threshold this tick."""

    def on_cap(self, ctx: TickContext) -> None:
        """Rack power exceeded the limit this tick."""

    def budget_at(self, ctx: TickContext) -> Optional[np.ndarray]:
        """Per-server *assigned* budgets, if the policy maintains them
        (used for capping blame assignment); None → fair share."""
        return None

    def enforcement_budget_at(self, ctx: TickContext) -> Optional[np.ndarray]:
        """Per-server budgets the local feedback loop enforces (assigned
        plus any exploration overlay).  None → no local enforcement: the
        policy's grants draw their full overclock power regardless of
        budget (Central trusts its oracle; NaiveOClock has no budgets)."""
        return None

    def osub_admitted_at(self, ctx: TickContext) -> float:
        """Oversubscribed planning headroom (watts) active this tick.

        Zero for every policy that plans against the physical limit; the
        engine uses it to attribute capping events to oversubscription
        and to account admitted watt-ticks."""
        return 0.0


class CentralOracle(TracePolicy):
    """Global view: pack overclocked cores under the rack limit.

    Reads the *current* tick's power (``oracle_power``): the paper's
    Central "can precisely decide if an overclocking request will result
    in capping".  Its residual capping events come only from ticks where
    the baseline alone exceeds the limit.
    """

    name = "Central"
    tick_stateless = True

    #: Fraction of the headroom the whole demanded delta must fit under
    #: for the planner to predict a grant-everything outcome without
    #: packing.  The 0.1 % slack provably absorbs the rounding drift of
    #: the packing's sequential headroom subtraction (error
    #: ~n·ε·headroom ≪ margin); every other tick with headroom is packed.
    _FIT_MARGIN: ClassVar[float] = 0.999

    def begin_week_fast(self, view: RackWeekView) -> bool:
        return self._plans_apply_on_warning()

    def plan_segment(self, view: RackWeekView, start: int,
                     end: int) -> Optional[SegmentPlan]:
        sl = slice(start, end)
        expected = view.delta_full_watts * np.maximum(view.oracle_util[sl],
                                                      0.01)
        headroom = view.limit_watts - view.oracle_power_sums[sl]
        demand = view.demand[sl]
        zero = headroom <= 0.0
        # Round-robin grants everything iff the total demanded delta fits
        # the headroom: before any single grant the remaining headroom is
        # at least (1 - _FIT_MARGIN)·headroom plus that grant's own delta.
        grant_all = ~zero & (np.add.reduce(demand * expected, axis=1)
                             <= self._FIT_MARGIN * headroom)
        granted = np.where(zero[:, None], np.int64(0), demand)
        for k in (~(zero | grant_all)).nonzero()[0].tolist():
            granted[k] = _round_robin(demand[k].tolist(),
                                      expected[k].tolist(),
                                      float(headroom[k]))
        return SegmentPlan(start, end, granted)

    def decide(self, ctx: TickContext) -> np.ndarray:
        headroom = ctx.limit_watts - float(np.add.reduce(ctx.oracle_power))
        if headroom <= 0:
            return np.zeros(self.n_servers, dtype=np.int64)
        expected = ctx.delta_full_watts * np.maximum(ctx.oracle_util, 0.01)
        return np.array(_round_robin(ctx.demand_cores.tolist(),
                                     expected.tolist(), headroom),
                        dtype=np.int64)


def _round_robin(demand: list[int], delta: list[float],
                 headroom: float) -> list[int]:
    """Central's packing: grant one core per server per round, in server
    order, while the server's expected delta fits the remaining headroom.

    Headroom only falls, so a server that does not fit once never fits
    again that tick, and one whose demand is met has nothing left to
    take: each round visits only the servers still in play.  The
    comparisons and subtractions are the IEEE double ones of a loop over
    NumPy scalars, in the same order, so the grants are bit-identical.
    """
    granted = [0] * len(demand)
    active = [i for i, d in enumerate(demand) if d > 0]
    while active and headroom > 0:
        still = []
        for i in active:
            if delta[i] <= headroom:
                granted[i] += 1
                headroom -= delta[i]
                if granted[i] < demand[i]:
                    still.append(i)
        active = still
    return granted


class NaiveOClock(TracePolicy):
    """Grant everything; even budget split during capping."""

    name = "NaiveOClock"
    capping_mode = "fair"
    tick_stateless = True

    def decide(self, ctx: TickContext) -> np.ndarray:
        return ctx.demand_cores.copy()

    def begin_week_fast(self, view: RackWeekView) -> bool:
        return self._plans_apply_on_warning()

    def plan_segment(self, view: RackWeekView, start: int,
                     end: int) -> Optional[SegmentPlan]:
        return SegmentPlan(start, end, view.demand[start:end])


@dataclass
class _BudgetPlanState:
    """Per-evaluation-week pre-computation of the budget-driven policies:
    tick-major template predictions, assigned slot budgets and expected
    per-core deltas, each row bit-equal to its per-tick counterpart."""

    predicted: np.ndarray  # (ticks, servers)
    budget: np.ndarray     # (ticks, servers)
    expected: np.ndarray   # (ticks, servers)


class NoFeedback(TracePolicy):
    """Heterogeneous per-server budgets, strictly enforced."""

    name = "NoFeedback"
    tick_stateless = True

    def __init__(self, n_servers: int,
                 template_kind: TemplateKind = TemplateKind.DAILY_MED,
                 slot_s: float = 300.0) -> None:
        super().__init__(n_servers)
        self.template_kind = template_kind
        self.slot_s = slot_s
        self._budgets: Optional[np.ndarray] = None   # (servers, slots)
        self._templates: list[PowerTemplate] = []
        self._history: Optional[WeekHistory] = None
        self._slots_per_week = _slots_per_week(slot_s)
        self._fast: Optional[_BudgetPlanState] = None

    def begin_week(self, history: WeekHistory) -> None:
        kind = self.template_kind
        self._history = history
        self._templates = history.templates(kind)
        planning_limit = self._planning_limit(
            history, history.regular(kind, self.slot_s))
        self._budgets = history.budgets(kind, self.slot_s, planning_limit)

    def _planning_limit(self, history: WeekHistory,
                        regular_all: np.ndarray) -> "float | np.ndarray":
        """The limit the weekly budget split runs against.  The base
        policies plan against the physical rack limit; the
        oversubscribing variant returns a per-slot planning limit."""
        return history.limit_watts

    def _slot(self, t: float) -> int:
        return int((t % (7 * 86400.0)) // self.slot_s) % self._slots_per_week

    def _predicted_power(self, ctx: TickContext) -> np.ndarray:
        return np.array([tpl.predict(ctx.time) for tpl in self._templates])

    def _effective_budget(self, ctx: TickContext) -> np.ndarray:
        if self._budgets is None:
            raise RuntimeError("begin_week was not called")
        return self._budgets[:, self._slot(ctx.time)]

    def budget_at(self, ctx: TickContext) -> Optional[np.ndarray]:
        if self._budgets is None:
            return None
        return self._budgets[:, self._slot(ctx.time)]

    def enforcement_budget_at(self, ctx: TickContext) -> Optional[np.ndarray]:
        if self._budgets is None:
            return None
        return self._effective_budget(ctx)

    def decide(self, ctx: TickContext) -> np.ndarray:
        expected = ctx.delta_full_watts * np.maximum(ctx.observed_util, 0.05)
        return self._decide_with(expected, self._predicted_power(ctx),
                                 self._effective_budget(ctx),
                                 ctx.demand_cores)

    def _decide_with(self, expected: np.ndarray, predicted: np.ndarray,
                     budget: np.ndarray, demand: np.ndarray) -> np.ndarray:
        """The budget→grant kernel: as many cores as the budget's slack
        over the predicted draw pays for at the expected per-core delta,
        within [0, demand].  Elementwise, so a tick's rows (1-D) and a
        span of ticks (2-D) give the same bits."""
        max_cores = np.floor((budget - predicted) / expected).astype(np.int64)
        return np.minimum(np.maximum(max_cores, 0), demand)

    def begin_week_fast(self, view: RackWeekView) -> bool:
        if self._budgets is None or self._history is None \
                or not self._plans_apply_on_warning():
            return False
        predicted = self._history.predictions(self.template_kind, view.times)
        slots = ((view.times % (7 * 86400.0))
                 // self.slot_s).astype(np.int64) % self._slots_per_week
        budget = np.ascontiguousarray(self._budgets[:, slots].T)
        expected = view.delta_full_watts * np.maximum(
            view.observed_util, 0.05)
        self._fast = _BudgetPlanState(predicted, budget, expected)
        return True

    def plan_segment(self, view: RackWeekView, start: int,
                     end: int) -> Optional[SegmentPlan]:
        pre = self._fast
        if pre is None:
            return None
        sl = slice(start, end)
        granted = self._decide_with(pre.expected[sl], pre.predicted[sl],
                                    pre.budget[sl], view.demand[sl])
        return SegmentPlan(start, end, granted, enforcement=pre.budget[sl])

    def fast_decide(self, view: RackWeekView, rel: int,
                    ctx: TickContext) -> np.ndarray:
        pre = self._fast
        if pre is None:
            return self.decide(ctx)
        return self._decide_with(pre.expected[rel], pre.predicted[rel],
                                 pre.budget[rel], ctx.demand_cores)


class NoWarning(NoFeedback):
    """Budgets + exploration; capping events are the only brake.

    A constrained server raises a local budget overlay (``extra``); the
    per-tick ramp is bounded by how many 30-second confirmation windows
    fit in one trace tick.  On a capping event every exploring server
    reverts to its assigned budget and backs off exponentially.
    """

    name = "NoWarning"
    tick_stateless = False  # ``extra``/back-off state carries across ticks

    #: Ticks a plan tests at once for inertness when it starts and after
    #: its recurrence steps; the span doubles while it stays inert.  A
    #: state that moves every few ticks would otherwise pay for testing
    #: the rest of the window after every step.
    _FIRST_SPAN: ClassVar[int] = 4

    def __init__(self, n_servers: int, *,
                 explore_step_watts: float = 20.0,
                 confirm_s: float = 30.0,
                 tick_s: float = 300.0,
                 backoff_ticks: int = 2,
                 template_kind: TemplateKind = TemplateKind.DAILY_MED,
                 slot_s: float = 300.0) -> None:
        super().__init__(n_servers, template_kind, slot_s)
        self.explore_step_watts = explore_step_watts
        self.backoff_ticks = backoff_ticks
        # Exploration steps that fit in one tick without hearing back.
        self.max_ramp_watts = explore_step_watts * max(
            1.0, tick_s / confirm_s)
        self.extra = np.zeros(n_servers)
        self._backoff_until = np.full(n_servers, -1)
        self._backoff_current = np.full(n_servers, backoff_ticks)

    def _effective_budget(self, ctx: TickContext) -> np.ndarray:
        return super()._effective_budget(ctx) + self.extra

    def _ramp(self, expected: np.ndarray, demand: np.ndarray,
              granted: np.ndarray, allowed: np.ndarray) -> bool:
        """Raise the overlay of constrained servers by up to the per-tick
        ramp, but no more than the unmet demand actually needs; returns
        whether any overlay rose."""
        grow = allowed & (demand > granted)
        if not np.logical_or.reduce(grow):
            return False
        need = (demand - granted).astype(float) * expected \
            + self.explore_step_watts
        self.extra[grow] += np.minimum(need[grow], self.max_ramp_watts)
        return True

    def decide(self, ctx: TickContext) -> np.ndarray:
        granted = super().decide(ctx)
        self._explore(ctx.index, ctx.delta_full_watts * np.maximum(
            ctx.observed_util, 0.05), ctx.demand_cores, granted,
            np.add.reduce(ctx.observed_power), ctx.warning_watts)
        return granted

    def fast_decide(self, view: RackWeekView, rel: int,
                    ctx: TickContext) -> np.ndarray:
        pre = self._fast
        if pre is None:
            return self.decide(ctx)
        return self._step(pre, view, rel)[0]

    def _step(self, pre: _BudgetPlanState, view: RackWeekView,
              rel: int) -> tuple[np.ndarray, bool]:
        """``decide`` for row ``rel`` of the week from the fast path's
        pre-computation, state update included; also returns whether the
        exploration state moved beyond the back-off reset."""
        expected = pre.expected[rel]
        demand = view.demand[rel]
        granted = self._decide_with(expected, pre.predicted[rel],
                                    pre.budget[rel] + self.extra, demand)
        moved = self._explore(int(view.indices[rel]), expected, demand,
                              granted, view.observed_power_sums[rel],
                              view.warning_watts)
        return granted, moved

    def _explore(self, index: int, expected: np.ndarray, demand: np.ndarray,
                 granted: np.ndarray, observed_sum: float,
                 warning_watts: float) -> bool:
        """Exploration state update after tick ``index``'s grant: the
        tail of ``decide``, shared by the reference, the scalar fallback
        and the plans' recurrence.  ``observed_sum`` is the broadcast rack
        power; only SmartOClock reads it.  Returns whether the state moved
        beyond the back-off reset."""
        moved = self._ramp(expected, demand, granted,
                           index >= self._backoff_until)
        # A cap-free exploration that met its demand resets the back-off.
        self._backoff_current[(demand > 0)
                              & (granted >= demand)] = self.backoff_ticks
        return moved

    def _warn(self, index: int) -> bool:
        """What ``on_warning`` changes at tick ``index``, and whether it
        changed anything: nothing here, capping events are NoWarning's
        only brake."""
        return False

    def _plans_apply_on_warning(self) -> bool:
        # The plans apply ``_warn``: SmartOClock's hook, and a no-op here.
        return type(self).on_warning in (TracePolicy.on_warning,
                                         SmartOClockPolicy.on_warning)

    def _explore_state(self) -> tuple[np.ndarray, ...]:
        """A copy of everything ``_explore`` and the hooks change."""
        return (self.extra.copy(), self._backoff_until.copy(),
                self._backoff_current.copy())

    def _set_explore_state(self, state: tuple[np.ndarray, ...]) -> None:
        self.extra, self._backoff_until, self._backoff_current = state[:3]

    def plan_segment(self, view: RackWeekView, start: int,
                     end: int) -> Optional[SegmentPlan]:
        """Replay the policy's own per-tick recurrence over ``[start,
        end)``, up to and including the first tick whose rack total
        exceeds the limit (the engine runs that tick scalar).

        The plan alternates two modes.  *Inert spans*: while no tick
        would change the state beyond the constant back-off reset
        (:meth:`_diverging`), ``extra`` holds, so a span's grants,
        enforcement budgets and rack totals are one NumPy expression; the
        span doubles while it stays inert.  *Recurrence steps*, from the
        first tick that diverges or caps on, for as long as the state
        keeps moving: the tick's grant and state update exactly as
        ``fast_decide`` computes them (:meth:`_step`), its enforcement
        budget from the post-ramp ``extra`` that ``_apply_tick`` reads,
        and the warning hook where its total crosses the threshold.  A
        capping tick is always a step, so the snapshot taken before it is
        the state ``commit`` installs when the engine stops there; at the
        plan's end the policy already holds the state the plan leaves.
        """
        pre = self._fast
        if pre is None:
            return None
        limit = view.limit_watts
        grants: list[np.ndarray] = []
        budgets: list[np.ndarray] = []
        before: tuple[np.ndarray, ...] = ()
        p, span, stepping = start, self._FIRST_SPAN, False
        while p < end:
            if stepping:
                before = self._explore_state()
                granted, stepping = self._step(pre, view, p)
                budget = pre.budget[p] + self.extra
                total = view.boost(p, granted, budget)[2]
                grants.append(granted[None])
                budgets.append(budget[None])
                p += 1
                if total > limit:
                    break
                if total >= view.warning_watts:
                    stepping = self._warn(int(view.indices[p - 1])) \
                        or stepping
                continue
            q = min(end, p + span)
            sl = slice(p, q)
            budget = pre.budget[sl] + self.extra
            granted = self._decide_with(pre.expected[sl],
                                        pre.predicted[sl], budget,
                                        view.demand[sl])
            totals = view.boost(sl, granted, budget)[2]
            diverge, reset = self._diverging(view, sl, granted, totals)
            hits = (diverge | (totals > limit)).nonzero()[0]
            k = int(hits[0]) if len(hits) else q - p
            self._backoff_current[np.logical_or.reduce(reset[:k])] = \
                self.backoff_ticks
            grants.append(granted[:k])
            budgets.append(budget[:k])
            p += k
            stepping = p < q
            span = self._FIRST_SPAN if stepping else 2 * span
        length = p - start

        def commit(n: int) -> None:
            if n < length:  # stopped at the capping last row
                self._set_explore_state(before)

        return SegmentPlan(start, p, np.concatenate(grants),
                           enforcement=np.concatenate(budgets),
                           commit=commit)

    def _diverging(self, view: RackWeekView, sl: slice, granted: np.ndarray,
                   totals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per planned tick, with the current state held: whether the
        tick changes the state beyond the back-off reset (some server is
        unmet and allowed to explore, so ``_ramp`` raises ``extra``), and
        the (ticks, servers) mask of met demand whose back-off resets."""
        demand = view.demand[sl]
        allowed = view.indices[sl, None] >= self._backoff_until
        return (np.logical_or.reduce(allowed & (demand > granted), axis=1),
                (demand > 0) & (granted >= demand))

    def _backoff(self, index: int, mask: np.ndarray) -> None:
        self._backoff_until[mask] = index + self._backoff_current[mask]
        self._backoff_current[mask] = np.minimum(
            self._backoff_current[mask] * 2, 288)

    def on_cap(self, ctx: TickContext) -> None:
        exploring = self.extra > 0
        self.extra[:] = 0.0
        self._backoff(ctx.index, exploring)

    def begin_week(self, history: WeekHistory) -> None:
        super().begin_week(history)
        self._backoff_current[:] = self.backoff_ticks


class SmartOClockPolicy(NoWarning):
    """Full system: exploration heeds rack warnings, then *exploits*.

    On a warning, exploring servers give back one step and enter an
    exploitation phase: they keep granting against the discovered budget,
    ignore further warnings (per the paper, warnings only matter while
    exploring), and do not push higher until the exploitation window
    expires and their back-off allows a new exploration.
    """

    def __init__(self, n_servers: int, *, exploit_ticks: int = 2,
                 **kwargs: Any) -> None:
        super().__init__(n_servers, **kwargs)
        self.exploit_ticks = exploit_ticks
        self._exploit_until = np.full(n_servers, -1)

    name = "SmartOClock"
    warning_inert = False  # on_warning shifts explore → exploit state

    def _explore(self, index: int, expected: np.ndarray, demand: np.ndarray,
                 granted: np.ndarray, observed_sum: float,
                 warning_watts: float) -> bool:
        exploiting = index < self._exploit_until
        allowed = (index >= self._backoff_until) & ~exploiting
        # A 5-minute trace tick contains ten 30-second confirmation
        # windows: within a tick, warnings stop the ramp as soon as the
        # rack approaches the warning threshold.  Emulate that sub-tick
        # sequencing by bounding the rack-wide ramp to the distance
        # between the last broadcast rack power and the threshold.
        rack_room = warning_watts - float(
            observed_sum + np.add.reduce(self.extra))
        if rack_room <= 0:
            return self._warn(index)
        before = self.extra.copy()
        moved = self._ramp(expected, demand, granted, allowed)
        if moved:
            added = self.extra - before
            total_added = float(np.add.reduce(added))
            if total_added > rack_room:
                self.extra = before + added * (rack_room / total_added)
        # A warning-free exploration that met its demand resets the
        # back-off (the paper resets it after a successful exploration).
        self._backoff_current[(demand > 0)
                              & (granted >= demand)] = self.backoff_ticks
        return moved

    def _explore_state(self) -> tuple[np.ndarray, ...]:
        return super()._explore_state() + (self._exploit_until.copy(),)

    def _set_explore_state(self, state: tuple[np.ndarray, ...]) -> None:
        super()._set_explore_state(state)
        self._exploit_until = state[3]

    def _diverging(self, view: RackWeekView, sl: slice, granted: np.ndarray,
                   totals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """SmartOClock skips the ramp, and the back-off reset with it,
        where the broadcast rack power leaves no room under the warning
        threshold; and a warning, from that rack room or from the tick's
        own total, changes the state while some server explores."""
        demand = view.demand[sl]
        idx = view.indices[sl, None]
        exploiting = idx < self._exploit_until
        allowed = (idx >= self._backoff_until) & ~exploiting
        roomy = view.warning_watts - (view.observed_power_sums[sl]
                                      + np.add.reduce(self.extra)) > 0
        exploring = np.logical_or.reduce((self.extra > 0) & ~exploiting,
                                         axis=1)
        ramps = roomy & np.logical_or.reduce(allowed & (demand > granted),
                                             axis=1)
        warns = exploring & (~roomy | (totals >= view.warning_watts))
        return (ramps | warns,
                (demand > 0) & (granted >= demand) & roomy[:, None])

    def on_warning(self, ctx: TickContext) -> None:
        self._warn(ctx.index)

    def _warn(self, index: int) -> bool:
        exploiting = index < self._exploit_until
        exploring = (self.extra > 0) & ~exploiting
        if not np.logical_or.reduce(exploring):
            return False
        self.extra[exploring] = np.maximum(
            0.0, self.extra[exploring] - self.explore_step_watts)
        self._exploit_until[exploring] = index + self.exploit_ticks
        self._backoff(index, exploring)
        return True

    def on_cap(self, ctx: TickContext) -> None:
        super().on_cap(ctx)
        self._exploit_until[:] = -1


class SmartOClockOSub(SmartOClockPolicy):
    """SmartOClock planning against an oversubscribed rack limit.

    The weekly budget split runs against a per-slot *planning* limit:
    per-server high-quantile power templates (the risk level's quantile
    of each server's history, floored at the median prediction) sum to
    an upper bound on predicted rack peak, and the admission controller
    turns the gap to the physical limit — less a confidence margin —
    into extra per-slot headroom.  Enforcement, warnings, and capping
    all still run against the *physical* limit, so a misprediction
    surfaces as (attributed) capping events, never as an uncapped
    excursion.
    """

    name = "SmartOClock+OSub"

    def __init__(self, n_servers: int, *,
                 risk_level: str = "conservative",
                 max_extra_fraction: "float | None" = None,
                 **kwargs: Any) -> None:
        super().__init__(n_servers, **kwargs)
        self.risk_level = risk_level
        self._osub = OversubscriptionController(
            risk_level, max_extra_fraction=max_extra_fraction)
        self.last_osub_decision: Optional[OversubscriptionDecision] = None
        self._admitted: Optional[np.ndarray] = None       # (slots,)
        self._admitted_ticks: Optional[np.ndarray] = None  # (week ticks,)

    def _planning_limit(self, history: WeekHistory,
                        regular_all: np.ndarray) -> "float | np.ndarray":
        hi = history.quantile_series(
            RISK_LEVELS[self.risk_level].quantile, self.slot_s)
        # Floor at the median prediction so per-server hi >= mid and the
        # rack-level margin can never go negative.
        hi_all = regular_all if hi is None else np.maximum(hi, regular_all)
        decision = self._osub.admit(history.limit_watts,
                                    np.sum(hi_all, axis=1),
                                    np.sum(regular_all, axis=1))
        self.last_osub_decision = decision
        self._admitted = decision.admitted_extra_watts
        return decision.planning_limit_watts

    def osub_admitted_at(self, ctx: TickContext) -> float:
        if self._admitted is None:
            return 0.0
        return float(self._admitted[self._slot(ctx.time)])

    def begin_week_fast(self, view: RackWeekView) -> bool:
        if not super().begin_week_fast(view):
            return False
        if self._admitted is None:
            self._admitted_ticks = None
        else:
            slots = ((view.times % (7 * 86400.0))
                     // self.slot_s).astype(np.int64) % self._slots_per_week
            self._admitted_ticks = self._admitted[slots]
        return True

    def plan_segment(self, view: RackWeekView, start: int,
                     end: int) -> Optional[SegmentPlan]:
        plan = super().plan_segment(view, start, end)
        if plan is None or self._admitted_ticks is None:
            return plan
        plan.osub_admitted = self._admitted_ticks[plan.start:plan.stop]
        return plan


POLICY_NAMES = ("Central", "NaiveOClock", "NoFeedback", "NoWarning",
                "SmartOClock", "SmartOClock+OSub")


def make_policy(name: str, n_servers: int) -> TracePolicy:
    """Factory by Table-I policy name.

    ``SmartOClock+OSub`` additionally accepts a risk-level suffix —
    ``"SmartOClock+OSub:aggressive"`` — which also becomes the
    instance's reported name, so ablation sweeps get distinct rows."""
    factories = {
        "Central": CentralOracle,
        "NaiveOClock": NaiveOClock,
        "NoFeedback": NoFeedback,
        "NoWarning": NoWarning,
        "SmartOClock": SmartOClockPolicy,
        "SmartOClock+OSub": SmartOClockOSub,
    }
    base, _, variant = name.partition(":")
    if base not in factories:
        raise KeyError(
            f"unknown policy {name!r}; choose from {sorted(factories)}")
    if base == "SmartOClock+OSub":
        policy = SmartOClockOSub(n_servers,
                                 risk_level=variant or "conservative")
        policy.name = name
        return policy
    if variant:
        raise KeyError(f"policy {base!r} takes no {variant!r} variant")
    return factories[base](n_servers)
