"""Large-scale trace-driven simulation (paper §V-B: Table I, Fig. 15).

Replays synthetic fleet traces at 5-minute granularity through the policy
kernels of :mod:`repro.core.policies` and scores them on the paper's four
metrics: number of power-capping events (normalized to Central), overclock
success rate, capping penalty on non-overclocked VMs, and normalized
performance over the non-overclocked baseline.

Capping semantics (one tick):

1. the rack manager observes power above the limit → capping event;
2. the hardware response throttles servers to bring the rack under the
   limit; the cut is attributed by *blame*: power above a server's budget
   (heterogeneous policies) or above the fair share (NaiveOClock);
3. every overclock grant on the rack is reverted for that tick (the boost
   is lost — not a success), and non-overclocked bystanders suffer the
   frequency reduction the throttling implies (P ≈ k·f² near the operating
   point → Δf/f ≈ ΔP / 2P_dyn).

Two implementations share those semantics (DESIGN.md "Performance
architecture"):

* :func:`simulate_rack_reference` — the scalar oracle: one Python
  iteration per tick, exactly the semantics above.
* :func:`simulate_rack` — the vectorized engine: policies pre-plan
  segments of decisions
  (:meth:`~repro.core.policies.TracePolicy.plan_segment`), the engine
  computes whole segments with NumPy and scans for the first tick that
  caps (a plan applies the policy's warning hook itself); only that tick
  runs through the scalar tick body, then the engine resumes vectorized.
  Results are **bit-identical** to the reference —
  float accumulation happens in the same per-tick order — and the
  property tests in ``tests/experiments/test_fastpath.py`` enforce it.

The fleet drivers — :func:`compare_policies_streaming` and
:func:`table1_streaming` — never materialize a fleet: they feed
~100-byte :class:`~repro.experiments.parallel.RackSpec` recipes to
:func:`~repro.experiments.parallel.iter_rack_policy_results`, which
regenerates each rack's trace from its spawned seed stream (in-process
or in a spawn pool, ``workers=``), and fold the per-rack results into
running :class:`PolicyAccumulator` totals in submission-slot order, so
the scores are byte-identical at any worker count.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.cluster.power import DEFAULT_POWER_MODEL
from repro.core.policies import (
    RackWeekView,
    SegmentPlan,
    TickContext,
    TracePolicy,
    WeekHistory,
)
from repro.traces.schema import RackTrace
from repro.traces.synthetic import FleetConfig

__all__ = [
    "RackFrame",
    "RackSimResult",
    "PolicyScore",
    "PolicyAccumulator",
    "simulate_rack",
    "simulate_rack_reference",
    "compare_policies_streaming",
    "cluster_class_fleet_configs",
    "table1_streaming",
    "format_table1",
]

SECONDS_PER_WEEK = 7 * 86400.0

#: Longest plan (ticks) a stateful policy is asked for.  Its plans end at
#: their first capping tick anyway; the bound keeps the arrays a plan and
#: its block hold small, so a quiet week costs no more memory than a
#: stateless policy's week-long plan.
_FAST_LOOKAHEAD = 512

#: Policy column order of Table I (also the default for
#: :func:`compare_policies_streaming`).
TABLE1_POLICIES = ("Central", "NaiveOClock", "NoFeedback", "NoWarning",
                   "SmartOClock", "SmartOClock+OSub")


@dataclass
class RackSimResult:
    """Raw counters from simulating one policy on one rack."""

    rack_id: str
    policy: str
    ticks: int = 0
    cap_events: int = 0
    warnings: int = 0
    demanded_core_ticks: int = 0
    granted_core_ticks: int = 0
    successful_core_ticks: float = 0.0  # fractional: partial boosts count
    perf_sum: float = 0.0          # achieved freq ratio over demanded cores
    noc_penalty_sum: float = 0.0   # mean bystander freq cut per cap event
    noc_penalty_events: int = 0
    # Oversubscription accounting: watts of unused headroom under the
    # physical limit (stranded power), watts of admitted oversubscribed
    # headroom, and capping events that struck while headroom was
    # admitted (attributed to oversubscription).  Both watt counters
    # integrate over ticks (watt-ticks).
    stranded_watt_ticks: float = 0.0
    osub_admitted_watt_ticks: float = 0.0
    osub_cap_events: int = 0

    @property
    def success_rate(self) -> float:
        if self.demanded_core_ticks == 0:
            return 1.0
        return self.successful_core_ticks / self.demanded_core_ticks

    @property
    def normalized_performance(self) -> float:
        if self.demanded_core_ticks == 0:
            return 1.0
        return self.perf_sum / self.demanded_core_ticks

    @property
    def cap_penalty(self) -> float:
        if self.noc_penalty_events == 0:
            return 0.0
        return self.noc_penalty_sum / self.noc_penalty_events


#: On a capping event, the hardware response does not shave power to
#: exactly the limit: it throttles to a recovery setpoint below it and
#: only then releases (RAPL-style overshoot).  This is what makes capping
#: events expensive (the paper's §III: 30-50 % degradation during caps).
CAP_RECOVERY_MARGIN = 0.10

#: Ticks after a capping event during which the rack stays throttled and
#: no boost is delivered (the capped state persists while power recovers).
CAP_RECOVERY_TICKS = 1


def _throttle_cuts(tick_power: np.ndarray, boost_watts: np.ndarray,
                   limit: float, fair: bool) -> np.ndarray:
    """Per-server *below-turbo* power cut during a capping event.

    Every boost on the rack is revoked by the event either way; the
    returned cuts are the watts each server loses **beyond** that (i.e.,
    the sub-turbo damage), relative to its boost-free draw:

    * fair mode (NaiveOClock): the capping hardware knows nothing about
      overclocking priorities and clamps every server toward the even
      split of the recovery setpoint — the §III Q4 pathology where
      power-hungry servers are disproportionately throttled;
    * prioritized mode (everything else): overclocked (low-priority)
      draw is shed first; only the residual overshoot, if any, is spread
      proportionally over the baseline draw.
    """
    setpoint = (1.0 - CAP_RECOVERY_MARGIN) * limit
    power_no_oc = tick_power - boost_watts
    if fair:
        total = float(np.add.reduce(tick_power))
        required = total - setpoint
        if required <= 0:
            return np.zeros_like(tick_power)
        targets = np.full_like(tick_power, setpoint / len(tick_power))
        raw = np.maximum(0.0, tick_power - targets)
        raw_total = float(np.add.reduce(raw))
        if raw_total >= required and raw_total > 0:
            cuts = raw * (required / raw_total)
        else:
            cuts = raw + tick_power * ((required - raw_total) / total)
        return np.maximum(0.0, cuts - boost_watts)
    total = float(np.add.reduce(power_no_oc))
    required = total - setpoint
    if required <= 0:
        return np.zeros_like(tick_power)
    return power_no_oc * (required / total)


class RackFrame:
    """Everything about one rack that no policy changes, built once and
    shared by every policy simulated on it.

    Holds the validated stacked telemetry (servers x ticks), the week and
    tick-per-week counts, the fast path's tick-major copies and per-tick
    power sums (built on first use), and one
    :class:`~repro.core.policies.WeekHistory` per history week, created
    on first request and handed to every policy, so the policies of a
    rack share each week's template fits, budgets and predictions.  A
    sweep holds a rack's frame while that rack's policies run and drops
    it before expanding the next rack.
    """

    def __init__(self, rack: RackTrace) -> None:
        self.rack_id = rack.rack_id
        self.times = rack.times
        self.power = np.stack([s.power_watts for s in rack.servers])
        self.util = np.stack([s.utilization for s in rack.servers])
        self.demand = np.stack([s.oc_cores for s in rack.servers])
        self.limit = rack.power_limit_watts
        self.ticks_per_week = int(round(
            SECONDS_PER_WEEK / rack.servers[0].interval_s))
        # Weeks come from the tick grid, not np.floor(span/WEEK + 0.5): a
        # trace a few ticks past (or short of) a whole week boundary keeps
        # its partial final window as an evaluation week instead of
        # silently dropping those ticks.  History windows stay full weeks
        # either way.
        self.weeks = -(-len(self.times) // self.ticks_per_week)
        if self.weeks < 2:
            raise ValueError(
                "need at least 2 weeks of trace (history + evaluation)")
        self._histories: dict[int, WeekHistory] = {}

    @property
    def n_servers(self) -> int:
        return len(self.power)

    # Tick-major (C-contiguous) copies: row k is tick k's server vector,
    # carrying bitwise the same values as the scalar path's column
    # slices — elementwise NumPy ops and row/column sums are bit-stable
    # across layouts.
    @functools.cached_property
    def power_t(self) -> np.ndarray:
        return np.ascontiguousarray(self.power.T)

    @functools.cached_property
    def util_t(self) -> np.ndarray:
        return np.ascontiguousarray(self.util.T)

    @functools.cached_property
    def demand_t(self) -> np.ndarray:
        return np.ascontiguousarray(self.demand.T)

    @functools.cached_property
    def power_sums(self) -> np.ndarray:
        return np.sum(self.power_t, axis=1)

    @functools.cached_property
    def indices(self) -> np.ndarray:
        return np.arange(len(self.times), dtype=np.int64)

    def history(self, week: int) -> WeekHistory:
        """The full week before evaluation week ``week`` (>= 1)."""
        if week not in self._histories:
            h = slice((week - 1) * self.ticks_per_week,
                      week * self.ticks_per_week)
            self._histories[week] = WeekHistory(
                self.times[h], self.power[:, h], self.demand[:, h],
                self.limit)
        return self._histories[week]


@dataclass(frozen=True)
class _Physics:
    """Per-call constants of the tick semantics (power model, warning
    threshold, overclock target)."""

    warning_watts: float
    ratio: float
    delta_full: float
    idle: float


def _prepare(rack: "RackTrace | RackFrame", policy: TracePolicy,
             warning_fraction: float, target_freq_ghz: float
             ) -> tuple[RackFrame, _Physics, RackSimResult]:
    frame = rack if isinstance(rack, RackFrame) else RackFrame(rack)
    if policy.n_servers != frame.n_servers:
        raise ValueError(
            f"policy sized for {policy.n_servers} servers, rack has "
            f"{frame.n_servers}")
    physics = _Physics(
        warning_watts=warning_fraction * frame.limit,
        ratio=target_freq_ghz / DEFAULT_POWER_MODEL.plan.turbo_ghz,
        delta_full=DEFAULT_POWER_MODEL.overclock_core_delta(
            1.0, target_freq_ghz),
        idle=DEFAULT_POWER_MODEL.idle_watts)
    return frame, physics, RackSimResult(rack_id=frame.rack_id,
                                         policy=policy.name)


def _apply_tick(result: RackSimResult, policy: TracePolicy,
                ctx: TickContext, decided: np.ndarray,
                recovery_remaining: int, ones_buf: np.ndarray,
                ratio: float, idle: float) -> int:
    """One tick of the full capping semantics; returns the new recovery
    counter.  Both the reference loop and the fast path's fallback run
    every non-planned tick through this single body, so warning/cap
    handling cannot diverge between them by construction.

    It calls ufunc methods (``np.add.reduce``, ``np.minimum`` of
    ``np.maximum``) rather than the ``np.sum``/``np.clip``/``np.average``
    wrappers: the same operations and bits, without the Python-level
    dispatch that costs several times the reduction on a rack's row."""
    add = np.add.reduce
    granted = np.maximum(np.minimum(decided, ctx.demand_cores), 0)
    raw_extra = granted * ctx.delta_full_watts * ctx.oracle_util
    # Local feedback enforcement (§IV-D): an sOA holds its server's
    # draw at its effective budget, partially de-boosting its VMs
    # when the baseline came in above prediction.
    enforcement = policy.enforcement_budget_at(ctx)
    if enforcement is not None:
        allowed_extra = np.minimum(
            np.maximum(enforcement - ctx.oracle_power, 0.0), raw_extra)
    else:
        allowed_extra = raw_extra
    tick_power = ctx.oracle_power + allowed_extra
    total = float(add(tick_power))
    result.ticks += 1
    d = int(add(ctx.demand_cores))
    g = int(add(granted))
    result.demanded_core_ticks += d
    result.granted_core_ticks += g
    # Stranded power (headroom the rack never used) and admitted
    # oversubscribed headroom integrate over *every* tick, recovery
    # included — both describe the planning state, not the event flow.
    result.stranded_watt_ticks += max(0.0, ctx.limit_watts - total)
    admitted = policy.osub_admitted_at(ctx)
    result.osub_admitted_watt_ticks += admitted

    if recovery_remaining > 0:
        # The rack is still recovering from a capping event: the
        # capped state persists, nothing boosts this tick.
        result.perf_sum += float(d)
        return recovery_remaining - 1

    if total >= ctx.warning_watts:
        result.warnings += 1
        policy.on_warning(ctx)

    if total > ctx.limit_watts:
        result.cap_events += 1
        if admitted > 0.0:
            # Capped while planning beyond the physical limit: the
            # throttle is (at least partly) the oversubscription's doing.
            result.osub_cap_events += 1
        policy.on_cap(ctx)
        power_no_oc = tick_power - allowed_extra
        cuts = _throttle_cuts(
            tick_power, allowed_extra, ctx.limit_watts,
            fair=policy.capping_mode == "fair")
        dynamic = np.maximum(power_no_oc - idle, 1e-6)
        freq_cut = np.minimum(np.maximum(cuts / (2.0 * dynamic), 0.0), 0.5)
        # A capping event is rack-wide: the hardware response
        # cancels every boost on the rack for the tick (the paper's
        # §III: capping causes 30-50 % degradation and "diminishes
        # the performance benefits").  Throttled servers also run
        # below turbo.
        result.perf_sum += float(add(ctx.demand_cores * (1.0 - freq_cut)))
        # Penalty on non-overclocked VMs (paper Table I): the
        # power-weighted mean frequency cut across bystander
        # servers — power-hungry servers host more active work, so
        # a cut there hurts proportionally more VMs (§III Q4).
        bystanders = granted == 0
        if np.logical_or.reduce(bystanders):
            weights = power_no_oc[bystanders]
            result.noc_penalty_sum += float(
                add(freq_cut[bystanders] * weights) / add(weights))
            result.noc_penalty_events += 1
        return CAP_RECOVERY_TICKS

    # Fractional success: a grant the feedback loop held below
    # the full boost delivered only part of the speedup.
    np.copyto(ones_buf, 1.0)
    boost_frac = np.divide(allowed_extra, raw_extra,
                           out=ones_buf, where=raw_extra > 0)
    result.successful_core_ticks += float(add(granted * boost_frac))
    result.perf_sum += float(add(
        granted * (1.0 + boost_frac * (ratio - 1.0))
        + (ctx.demand_cores - granted)))
    return 0


def simulate_rack_reference(rack: "RackTrace | RackFrame",
                            policy: TracePolicy, *,
                            warning_fraction: float = 0.95,
                            target_freq_ghz: float = 4.0) -> RackSimResult:
    """Scalar oracle: run ``policy`` over ``rack`` one tick at a time.

    Scores weeks 2..N (week 1 is the policy's first history window).
    This is the semantic reference for :func:`simulate_rack`; keep it a
    plain per-tick loop."""
    frame, physics, result = _prepare(rack, policy, warning_fraction,
                                      target_freq_ghz)
    times, power, util, demand = (frame.times, frame.power, frame.util,
                                  frame.demand)
    tpw = frame.ticks_per_week
    ones_buf = np.ones(frame.n_servers)
    recovery_remaining = 0
    for week in range(1, frame.weeks):
        policy.begin_week(frame.history(week))
        for i in range(week * tpw, min((week + 1) * tpw, len(times))):
            ctx = TickContext(
                index=i, time=float(times[i]), limit_watts=frame.limit,
                warning_watts=physics.warning_watts,
                observed_power=power[:, i - 1],
                observed_util=util[:, i - 1],
                oracle_power=power[:, i],
                oracle_util=util[:, i],
                demand_cores=demand[:, i],
                delta_full_watts=physics.delta_full)
            recovery_remaining = _apply_tick(
                result, policy, ctx, policy.decide(ctx),
                recovery_remaining, ones_buf, physics.ratio, physics.idle)
    return result


@dataclass
class _Block:
    """A built segment: vectorized per-tick accounting plus the event
    scan.  Float contributions are kept as Python-float lists so the
    consumer accumulates them in exactly the scalar order (bit-identical
    sums); integer totals are summed in bulk (exact either way)."""

    start: int   # view-relative first tick
    stop: int    # view-relative end (exclusive)
    d_arr: np.ndarray        # per-tick demanded cores (int)
    g_arr: np.ndarray        # per-tick granted cores (int)
    d_list: list             # d_arr as Python ints (recovery perf adds)
    succ_list: list          # per-tick successful core-ticks
    perf_list: list          # per-tick perf contributions (success case)
    stranded_list: list      # per-tick stranded watts (limit - total)+
    admitted_list: Optional[list]  # per-tick admitted osub watts, or None
    events: list             # block-relative ticks needing scalar fallback
    warn_prefix: np.ndarray  # prefix counts of warning-threshold crossings
    commit: Optional[object]  # SegmentPlan.commit

    def next_event(self, rel: int) -> int:
        """First event tick at view-relative position >= ``rel``, or
        ``stop`` when the rest of the block is quiet."""
        j = bisect.bisect_left(self.events, rel - self.start)
        if j < len(self.events):
            return self.start + int(self.events[j])
        return self.stop

    def d_total(self, a: int, b: int) -> int:
        return int(np.add.reduce(self.d_arr[a:b]))

    def g_total(self, a: int, b: int) -> int:
        return int(np.add.reduce(self.g_arr[a:b]))


def _build_block(view: RackWeekView, plan: SegmentPlan,
                 ratio: float) -> _Block:
    """Vectorize the accounting of one planned segment.

    Every elementwise expression mirrors :func:`_apply_tick` on 2-D
    arrays (ticks × servers); row reductions are bit-equal to the 1-D
    sums of the scalar path, so per-tick contributions match bitwise."""
    add = np.add.reduce
    sl = slice(plan.start, plan.stop)
    demand = view.demand[sl]
    granted = np.maximum(np.minimum(plan.granted, demand), 0)
    raw_extra, allowed_extra, totals = view.boost(sl, granted,
                                                  plan.enforcement)
    boost_frac = np.divide(allowed_extra, raw_extra,
                           out=np.ones_like(raw_extra),
                           where=raw_extra > 0)
    # Capping ticks leave the segment for the scalar fallback (on_cap,
    # throttle accounting, recovery).  The plan applied the warning hook
    # itself, so warnings are counted in bulk via the prefix sums below.
    warn = totals >= view.warning_watts
    events = (totals > view.limit_watts).nonzero()[0].tolist()
    warn_prefix = np.concatenate(
        ([0], np.add.accumulate(warn, dtype=np.int64)))
    succ = add(granted * boost_frac, axis=1)
    perf = add(granted * (1.0 + boost_frac * (ratio - 1.0))
               + (demand - granted), axis=1)
    stranded = np.maximum(0.0, view.limit_watts - totals)
    admitted_list = (None if plan.osub_admitted is None
                     else plan.osub_admitted.tolist())
    d_arr = add(demand, axis=1)
    return _Block(start=plan.start, stop=plan.stop,
                  d_arr=d_arr, g_arr=add(granted, axis=1),
                  d_list=d_arr.tolist(), succ_list=succ.tolist(),
                  perf_list=perf.tolist(),
                  stranded_list=stranded.tolist(),
                  admitted_list=admitted_list, events=events,
                  warn_prefix=warn_prefix, commit=plan.commit)


def _fast_tick(view: RackWeekView, policy: TracePolicy,
               result: RackSimResult, rel: int, recovery_remaining: int,
               ones_buf: np.ndarray, ratio: float, idle: float) -> int:
    """Scalar fallback for one tick of the fast path: rebuild the
    TickContext from the tick-major rows and run the shared tick body."""
    ctx = TickContext(
        index=int(view.indices[rel]), time=float(view.times[rel]),
        limit_watts=view.limit_watts, warning_watts=view.warning_watts,
        observed_power=view.observed_power[rel],
        observed_util=view.observed_util[rel],
        oracle_power=view.oracle_power[rel],
        oracle_util=view.oracle_util[rel],
        demand_cores=view.demand[rel],
        delta_full_watts=view.delta_full_watts)
    decided = policy.fast_decide(view, rel, ctx)
    return _apply_tick(result, policy, ctx, decided, recovery_remaining,
                       ones_buf, ratio, idle)


def _fold(acc: float, values: list, a: int, b: int) -> float:
    """Left-fold ``values[a:b]`` into ``acc`` one element at a time —
    the same addition order as the scalar per-tick loop, so the float
    result is bitwise identical to it."""
    return functools.reduce(operator.add, values[a:b], acc)


def _consume_block(result: RackSimResult, block: _Block, rel: int,
                   recovery_remaining: int) -> tuple[int, int]:
    """Account planned ticks from ``rel`` until the block ends or an
    event tick is reached (returned ``rel`` points at it).  Recovery
    ticks come first and are consumed unconditionally — the scalar path
    skips their warning/cap checks.  The plan's state is committed on
    return, before any fallback tick can observe it."""
    if recovery_remaining > 0:
        take = min(recovery_remaining, block.stop - rel)
        a = rel - block.start
        b = a + take
        result.ticks += take
        result.demanded_core_ticks += block.d_total(a, b)
        result.granted_core_ticks += block.g_total(a, b)
        result.perf_sum = _fold(result.perf_sum, block.d_list, a, b)
        result.stranded_watt_ticks = _fold(
            result.stranded_watt_ticks, block.stranded_list, a, b)
        if block.admitted_list is not None:
            result.osub_admitted_watt_ticks = _fold(
                result.osub_admitted_watt_ticks, block.admitted_list, a, b)
        recovery_remaining -= take
        rel += take
    event = block.next_event(rel)
    if event > rel:
        a = rel - block.start
        b = event - block.start
        result.ticks += event - rel
        result.warnings += int(block.warn_prefix[b] - block.warn_prefix[a])
        result.demanded_core_ticks += block.d_total(a, b)
        result.granted_core_ticks += block.g_total(a, b)
        result.successful_core_ticks = _fold(
            result.successful_core_ticks, block.succ_list, a, b)
        result.perf_sum = _fold(result.perf_sum, block.perf_list, a, b)
        result.stranded_watt_ticks = _fold(
            result.stranded_watt_ticks, block.stranded_list, a, b)
        if block.admitted_list is not None:
            result.osub_admitted_watt_ticks = _fold(
                result.osub_admitted_watt_ticks, block.admitted_list, a, b)
        rel = event
    if block.commit is not None:
        block.commit(rel - block.start)
    return rel, recovery_remaining


def _run_week_fast(view: RackWeekView, policy: TracePolicy,
                   result: RackSimResult, recovery_remaining: int,
                   has_fast: bool, warning_inert: bool,
                   ones_buf: np.ndarray, ratio: float, idle: float) -> int:
    """One evaluation week through planned blocks and scalar ticks.

    A tick-stateless policy's plan serves the whole week.  A stateful
    policy's plan ends at its first capping tick (or after
    ``_FAST_LOOKAHEAD`` ticks), so after that tick runs scalar the
    engine plans again.  A policy whose warning hook acts is not planned
    across a cap's recovery ticks (its plans apply the hook themselves,
    and recovery ticks skip it): those run scalar.
    """
    n = view.n_ticks
    stateless = policy.tick_stateless
    block: Optional[_Block] = None
    rel = 0
    while rel < n:
        if block is None and has_fast and (warning_inert
                                           or recovery_remaining == 0):
            end = n if stateless else min(n, rel + _FAST_LOOKAHEAD)
            plan = policy.plan_segment(view, rel, end)
            if plan is not None and plan.stop > rel:
                block = _build_block(view, plan, ratio)
        if block is not None:
            rel, recovery_remaining = _consume_block(
                result, block, rel, recovery_remaining)
            if rel >= block.stop:
                block = None
                continue
        # An event tick inside the block, or a tick no plan covers: run
        # it scalar (warning/cap hooks included).  A stateful policy's
        # block ends with it, since the hooks may have moved its state.
        recovery_remaining = _fast_tick(
            view, policy, result, rel, recovery_remaining,
            ones_buf, ratio, idle)
        rel += 1
        if block is not None and (not stateless or rel >= block.stop):
            block = None
    return recovery_remaining


def simulate_rack(rack: "RackTrace | RackFrame", policy: TracePolicy, *,
                  warning_fraction: float = 0.95,
                  target_freq_ghz: float = 4.0) -> RackSimResult:
    """Run ``policy`` over ``rack``'s trace; scores weeks 2..N (week 1 is
    the policy's first history window).

    ``rack`` is a trace or the :class:`RackFrame` of one; sweeps pass the
    frame so every policy of a rack shares it.  The counters are
    bit-identical to :func:`simulate_rack_reference`'s."""
    frame, physics, result = _prepare(rack, policy, warning_fraction,
                                      target_freq_ghz)
    power_t, util_t, demand_t = frame.power_t, frame.util_t, frame.demand_t
    power_sums = frame.power_sums
    ones_buf = np.ones(frame.n_servers)
    tpw = frame.ticks_per_week
    n_ticks = len(frame.times)
    # Belt and braces: only honor the declaration when on_warning really
    # is the base no-op, so a subclass that overrides the hook without
    # flipping the flag is not planned across recovery ticks, where the
    # scalar path skips the hook its plans apply.
    warning_inert = (policy.warning_inert
                     and type(policy).on_warning is TracePolicy.on_warning)
    recovery_remaining = 0
    for week in range(1, frame.weeks):
        policy.begin_week(frame.history(week))
        w0 = week * tpw
        w1 = min((week + 1) * tpw, n_ticks)
        view = RackWeekView(
            indices=frame.indices[w0:w1],
            times=frame.times[w0:w1],
            observed_power=power_t[w0 - 1:w1 - 1],
            observed_util=util_t[w0 - 1:w1 - 1],
            oracle_power=power_t[w0:w1],
            oracle_util=util_t[w0:w1],
            demand=demand_t[w0:w1],
            observed_power_sums=power_sums[w0 - 1:w1 - 1],
            oracle_power_sums=power_sums[w0:w1],
            limit_watts=frame.limit,
            warning_watts=physics.warning_watts,
            delta_full_watts=physics.delta_full)
        has_fast = policy.begin_week_fast(view)
        recovery_remaining = _run_week_fast(
            view, policy, result, recovery_remaining, has_fast,
            warning_inert, ones_buf, physics.ratio, physics.idle)
    return result


@dataclass(frozen=True)
class PolicyScore:
    """Table-I row: one policy aggregated over a fleet."""

    policy: str
    cap_events: int
    normalized_caps: float
    success_rate: float
    cap_penalty: float
    normalized_performance: float
    # Oversubscription columns (zero for the non-oversubscribing
    # policies): mean stranded / admitted watts per rack-tick, and the
    # count of capping events attributed to oversubscribed headroom.
    stranded_watts: float = 0.0
    osub_admitted_watts: float = 0.0
    osub_cap_events: int = 0

    def row(self) -> str:
        return (f"{self.policy:<17} {self.normalized_caps:>10.1f} "
                f"{self.success_rate:>10.1%} {self.cap_penalty:>10.1%} "
                f"{self.normalized_performance:>12.3f}")


@dataclass
class PolicyAccumulator:
    """Running fleet totals for one policy — the streaming counterpart
    of summing a ``list[RackSimResult]``.

    Results must be folded in rack order: float accumulation is a left
    fold from zero, exactly what ``sum()`` over an ordered list does, so
    a sweep that adds results in submission-slot order scores
    byte-identically at any worker count.

    Every result is checked against the sweep's accounting rules before
    it is folded in, so each ``repro table1`` run checks itself: no rack
    is granted more core-ticks than it demanded or succeeds on more than
    it was granted, stranded power is never negative, and caps blamed on
    oversubscription are a subset of all caps.
    """

    policy: str
    racks: int = 0
    ticks: int = 0
    cap_events: int = 0
    demanded_core_ticks: int = 0
    successful_core_ticks: float = 0.0
    perf_sum: float = 0.0
    noc_penalty_sum: float = 0.0
    noc_penalty_events: int = 0
    stranded_watt_ticks: float = 0.0
    osub_admitted_watt_ticks: float = 0.0
    osub_cap_events: int = 0

    def add(self, result: RackSimResult) -> None:
        for rule, holds in (
                ("granted <= demanded", result.granted_core_ticks
                 <= result.demanded_core_ticks),
                ("successful <= granted", result.successful_core_ticks
                 <= result.granted_core_ticks * (1 + 1e-12)),
                ("stranded >= 0", result.stranded_watt_ticks >= 0),
                ("osub caps <= caps", result.osub_cap_events
                 <= result.cap_events)):
            if not holds:
                raise ValueError(
                    f"rack {result.rack_id}, policy {result.policy}: "
                    f"accounting rule {rule!r} fails: {result}")
        self.racks += 1
        self.ticks += result.ticks
        self.cap_events += result.cap_events
        self.demanded_core_ticks += result.demanded_core_ticks
        self.successful_core_ticks += result.successful_core_ticks
        self.perf_sum += result.perf_sum
        self.noc_penalty_sum += result.noc_penalty_sum
        self.noc_penalty_events += result.noc_penalty_events
        self.stranded_watt_ticks += result.stranded_watt_ticks
        self.osub_admitted_watt_ticks += result.osub_admitted_watt_ticks
        self.osub_cap_events += result.osub_cap_events

    def score(self, central_caps: Optional[int]) -> PolicyScore:
        demanded = self.demanded_core_ticks
        pen_n = self.noc_penalty_events
        ticks = self.ticks
        return PolicyScore(
            policy=self.policy,
            cap_events=self.cap_events,
            normalized_caps=(self.cap_events / central_caps
                             if central_caps else float(self.cap_events)),
            success_rate=(self.successful_core_ticks / demanded
                          if demanded else 1.0),
            cap_penalty=self.noc_penalty_sum / pen_n if pen_n else 0.0,
            normalized_performance=(self.perf_sum / demanded
                                    if demanded else 1.0),
            stranded_watts=(self.stranded_watt_ticks / ticks
                            if ticks else 0.0),
            osub_admitted_watts=(self.osub_admitted_watt_ticks / ticks
                                 if ticks else 0.0),
            osub_cap_events=self.osub_cap_events)


def _finalize_scores(accs: dict[str, PolicyAccumulator]
                     ) -> dict[str, PolicyScore]:
    """Turn accumulators into Table-I rows (caps normalized to Central
    when it ran, like the paper)."""
    central_caps = None
    if "Central" in accs:
        central_caps = max(1, accs["Central"].cap_events)
    return {name: acc.score(central_caps) for name, acc in accs.items()}


def _fold_fleets(configs: dict[str, FleetConfig],
                 policy_names: Sequence[str], *, workers: Optional[int],
                 max_inflight: Optional[int]
                 ) -> dict[str, dict[str, PolicyScore]]:
    """Score every policy on every fleet ``configs`` describes: the one
    fold behind the Table-I drivers.

    The fleets' racks stream back to back, in ``configs`` order, as
    :class:`~repro.experiments.parallel.RackSpec` jobs.  Results arrive
    in submission-slot order, so each accumulator folds its racks in
    rack order: the scores are byte-identical at any worker count, and
    the driver never holds more than the in-flight window of results."""
    from repro.experiments.parallel import RackSpec, iter_rack_policy_results
    names = tuple(policy_names)
    order = list(configs)
    bounds = list(itertools.accumulate(
        config.n_racks for config in configs.values()))
    specs = (RackSpec(config=config, rack_index=r)
             for config in configs.values() for r in range(config.n_racks))
    accs = {fleet: {p: PolicyAccumulator(policy=p) for p in names}
            for fleet in order}
    fleet_idx = 0
    for rack_slot, policy, result in iter_rack_policy_results(
            specs, names, workers=workers, max_inflight=max_inflight):
        # Results arrive slot-ordered, so the owning fleet only ever
        # advances — no per-result search needed.
        while rack_slot >= bounds[fleet_idx]:
            fleet_idx += 1
        accs[order[fleet_idx]][policy].add(result)
    return {fleet: _finalize_scores(accs[fleet]) for fleet in order}


def compare_policies_streaming(
        config: FleetConfig,
        policy_names: Sequence[str] = TABLE1_POLICIES, *,
        workers: Optional[int] = 1,
        max_inflight: Optional[int] = None) -> dict[str, PolicyScore]:
    """Run every policy over every rack of the fleet ``config`` describes
    and aggregate, without materializing the fleet.

    Each rack is regenerated from its spawned seed stream
    (:class:`~repro.experiments.parallel.RackSpec`) — in-process for
    ``workers=1``, in a spawn pool otherwise (``None`` → usable CPUs) —
    and results fold into running accumulators in submission-slot
    order, so the scores are byte-identical at any worker count, with
    driver memory bounded by the in-flight window instead of the fleet
    size."""
    return _fold_fleets({"": config}, policy_names, workers=workers,
                        max_inflight=max_inflight)[""]


#: Table I's cluster classes: per-rack target P99 utilization ranges.
_CLUSTER_CLASS_RANGES = {
    "High-Power": (0.86, 0.96),
    "Medium-Power": (0.78, 0.88),
    "Low-Power": (0.52, 0.72),
}


def cluster_class_fleet_configs(*, n_racks: int = 12, weeks: int = 2,
                                seed: int = 42) -> dict[str, FleetConfig]:
    """Configs for Table I's High/Medium/Low-power classes, enough to
    drive :func:`table1_streaming`."""
    configs: dict[str, FleetConfig] = {}
    for i, (name, p99_range) in enumerate(_CLUSTER_CLASS_RANGES.items()):
        configs[name] = FleetConfig(
            n_racks=n_racks, weeks=weeks, seed=seed + i,
            p99_util_beta=(2.0, 2.0), p99_util_range=p99_range,
            region=name.lower())
    return configs


def table1_streaming(configs: dict[str, FleetConfig], *,
                     workers: Optional[int] = 1,
                     max_inflight: Optional[int] = None
                     ) -> dict[str, dict[str, PolicyScore]]:
    """Full Table I: per cluster class, per policy, without materializing
    any fleet.

    The whole (fleet, rack, policy) grid streams through one sweep
    (one process pool when ``workers`` > 1); each class folds its racks
    in rack order, so the scores are byte-identical at any worker
    count, with driver memory bounded by the in-flight window."""
    return _fold_fleets(configs, TABLE1_POLICIES, workers=workers,
                        max_inflight=max_inflight)


def format_table1(results: dict[str, dict[str, PolicyScore]]) -> str:
    """Render Table I in the paper's layout."""
    lines = [f"{'System':<17} {'Norm#Caps':>10} {'Success':>10} "
             f"{'CapPenalty':>10} {'NormPerf':>12}"]
    for cluster, scores in results.items():
        lines.append(f"--- {cluster} ---")
        for name in TABLE1_POLICIES:
            if name in scores:
                lines.append(scores[name].row())
    return "\n".join(lines)
