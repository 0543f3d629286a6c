"""The vectorized plans reproduce the scalar decisions exactly.

* Central packs every tick with headroom short of grant-everything
  inside its plan; the packing must equal the round-robin loop over NumPy
  scalars it replaced, kept below as the oracle, on ties, exhausted
  headroom, zero demand and utilizations under the 0.01 floor.
* What still leaves a plan is a cap, plus, for the SmartOClock family,
  the recovery tick after it: ``fast_decide`` runs exactly there.
* A plan applies the policy's warning hook itself, so a subclass that
  brings a hook of its own must run scalar, not skip it.

The stateful plans' recurrence is checked against the scalar reference
at the production shape in ``test_fastpath.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import (
    CentralOracle,
    NoFeedback,
    NoWarning,
    RackWeekView,
    SmartOClockPolicy,
    TickContext,
    make_policy,
)
from repro.experiments.largescale import (
    CAP_RECOVERY_TICKS,
    TABLE1_POLICIES,
    RackFrame,
    cluster_class_fleet_configs,
    simulate_rack,
    simulate_rack_reference,
)
from repro.traces.synthetic import generate_fleet_rack
from tests.experiments.test_fastpath import (
    assert_bit_identical,
    make_rack,
    production_frame,
)

DELTA_FULL = 8.0


def round_robin_oracle(ctx: TickContext) -> np.ndarray:
    """Central's decision as a loop over NumPy scalars, core by core."""
    n = len(ctx.demand_cores)
    granted = np.zeros(n, dtype=np.int64)
    expected_delta = ctx.delta_full_watts * np.maximum(ctx.oracle_util, 0.01)
    headroom = ctx.limit_watts - float(np.sum(ctx.oracle_power))
    if headroom <= 0:
        return granted
    demand = ctx.demand_cores.copy()
    progress = True
    while progress and headroom > 0:
        progress = False
        for i in range(n):
            if demand[i] > 0 and expected_delta[i] <= headroom:
                granted[i] += 1
                demand[i] -= 1
                headroom -= expected_delta[i]
                progress = True
    return granted


@st.composite
def central_ticks(draw):
    """A few ticks of one rack.  Dyadic utilizations and whole-watt
    powers make every subtraction exact, so a server's delta often equals
    the headroom left; arbitrary floats cover the rounding paths."""
    n = draw(st.integers(1, 8))
    ticks = draw(st.integers(1, 4))
    dyadic = draw(st.booleans())
    if dyadic:
        util = st.integers(0, 32).map(lambda j: j / 32)
        power = st.integers(0, 300).map(float)
    else:
        util = st.one_of(st.floats(0.0, 1.0), st.sampled_from(
            [0.0, 0.001, 0.0099, 0.01]))
        power = st.floats(0.0, 300.0)
    rows = st.lists(util, min_size=n, max_size=n)
    utils = np.array(draw(st.lists(rows, min_size=ticks, max_size=ticks)))
    powers = np.array(draw(st.lists(st.lists(power, min_size=n, max_size=n),
                                    min_size=ticks, max_size=ticks)))
    demand = np.array(draw(st.lists(
        st.lists(st.integers(0, 12), min_size=n, max_size=n),
        min_size=ticks, max_size=ticks)), dtype=np.int64)
    # Headroom from clearly negative through exhausted to generous.
    extra = draw(st.one_of(st.integers(-50, 400).map(float),
                           st.floats(-50.0, 400.0)))
    limit = float(np.sum(powers, axis=1).max()) + extra
    return utils, powers, demand, limit


def central_view(utils, powers, demand, limit) -> RackWeekView:
    ticks = len(utils)
    return RackWeekView(
        indices=np.arange(ticks, dtype=np.int64),
        times=300.0 * np.arange(ticks),
        observed_power=powers, observed_util=utils,
        oracle_power=powers, oracle_util=utils, demand=demand,
        observed_power_sums=np.sum(powers, axis=1),
        oracle_power_sums=np.sum(powers, axis=1),
        limit_watts=limit, warning_watts=0.95 * limit,
        delta_full_watts=DELTA_FULL)


def view_ctx(view: RackWeekView, k: int) -> TickContext:
    return TickContext(
        index=int(view.indices[k]), time=float(view.times[k]),
        limit_watts=view.limit_watts, warning_watts=view.warning_watts,
        observed_power=view.observed_power[k],
        observed_util=view.observed_util[k],
        oracle_power=view.oracle_power[k], oracle_util=view.oracle_util[k],
        demand_cores=view.demand[k],
        delta_full_watts=view.delta_full_watts)


class TestCentralPacking:
    @settings(max_examples=300, deadline=None)
    @given(central_ticks())
    def test_decide_and_plan_equal_the_round_robin_loop(self, case):
        view = central_view(*case)
        policy = CentralOracle(view.demand.shape[1])
        assert policy.begin_week_fast(view)
        plan = policy.plan_segment(view, 0, view.n_ticks)
        assert (plan.start, plan.stop) == (0, view.n_ticks)
        for k in range(view.n_ticks):
            ctx = view_ctx(view, k)
            expected = round_robin_oracle(ctx)
            assert np.array_equal(policy.decide(ctx), expected)
            assert np.array_equal(plan.granted[k], expected)

    def test_every_planned_row_of_a_week_equals_decide(self):
        config = cluster_class_fleet_configs(n_racks=1, weeks=2,
                                             seed=3)["High-Power"]
        frame = RackFrame(generate_fleet_rack(config, 0))
        plans = []

        class Recording(CentralOracle):
            def plan_segment(self, view, start, end):
                plan = super().plan_segment(view, start, end)
                plans.append((view, plan))
                return plan

        simulate_rack(frame, Recording(frame.n_servers))
        assert len(plans) == 1  # the whole evaluation week
        view, plan = plans[0]
        assert (plan.start, plan.stop) == (0, view.n_ticks)
        oracle = CentralOracle(frame.n_servers)
        packed = 0
        for k in range(view.n_ticks):
            ctx = view_ctx(view, k)
            granted = oracle.decide(ctx)
            assert np.array_equal(plan.granted[k], granted)
            packed += not np.array_equal(granted, ctx.demand_cores)
        assert packed > 100  # the week exercises the packing, not a shortcut


POLICIES = TABLE1_POLICIES + ("SmartOClock+OSub:aggressive",)


def test_scalar_ticks_are_caps_and_smartoclock_recovery():
    frame = production_frame("High-Power")
    last_index = len(frame.times) - 1
    for name in POLICIES:
        policy = make_policy(name, frame.n_servers)
        calls = []
        caps = []
        fast_decide, on_cap = policy.fast_decide, policy.on_cap

        def counting_decide(view, rel, ctx, fast_decide=fast_decide):
            calls.append(ctx.index)
            return fast_decide(view, rel, ctx)

        def recording_cap(ctx, on_cap=on_cap):
            caps.append(ctx.index)
            on_cap(ctx)

        policy.fast_decide = counting_decide
        policy.on_cap = recording_cap
        result = simulate_rack(frame, policy)
        assert len(caps) == result.cap_events, name
        # Central and NoFeedback never overdraw this rack; the rest cap.
        assert caps or name in ("Central", "NoFeedback"), name
        assert len(set(calls)) == len(calls), name
        recovery = [i + r for i in caps
                    for r in range(1, CAP_RECOVERY_TICKS + 1)
                    if i + r <= last_index]
        # Only a policy whose warning hook acts keeps its recovery ticks
        # out of plans (they skip the hook its plans apply).
        if policy.warning_inert:
            assert sorted(calls) == caps, name
        else:
            assert sorted(calls) == sorted(caps + recovery), name


@pytest.mark.parametrize("base", [NoFeedback, NoWarning, SmartOClockPolicy])
def test_a_policy_with_its_own_warning_hook_runs_scalar(base):
    class Hooked(base):
        tick_stateless = False
        warning_inert = False

        def on_warning(self, ctx):
            super().on_warning(ctx)
            self._budgets = self._budgets * 0.99

    rack = make_rack(17, p99_range=(0.88, 0.96))
    n = len(rack.servers)
    assert not Hooked(n)._plans_apply_on_warning()
    fast = simulate_rack(rack, Hooked(n))
    ref = simulate_rack_reference(rack, Hooked(n))
    assert ref.warnings > ref.cap_events  # the hook acts off the caps
    assert_bit_identical(fast, ref)
