"""Tests for wear counters and epoch budgets."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reliability.aging import DEFAULT_AGING_MODEL
from repro.reliability.wearout import (
    CoreWearoutCounter,
    EpochBudget,
    OverclockBudgetPlanner,
)
from repro.sim.fold import MIN_CLOSED_FORM_RUN

WEEK = 7 * 86400.0
V_REF = DEFAULT_AGING_MODEL.reference_volts


class TestCoreWearoutCounter:
    def test_time_in_state_tracking(self):
        counter = CoreWearoutCounter()
        counter.accumulate(10.0, utilization=0.5, volts=V_REF)
        counter.accumulate(5.0, utilization=1.0, volts=1.75)
        assert counter.elapsed_seconds == 15.0
        assert counter.busy_seconds == pytest.approx(10.0)
        assert counter.overclock_seconds == pytest.approx(5.0)

    def test_wear_ratio_below_one_when_underutilized(self):
        counter = CoreWearoutCounter()
        counter.accumulate(100.0, 0.4, V_REF)
        assert counter.wear_ratio == pytest.approx(0.4)
        assert counter.lifetime_credit_seconds == pytest.approx(60.0)

    def test_overclocking_burns_credits(self):
        counter = CoreWearoutCounter()
        counter.accumulate(100.0, 0.5, 1.75)
        assert counter.wear_ratio > 1.0
        assert counter.lifetime_credit_seconds < 0

    def test_empty_counter(self):
        assert CoreWearoutCounter().wear_ratio == 0.0

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            CoreWearoutCounter().accumulate(-1.0, 0.5, V_REF)

    @given(warm=st.floats(0.0, 1e6),
           dt=st.floats(0.0, 3600.0),
           utilization=st.floats(0.0, 1.0),
           volts=st.sampled_from([0.9, V_REF, 1.2, 1.45, 1.75]),
           count=st.one_of(st.integers(0, 2 * MIN_CLOSED_FORM_RUN),
                           st.integers(MIN_CLOSED_FORM_RUN, 20000)))
    @settings(max_examples=120, deadline=None)
    def test_accumulate_run_matches_repeated_accumulate(
            self, warm, dt, utilization, volts, count):
        """Runs on both sides of the closed-form cutoff equal ``count``
        single-tick calls on every accumulator, bit for bit."""
        run = CoreWearoutCounter()
        ticks = CoreWearoutCounter()
        for counter in (run, ticks):
            counter.accumulate(warm, 0.5, V_REF)
        run.accumulate_run(dt, utilization, volts, count)
        for _ in range(count):
            ticks.accumulate(dt, utilization, volts)
        assert run.state_dict() == ticks.state_dict()

    def test_accumulate_run_negative_count_rejected(self):
        with pytest.raises(ValueError):
            CoreWearoutCounter().accumulate_run(1.0, 0.5, V_REF, -1)


class TestEpochBudget:
    def test_allowance_is_fraction_of_epoch(self):
        budget = EpochBudget(budget_fraction=0.1)
        assert budget.epoch_allowance_seconds == pytest.approx(0.1 * WEEK)

    def test_per_weekday_split(self):
        """§IV-B: week epochs let unused weekend budget flow to weekdays."""
        budget = EpochBudget(budget_fraction=0.1, weekday_only=True)
        assert budget.per_weekday_seconds() == pytest.approx(
            0.1 * WEEK / 5.0)

    def test_per_weekday_all_days(self):
        budget = EpochBudget(budget_fraction=0.1, weekday_only=False)
        assert budget.per_weekday_seconds() == pytest.approx(
            0.1 * WEEK / 7.0)

    def test_consume_reduces_availability(self):
        budget = EpochBudget(budget_fraction=0.1)
        before = budget.available_seconds(0.0)
        assert budget.consume(0.0, 1000.0)
        assert budget.available_seconds(0.0) == pytest.approx(
            before - 1000.0)

    def test_consume_beyond_available_fails(self):
        budget = EpochBudget(budget_fraction=0.001)
        allowance = budget.epoch_allowance_seconds
        assert not budget.consume(0.0, allowance + 1.0)
        # And the failed consume did not burn anything.
        assert budget.available_seconds(0.0) == pytest.approx(allowance)

    def test_epoch_rollover_refreshes(self):
        budget = EpochBudget(budget_fraction=0.01,
                             carryover_cap_epochs=0.0)
        allowance = budget.epoch_allowance_seconds
        budget.consume(0.0, allowance)
        assert budget.available_seconds(0.0) == 0.0
        assert budget.available_seconds(WEEK + 1.0) == pytest.approx(
            allowance)

    def test_unused_budget_carries_over(self):
        """§IV-B: unused budgets carried over to the next epoch."""
        budget = EpochBudget(budget_fraction=0.01,
                             carryover_cap_epochs=1.0)
        allowance = budget.epoch_allowance_seconds
        # Consume nothing in epoch 0.
        assert budget.available_seconds(WEEK + 1.0) == pytest.approx(
            2 * allowance)

    def test_carryover_capped(self):
        budget = EpochBudget(budget_fraction=0.01,
                             carryover_cap_epochs=0.5)
        allowance = budget.epoch_allowance_seconds
        assert budget.available_seconds(3 * WEEK) == pytest.approx(
            1.5 * allowance)

    def test_reservation_blocks_unreserved_consumption(self):
        """§IV-B: reservations give scheduled requests predictability."""
        budget = EpochBudget(budget_fraction=0.01)
        allowance = budget.epoch_allowance_seconds
        assert budget.reserve(0.0, allowance)
        assert not budget.consume(0.0, 1.0)  # pool is empty
        assert budget.consume(0.0, 100.0, from_reservation=True)

    def test_reserve_beyond_available_fails(self):
        budget = EpochBudget(budget_fraction=0.01)
        assert not budget.reserve(0.0,
                                  budget.epoch_allowance_seconds + 1.0)

    def test_release_reservation(self):
        budget = EpochBudget(budget_fraction=0.01)
        budget.reserve(0.0, 500.0)
        budget.release_reservation(0.0, 500.0)
        assert budget.available_seconds(0.0) == pytest.approx(
            budget.epoch_allowance_seconds)

    def test_time_backwards_rejected(self):
        budget = EpochBudget()
        budget.available_seconds(2 * WEEK)
        with pytest.raises(ValueError, match="backwards"):
            budget.available_seconds(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            EpochBudget(budget_fraction=1.5)
        with pytest.raises(ValueError):
            EpochBudget(epoch_seconds=0.0)
        with pytest.raises(ValueError):
            EpochBudget(carryover_cap_epochs=-1.0)
        with pytest.raises(ValueError):
            EpochBudget(epoch_seconds=3600.0).per_weekday_seconds()

    @given(st.lists(st.floats(0.0, 20000.0), min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_never_overspends_epoch(self, amounts):
        """Invariant: total consumption within one epoch never exceeds
        the allowance plus carryover."""
        budget = EpochBudget(budget_fraction=0.05)
        consumed = 0.0
        for amount in amounts:
            if budget.consume(1000.0, amount):
                consumed += amount
        assert consumed <= budget.epoch_allowance_seconds * (
            1 + budget.carryover_cap_epochs) + 1e-6


class TestPlanner:
    def test_derived_fraction_reasonable(self):
        """The vendor-analysis outcome is a small but usable share of time
        (the paper cites e.g. 10 %)."""
        fraction = OverclockBudgetPlanner().budget_fraction()
        assert 0.01 <= fraction <= 0.25

    def test_make_budget_uses_derived_fraction(self):
        planner = OverclockBudgetPlanner()
        budget = planner.make_budget()
        assert budget.budget_fraction == pytest.approx(
            planner.budget_fraction())

    def test_worst_case_utilization_default(self):
        planner = OverclockBudgetPlanner()
        explicit = planner.budget_fraction(baseline_utilization=0.5,
                                           oc_utilization=0.5)
        default = planner.budget_fraction(baseline_utilization=0.5)
        assert explicit == pytest.approx(default)
