"""Tests for heterogeneous power budgets, pinned to the §IV-C example."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.budgets import BudgetAssignment, compute_heterogeneous_budgets
from repro.core.types import ServerProfileReport


def profile(server_id, regular, requested, slot_s=300.0):
    regular = np.asarray(regular, dtype=float)
    requested = np.asarray(requested, dtype=float)
    return ServerProfileReport(
        server_id=server_id, slot_s=slot_s,
        regular_power_watts=regular,
        oc_requested_cores=requested,
        oc_granted_cores=requested)


class TestPaperWorkedExample:
    def test_section_4c_example(self):
        """Rack limit 1.3 kW; X: 400 W regular + 5 cores, Y: 300 W + 10
        cores, 10 W/core → X gets 600 W, Y gets 700 W."""
        profiles = [profile("X", [400.0], [5]), profile("Y", [300.0], [10])]
        assignment = compute_heterogeneous_budgets(
            1300.0, profiles, oc_delta_watts_per_core=10.0,
            even_headroom_fraction=0.0)
        assert assignment.budget_at("X", 0.0) == pytest.approx(600.0)
        assert assignment.budget_at("Y", 0.0) == pytest.approx(700.0)


class TestHeterogeneousBudgets:
    def test_budgets_sum_to_limit(self):
        profiles = [profile("a", [200.0, 250.0], [4, 0]),
                    profile("b", [300.0, 280.0], [0, 8])]
        assignment = compute_heterogeneous_budgets(1000.0, profiles, 10.0)
        for slot_t in (0.0, 300.0):
            assert assignment.total_at(slot_t) == pytest.approx(1000.0)

    def test_no_need_splits_headroom_evenly(self):
        profiles = [profile("a", [200.0], [0]), profile("b", [300.0], [0])]
        assignment = compute_heterogeneous_budgets(700.0, profiles, 10.0)
        assert assignment.budget_at("a", 0.0) == pytest.approx(300.0)
        assert assignment.budget_at("b", 0.0) == pytest.approx(400.0)

    def test_overcommitted_scales_proportionally(self):
        profiles = [profile("a", [600.0], [2]), profile("b", [600.0], [2])]
        assignment = compute_heterogeneous_budgets(600.0, profiles, 10.0)
        assert assignment.budget_at("a", 0.0) == pytest.approx(300.0)
        assert assignment.total_at(0.0) == pytest.approx(600.0)

    def test_even_fraction_guarantees_floor(self):
        """A server with zero recorded need still gets an even share."""
        profiles = [profile("needy", [100.0], [20]),
                    profile("quiet", [100.0], [0])]
        assignment = compute_heterogeneous_budgets(
            500.0, profiles, 10.0, even_headroom_fraction=0.3)
        # Headroom 300; quiet gets 0.3*300/2 = 45 on top of its regular.
        assert assignment.budget_at("quiet", 0.0) == pytest.approx(145.0)

    def test_need_weighting(self):
        profiles = [profile("a", [100.0], [1]), profile("b", [100.0], [3])]
        assignment = compute_heterogeneous_budgets(
            600.0, profiles, 10.0, even_headroom_fraction=0.0)
        extra_a = assignment.budget_at("a", 0.0) - 100.0
        extra_b = assignment.budget_at("b", 0.0) - 100.0
        assert extra_b == pytest.approx(3 * extra_a)

    def test_mismatched_profiles_rejected(self):
        profiles = [profile("a", [100.0], [1]),
                    profile("b", [100.0, 200.0], [1, 1])]
        with pytest.raises(ValueError, match="slot"):
            compute_heterogeneous_budgets(500.0, profiles, 10.0)

    def test_validation(self):
        p = [profile("a", [100.0], [1])]
        with pytest.raises(ValueError):
            compute_heterogeneous_budgets(0.0, p, 10.0)
        with pytest.raises(ValueError):
            compute_heterogeneous_budgets(100.0, [], 10.0)
        with pytest.raises(ValueError):
            compute_heterogeneous_budgets(100.0, p, 0.0)
        with pytest.raises(ValueError):
            compute_heterogeneous_budgets(100.0, p, 10.0,
                                          even_headroom_fraction=1.5)

    @given(st.integers(2, 6), st.integers(1, 4))
    @settings(max_examples=30)
    def test_budgets_always_sum_to_limit(self, n_servers, n_slots):
        rng = np.random.default_rng(n_servers * 10 + n_slots)
        profiles = [
            profile(f"s{i}", rng.uniform(100, 400, n_slots),
                    rng.integers(0, 16, n_slots))
            for i in range(n_servers)
        ]
        limit = float(rng.uniform(200, 3000))
        assignment = compute_heterogeneous_budgets(limit, profiles, 9.5)
        for s in range(n_slots):
            assert assignment.total_at(s * 300.0) == pytest.approx(limit)

    @given(st.integers(2, 5))
    @settings(max_examples=20)
    def test_budget_at_least_regular_when_headroom_exists(self, n):
        rng = np.random.default_rng(n)
        regular = rng.uniform(100, 200, (n, 1))
        profiles = [profile(f"s{i}", regular[i], [int(rng.integers(0, 8))])
                    for i in range(n)]
        limit = float(regular.sum() + 500.0)
        assignment = compute_heterogeneous_budgets(limit, profiles, 9.5)
        for i in range(n):
            assert assignment.budget_at(f"s{i}", 0.0) >= regular[i][0] - 1e-9


class TestBudgetAssignment:
    def make(self):
        return BudgetAssignment(
            slot_s=300.0, budgets={"a": np.array([1.0, 2.0, 3.0])})

    def test_in_horizon_lookup(self):
        assignment = self.make()
        assert assignment.budget_at("a", 0.0) == 1.0
        assert assignment.budget_at("a", 350.0) == 2.0
        assert assignment.budget_at("a", 899.0) == 3.0

    def test_plan_horizon(self):
        assert self.make().plan_horizon == 900.0

    def test_out_of_horizon_raises_by_default(self):
        """Regression: t == plan_horizon is already *past* the plan
        (slots are half-open) — the old implicit ``% len`` silently
        handed back the week-start budget there."""
        assignment = self.make()
        with pytest.raises(LookupError, match="horizon"):
            assignment.budget_at("a", assignment.plan_horizon)
        with pytest.raises(LookupError, match="horizon"):
            assignment.budget_at("a", -1.0)
        with pytest.raises(LookupError, match="horizon"):
            assignment.total_at(assignment.plan_horizon)

    def test_clamp_holds_boundary_slot(self):
        assignment = self.make()
        horizon = assignment.plan_horizon
        assert assignment.budget_at("a", horizon,
                                    out_of_horizon="clamp") == 3.0
        assert assignment.budget_at("a", horizon + 5000.0,
                                    out_of_horizon="clamp") == 3.0
        assert assignment.budget_at("a", -1.0,
                                    out_of_horizon="clamp") == 1.0

    def test_wrap_is_periodic(self):
        assignment = self.make()
        assert assignment.budget_at("a", 3 * 300.0,
                                    out_of_horizon="wrap") == 1.0
        assert assignment.budget_at("a", 4 * 300.0 + 50.0,
                                    out_of_horizon="wrap") == 2.0

    def test_modes_agree_in_horizon(self):
        assignment = self.make()
        for t in (0.0, 299.0, 300.0, 899.0):
            values = {assignment.budget_at("a", t, out_of_horizon=mode)
                      for mode in ("raise", "clamp", "wrap")}
            assert len(values) == 1

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="out_of_horizon"):
            self.make().budget_at("a", 0.0, out_of_horizon="extrapolate")

    def test_unknown_server_raises(self):
        assignment = BudgetAssignment(slot_s=300.0,
                                      budgets={"a": np.array([1.0])})
        with pytest.raises(KeyError):
            assignment.budget_at("zz", 0.0)


class TestReadOnlyAssignment:
    """An assignment is shared by every sOA of a rack and its budgets are
    encoded once for their checkpoints, so nothing may change it."""

    def test_writes_raise(self):
        assignment = BudgetAssignment(
            slot_s=300.0, budgets={"a": np.array([1.0, 2.0])})
        with pytest.raises(TypeError):
            assignment.budgets["a"] = np.array([9.0, 9.0])
        with pytest.raises(TypeError):
            del assignment.budgets["a"]
        with pytest.raises(ValueError, match="read-only"):
            assignment.budgets["a"][0] = 9.0
        assert assignment.budget_at("a", 0.0) == 1.0

    def test_series_are_float64_copies(self):
        rows = np.array([[1.0, 2.0], [3.0, 4.0]])
        assignment = BudgetAssignment(
            slot_s=300.0, budgets={"a": rows[0], "b": [3, 4]})
        rows[0, 0] = 99.0  # the caller's view stays writable
        assert assignment.budget_at("a", 0.0) == 1.0
        assert assignment.budgets["b"].dtype == np.float64

    def test_replace_keeps_working(self):
        assignment = BudgetAssignment(
            slot_s=300.0, budgets={"a": np.array([1.0, 2.0])})
        pushed = dataclasses.replace(assignment, epoch=4)
        assert pushed.epoch == 4
        assert np.array_equal(pushed.budgets["a"], assignment.budgets["a"])
        assert not pushed.budgets["a"].flags.writeable

    def test_fragment_is_encoded_once(self):
        assignment = BudgetAssignment(
            slot_s=300.0,
            budgets={"b": np.array([0.1, -0.0]), "a": np.array([1e300])})
        fragment = assignment.budgets_fragment
        assert assignment.budgets_fragment is fragment
        assert list(fragment) == ["a", "b"]
        assert fragment == {"a": (1e300,), "b": (0.1, -0.0)}
        assert fragment.text == json.dumps(
            {sid: [float(x) for x in series]
             for sid, series in assignment.budgets.items()},
            sort_keys=True, separators=(",", ":"))


class TestPerSlotLimit:
    """Array rack limits (the oversubscribed planning series)."""

    def test_scalar_and_constant_array_bitwise_equal(self):
        rng = np.random.default_rng(9)
        profiles = [profile(f"s{i}", rng.uniform(100, 400, 4),
                            rng.integers(0, 16, 4)) for i in range(3)]
        scalar = compute_heterogeneous_budgets(900.0, profiles, 9.5)
        array = compute_heterogeneous_budgets(np.full(4, 900.0),
                                              profiles, 9.5)
        for sid in scalar.budgets:
            assert np.array_equal(scalar.budgets[sid], array.budgets[sid])

    def test_per_slot_limit_sums_per_slot(self):
        profiles = [profile("a", [200.0, 200.0], [4, 4]),
                    profile("b", [300.0, 300.0], [0, 8])]
        limit = np.array([1000.0, 1200.0])
        assignment = compute_heterogeneous_budgets(limit, profiles, 10.0)
        assert assignment.total_at(0.0) == pytest.approx(1000.0)
        assert assignment.total_at(300.0) == pytest.approx(1200.0)

    def test_mixed_regimes_across_slots(self):
        # Slot 0 overcommitted, slot 1 has headroom: both sum to their
        # own slot's limit.
        profiles = [profile("a", [600.0, 100.0], [2, 2]),
                    profile("b", [600.0, 100.0], [2, 0])]
        limit = np.array([600.0, 800.0])
        assignment = compute_heterogeneous_budgets(limit, profiles, 10.0)
        assert assignment.total_at(0.0) == pytest.approx(600.0)
        assert assignment.total_at(300.0) == pytest.approx(800.0)

    def test_wrong_length_rejected(self):
        profiles = [profile("a", [100.0, 100.0], [1, 1])]
        with pytest.raises(ValueError, match="shape"):
            compute_heterogeneous_budgets(np.array([500.0]), profiles, 10.0)

    def test_nonpositive_slot_rejected(self):
        profiles = [profile("a", [100.0, 100.0], [1, 1])]
        with pytest.raises(ValueError, match="> 0"):
            compute_heterogeneous_budgets(np.array([500.0, 0.0]),
                                          profiles, 10.0)
