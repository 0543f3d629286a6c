"""Tests for the trace-driven large-scale simulation (Table I, Fig. 15)."""

import numpy as np
import pytest

from repro.core.policies import make_policy
from repro.experiments.largescale import (
    PolicyAccumulator,
    RackSimResult,
    cluster_class_fleet_configs,
    compare_policies_streaming,
    simulate_rack,
)
from repro.traces.synthetic import FleetConfig, generate_fleet

HIGH_POWER = FleetConfig(n_racks=3, weeks=2, seed=9,
                         servers_per_rack_min=12, servers_per_rack_max=12,
                         p99_util_beta=(2.0, 2.0),
                         p99_util_range=(0.86, 0.96))


@pytest.fixture(scope="module")
def high_power_fleet():
    return generate_fleet(HIGH_POWER)


@pytest.fixture(scope="module")
def scores():
    return compare_policies_streaming(HIGH_POWER)


class TestSimulateRack:
    def test_result_counters_consistent(self, high_power_fleet):
        rack = high_power_fleet.racks[0]
        result = simulate_rack(rack, make_policy("SmartOClock",
                                                 len(rack.servers)))
        assert result.successful_core_ticks <= result.granted_core_ticks
        assert result.granted_core_ticks <= result.demanded_core_ticks
        assert 0.0 <= result.success_rate <= 1.0
        assert 0.0 <= result.cap_penalty <= 0.5

    def test_policy_size_mismatch_rejected(self, high_power_fleet):
        rack = high_power_fleet.racks[0]
        with pytest.raises(ValueError, match="sized"):
            simulate_rack(rack, make_policy("Central", 3))

    def test_single_week_rejected(self):
        fleet = generate_fleet(FleetConfig(
            n_racks=1, weeks=1, seed=1, servers_per_rack_min=4,
            servers_per_rack_max=4))
        rack = fleet.racks[0]
        with pytest.raises(ValueError, match="2 weeks"):
            simulate_rack(rack, make_policy("Central", len(rack.servers)))

    def test_deterministic(self, high_power_fleet):
        rack = high_power_fleet.racks[0]
        a = simulate_rack(rack, make_policy("SmartOClock",
                                            len(rack.servers)))
        b = simulate_rack(rack, make_policy("SmartOClock",
                                            len(rack.servers)))
        assert a.cap_events == b.cap_events
        assert a.successful_core_ticks == b.successful_core_ticks


class TestTable1Orderings:
    """The qualitative Table-I findings on a small high-power fleet."""

    def test_naive_causes_most_caps(self, scores):
        assert scores["NaiveOClock"].cap_events > \
            scores["SmartOClock"].cap_events
        assert scores["NaiveOClock"].cap_events > \
            scores["NoFeedback"].cap_events

    def test_central_has_fewest_caps(self, scores):
        assert scores["Central"].cap_events <= min(
            s.cap_events for n, s in scores.items() if n != "Central")

    def test_warnings_reduce_caps(self, scores):
        """SmartOClock caps far less than NoWarning (paper: up to 4.3x)."""
        assert scores["SmartOClock"].cap_events < \
            scores["NoWarning"].cap_events

    def test_central_has_best_success(self, scores):
        assert scores["Central"].success_rate == max(
            s.success_rate for s in scores.values())

    def test_smartoclock_beats_naive_and_nofeedback(self, scores):
        assert scores["SmartOClock"].success_rate > \
            scores["NaiveOClock"].success_rate
        assert scores["SmartOClock"].success_rate > \
            scores["NoFeedback"].success_rate

    def test_performance_tracks_success(self, scores):
        assert scores["SmartOClock"].normalized_performance > \
            scores["NaiveOClock"].normalized_performance
        assert scores["Central"].normalized_performance <= 4.0 / 3.3

    def test_naive_penalty_largest(self, scores):
        others = max(s.cap_penalty for n, s in scores.items()
                     if n not in ("NaiveOClock",))
        assert scores["NaiveOClock"].cap_penalty >= others


class TestCappingAblation:
    def test_fair_share_penalty_exceeds_prioritized(self, high_power_fleet):
        """§V-B: heterogeneous/prioritized capping reduces the penalty on
        non-overclocked VMs (paper: 1.62-1.72x)."""
        penalties = {}
        for mode in ("heterogeneous", "fair"):
            values = []
            for rack in high_power_fleet.racks:
                policy = make_policy("SmartOClock", len(rack.servers))
                policy.capping_mode = mode
                result = simulate_rack(rack, policy)
                if result.noc_penalty_events:
                    values.append(result.cap_penalty)
            penalties[mode] = float(np.mean(values)) if values else 0.0
        assert penalties["fair"] > penalties["heterogeneous"]


class TestClusterClasses:
    def test_three_classes_generated(self):
        configs = cluster_class_fleet_configs(n_racks=2, weeks=2, seed=3)
        assert set(configs) == {"High-Power", "Medium-Power", "Low-Power"}

    def test_class_utilizations_ordered(self):
        configs = cluster_class_fleet_configs(n_racks=2, weeks=2, seed=3)
        means = {}
        for name, config in configs.items():
            stats = generate_fleet(config).rack_utilization_stats()
            means[name] = float(np.mean(stats["p99"]))
        assert means["High-Power"] > means["Medium-Power"] > \
            means["Low-Power"]


class TestAccountingSelfCheck:
    """``PolicyAccumulator.add`` refuses a result that breaks one of the
    sweep's accounting rules, naming the rack, the policy and the rule."""

    VALID = dict(rack_id="r7", policy="SmartOClock", ticks=10, cap_events=2,
                 demanded_core_ticks=100, granted_core_ticks=80,
                 successful_core_ticks=80.0, stranded_watt_ticks=0.0,
                 osub_cap_events=2)

    def test_valid_results_fold(self):
        acc = PolicyAccumulator("SmartOClock")
        acc.add(RackSimResult(**self.VALID))
        # successful may exceed granted by float rounding, no more.
        acc.add(RackSimResult(**{**self.VALID,
                                 "successful_core_ticks": 80.0 + 1e-12}))
        assert acc.racks == 2

    @pytest.mark.parametrize("field, value, rule", [
        ("granted_core_ticks", 101, "granted <= demanded"),
        ("successful_core_ticks", 80.0 * (1 + 1e-9), "successful <= granted"),
        ("stranded_watt_ticks", -1e-9, "stranded >= 0"),
        ("osub_cap_events", 3, "osub caps <= caps"),
    ])
    def test_planted_violation_raises(self, field, value, rule):
        acc = PolicyAccumulator("SmartOClock")
        with pytest.raises(ValueError) as failure:
            acc.add(RackSimResult(**{**self.VALID, field: value}))
        message = str(failure.value)
        assert "rack r7, policy SmartOClock" in message
        assert repr(rule) in message
        assert acc.racks == 0
