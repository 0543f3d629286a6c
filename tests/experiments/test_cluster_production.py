"""Tests for the cluster experiment (§V-A) and production study (§V-C).

The cluster runs here use a compressed timeline (short peak, coarse
ticks) so the suite stays fast; the full-scale runs live in benchmarks/.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.cluster import (
    ClusterConfig,
    LatencyAggregator,
    run_environment,
)
from repro.experiments.production import fig16_service_b, fig17_service_c
from tests.workloads.latency_oracle import ReferenceAggregator


def fast_config(**kwargs):
    defaults = dict(duration_s=1800.0, tick_s=20.0, peak_start_s=600.0,
                    peak_duration_s=600.0, seed=1)
    defaults.update(kwargs)
    return ClusterConfig(**defaults)


@pytest.fixture(scope="module")
def results():
    config = fast_config()
    return {env: run_environment(env, config)
            for env in ("Baseline", "ScaleOut", "ScaleUp", "SmartOClock")}


class TestLatencyAggregator:
    def test_quantile_of_single_queue(self):
        from repro.workloads.queueing import MMcQueue
        agg = LatencyAggregator()
        agg.add_tick(weight=100.0, offered_rho=0.6, mu=100.0, servers=4,
                     slo_ms=50.0)
        queue = MMcQueue(0.6 * 4 * 100.0, 100.0, 4)
        assert agg.p99_ms() == pytest.approx(
            queue.p99_response() * 1000.0, rel=1e-3)

    def test_mixture_between_components(self):
        agg = LatencyAggregator()
        agg.add_tick(weight=50.0, offered_rho=0.2, mu=100.0, servers=4,
                     slo_ms=50.0)
        agg.add_tick(weight=50.0, offered_rho=0.9, mu=100.0, servers=4,
                     slo_ms=50.0)
        lone_low = LatencyAggregator()
        lone_low.add_tick(weight=1.0, offered_rho=0.2, mu=100.0,
                          servers=4, slo_ms=50.0)
        lone_high = LatencyAggregator()
        lone_high.add_tick(weight=1.0, offered_rho=0.9, mu=100.0,
                           servers=4, slo_ms=50.0)
        assert lone_low.p99_ms() < agg.p99_ms() < 2 * lone_high.p99_ms()

    def test_overload_scales_latency(self):
        agg = LatencyAggregator()
        agg.add_tick(weight=1.0, offered_rho=1.5, mu=100.0, servers=4,
                     slo_ms=50.0)
        capped = LatencyAggregator()
        capped.add_tick(weight=1.0, offered_rho=0.98, mu=100.0, servers=4,
                        slo_ms=50.0)
        assert agg.p99_ms() > capped.p99_ms()

    def test_zero_weight_ignored(self):
        agg = LatencyAggregator()
        agg.add_tick(weight=0.0, offered_rho=0.5, mu=100.0, servers=2,
                     slo_ms=10.0)
        with pytest.raises(ValueError):
            agg.p99_ms()

    def test_missed_fraction_in_unit_interval(self):
        agg = LatencyAggregator()
        agg.add_tick(weight=10.0, offered_rho=0.7, mu=100.0, servers=2,
                     slo_ms=30.0)
        assert 0.0 <= agg.missed_slo_fraction() <= 1.0


# One tick's add_tick arguments: loads reach past the 0.98 clamp, so some
# ticks are overloaded, and weights span orders of magnitude, so the order
# of the mixture sums shows in the result's bits.
_TICK = st.tuples(
    st.floats(0.5, 5e4),                                     # weight
    st.one_of(st.floats(0.0, 1.6), st.sampled_from([0.98])),  # offered_rho
    st.floats(50.0, 2000.0),                                 # mu
    st.integers(1, 12),                                      # servers
    st.sampled_from([5.0, 9.0, 15.0, 30.0]))                 # slo_ms


class TestAggregatorMatchesPerTickReference:
    """Storing each distinct tick once and folding the terms in tick order
    returns exactly (``==``) what one entry and one fresh station per
    tick, and all 80 halvings, return (``ReferenceAggregator``)."""

    @given(st.lists(_TICK, min_size=1, max_size=6),
           st.lists(st.integers(0, 5), min_size=1, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_streams_with_repeated_ticks(self, pool, picks):
        agg, reference = LatencyAggregator(), ReferenceAggregator()
        for pick in picks:
            weight, rho, mu, servers, slo_ms = pool[pick % len(pool)]
            for target in (agg, reference):
                target.add_tick(weight=weight, offered_rho=rho, mu=mu,
                                servers=servers, slo_ms=slo_ms)
        p99 = agg.p99_ms()
        assert p99 == reference.p99_ms()
        assert agg.mean_ms() == reference.mean_ms()
        assert agg.missed_slo_fraction() == reference.missed_slo_fraction()
        for t_ms in (0.0, 0.5 * p99, p99, 3.0 * p99):
            assert agg.tail(t_ms) == reference.tail(t_ms)


class TestClusterEnvironments:
    def test_all_environments_run(self, results):
        assert set(results) == {"Baseline", "ScaleOut", "ScaleUp",
                                "SmartOClock"}
        for result in results.values():
            assert set(result.per_class) == {"low", "medium", "high"}

    def test_low_load_unaffected_everywhere(self, results):
        """Paper: 'All systems perform equally well under low load.'"""
        p99s = [r.per_class["low"].p99_ms for r in results.values()]
        assert max(p99s) <= min(p99s) * 1.3

    def test_smartoclock_beats_baseline_at_high_load(self, results):
        assert results["SmartOClock"].per_class["high"].p99_ms < \
            results["Baseline"].per_class["high"].p99_ms

    def test_smartoclock_uses_fewer_instances_than_scaleout(self, results):
        smart = results["SmartOClock"].per_class["high"].avg_instances
        scale_out = results["ScaleOut"].per_class["high"].avg_instances
        assert smart <= scale_out

    def test_baseline_never_scales(self, results):
        assert results["Baseline"].scale_outs == 0
        for metrics in results["Baseline"].per_class.values():
            assert metrics.avg_instances == 1.0

    def test_smartoclock_overclocks(self, results):
        assert results["SmartOClock"].overclock_grants > 0
        assert results["Baseline"].overclock_grants == 0

    def test_scaleup_raises_home_server_energy(self, results):
        """Vertical scaling burns more power on the host server."""
        assert results["ScaleUp"].per_class["high"].home_server_energy_j > \
            results["Baseline"].per_class["high"].home_server_energy_j

    def test_ml_throughput_unharmed_without_power_constraint(self, results):
        for result in results.values():
            assert result.ml_throughput == pytest.approx(1000.0, rel=0.02)

    def test_unknown_environment_rejected(self):
        with pytest.raises(ValueError):
            run_environment("Bogus", fast_config())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(class_counts=(("low", 1),))
        with pytest.raises(ValueError):
            ClusterConfig(tick_s=0.0)


class TestProductionServices:
    def test_service_b_util_reduction(self):
        """Fig. 16: overclocking reduces utilization at peak RPS."""
        result = fig16_service_b()
        assert 0.10 <= result.util_reduction_at_peak <= 0.25
        assert result.overclocked_util[-1] < result.baseline_util[-1]

    def test_service_b_iso_util_gain(self):
        """Fig. 16 alternate reading: more RPS at iso-utilization."""
        result = fig16_service_b()
        assert 0.10 <= result.iso_util_rps_gain <= 0.30

    def test_service_b_monotone_in_rps(self):
        result = fig16_service_b()
        assert all(a <= b for a, b in
                   zip(result.baseline_util, result.baseline_util[1:]))

    def test_service_b_validation(self):
        with pytest.raises(ValueError):
            fig16_service_b(peak_rps=0.0)

    def test_service_c_peak_reduction(self):
        """Fig. 17: 5-minute peaks shrink by ~16 %."""
        result = fig17_service_c()
        assert 0.10 <= result.peak_reduction <= 0.25

    def test_service_c_series_consistent(self):
        result = fig17_service_c()
        assert (result.overclocked_util <= result.baseline_util + 1e-12).all()
