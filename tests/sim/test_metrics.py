"""Tests for metric primitives (quantile convention, CDFs, RMSE)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.metrics import Cdf, empirical_quantile, rmse


class TestRmse:
    def test_zero_for_identical(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_known_value(self):
        # errors 3 and 4 -> sqrt((9+16)/2)
        assert rmse([3.0, 4.0], [0.0, 0.0]) == pytest.approx(
            math.sqrt(12.5))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            rmse([1.0], [1.0, 2.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            rmse([], [])


class TestCdf:
    def test_value_at_fraction(self):
        cdf = Cdf(list(range(101)))
        assert cdf.value_at(0.5) == pytest.approx(50.0)
        assert cdf.value_at(0.0) == 0.0
        assert cdf.value_at(1.0) == 100.0

    def test_fraction_below(self):
        cdf = Cdf([1.0, 2.0, 3.0, 4.0])
        assert cdf.fraction_below(2.5) == pytest.approx(0.5)
        assert cdf.fraction_below(0.0) == 0.0
        assert cdf.fraction_below(10.0) == 1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Cdf([])

    def test_series_is_monotone(self):
        cdf = Cdf(np.random.default_rng(0).normal(size=500))
        xs, fs = cdf.series(points=50)
        assert np.all(np.diff(xs) >= 0)
        assert np.all(np.diff(fs) >= 0)
        assert fs[0] == 0.0 and fs[-1] == 1.0

    def test_series_needs_two_points(self):
        cdf = Cdf([1.0, 2.0])
        with pytest.raises(ValueError):
            cdf.series(points=1)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=60))
    @settings(max_examples=50)
    def test_fraction_below_consistent_with_value_at(self, values):
        cdf = Cdf(values)
        v = cdf.value_at(0.5)
        assert cdf.fraction_below(v) >= 0.5 - 1e-9


class TestQuantileConvention:
    """Every quantile implementation in the repo must agree with
    empirical_quantile (numpy inclusive linear interpolation) on the
    same samples — small-sample disagreements between layers would leak
    straight into oversubscription admission decisions."""

    SAMPLES = st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1,
                       max_size=40)
    QS = st.floats(0.0, 1.0)

    @given(SAMPLES, QS)
    @settings(max_examples=100)
    def test_empirical_quantile_is_numpy_linear(self, values, q):
        assert empirical_quantile(values, q) == float(
            np.quantile(np.asarray(values, dtype=float), q))

    @given(SAMPLES, QS)
    @settings(max_examples=100)
    def test_cdf_value_at_agrees(self, values, q):
        assert Cdf(values).value_at(q) == empirical_quantile(values, q)

    @given(SAMPLES, QS)
    @settings(max_examples=50)
    def test_queueing_latencies_agree(self, values, q):
        from repro.workloads.queueing import SimulatedLatencies

        arr = np.asarray(values, dtype=float)
        lat = SimulatedLatencies(latencies=arr, waits=np.zeros_like(arr),
                                 completed=len(values), duration=1.0)
        assert lat.quantile(q) == empirical_quantile(values, q)

    def test_quantile_template_slot_agrees(self):
        # The per-slot aggregation in DailyQuantileTemplate reduces each
        # slot's sample multiset with the same convention.
        from repro.prediction.quantiles import DailyQuantileTemplate

        step, day = 300.0, 86400.0
        times = np.arange(0.0, 5 * day, step)
        rng = np.random.default_rng(11)
        values = 200.0 + rng.normal(0.0, 30.0, size=times.shape)
        template = DailyQuantileTemplate(times, values, q=0.9)
        slots_per_day = int(round(day / step))
        slots = (np.round((times % day) / step).astype(int)) % slots_per_day
        for s in (0, 17, slots_per_day - 1):
            group = values[slots == s]
            assert template.predict(s * step) == \
                empirical_quantile(group, 0.9)

    def test_analytic_quantile_ms_self_consistent(self):
        # The mixture quantile is a distribution quantile: inverting it
        # through the closed-form tail must give back 1 - q.
        from repro.experiments.cluster import LatencyAggregator

        agg = LatencyAggregator()
        agg.add_tick(weight=10.0, offered_rho=0.7, mu=200.0, servers=4,
                     slo_ms=50.0)
        agg.add_tick(weight=5.0, offered_rho=0.9, mu=150.0, servers=4,
                     slo_ms=50.0)
        for q in (0.5, 0.9, 0.99):
            t = agg.quantile_ms(q)
            assert agg.tail(t) == pytest.approx(1.0 - q, abs=1e-6)
