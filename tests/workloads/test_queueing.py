"""Tests for the queueing models, including analytic-vs-simulation
cross-validation (the two implementations must agree)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.queueing import (
    MMcQueue,
    OverloadedQueueError,
    QueueSimulator,
    frequency_speedup,
    simulate_mgc,
)
from tests.workloads.latency_oracle import ReferenceMMcQueue


class TestFrequencySpeedup:
    def test_fully_core_bound(self):
        assert frequency_speedup(4.0, 3.3, 1.0) == pytest.approx(4.0 / 3.3)

    def test_fully_memory_bound(self):
        assert frequency_speedup(4.0, 3.3, 0.0) == pytest.approx(1.0)

    def test_partial_sensitivity_between(self):
        s = frequency_speedup(4.0, 3.3, 0.5)
        assert 1.0 < s < 4.0 / 3.3

    def test_identity_at_base(self):
        assert frequency_speedup(3.3, 3.3, 0.7) == pytest.approx(1.0)

    def test_slowdown_below_base(self):
        assert frequency_speedup(2.45, 3.3, 1.0) < 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            frequency_speedup(0.0, 3.3)
        with pytest.raises(ValueError):
            frequency_speedup(3.3, 3.3, 1.5)

    @given(st.floats(0.1, 1.0), st.floats(2.0, 5.0))
    def test_monotone_in_frequency(self, sens, freq):
        assert frequency_speedup(freq + 0.5, 3.3, sens) >= \
            frequency_speedup(freq, 3.3, sens)


class TestMMcClosedForm:
    def test_mm1_mean_response(self):
        """M/M/1: E[T] = 1 / (mu - lambda)."""
        queue = MMcQueue(arrival_rate=0.5, service_rate=1.0, servers=1)
        assert queue.mean_response() == pytest.approx(2.0)

    def test_mm1_erlang_c_is_rho(self):
        queue = MMcQueue(arrival_rate=0.7, service_rate=1.0, servers=1)
        assert queue.erlang_c() == pytest.approx(0.7)

    def test_mm1_p99(self):
        """M/M/1 response time is Exp(mu - lambda)."""
        queue = MMcQueue(arrival_rate=0.5, service_rate=1.0, servers=1)
        assert queue.p99_response() == pytest.approx(
            math.log(100) / 0.5, rel=1e-6)

    def test_zero_arrivals(self):
        queue = MMcQueue(0.0, 1.0, 4)
        assert queue.erlang_c() == 0.0
        assert queue.mean_wait() == 0.0
        assert queue.mean_response() == pytest.approx(1.0)

    def test_unstable_raises(self):
        queue = MMcQueue(arrival_rate=2.0, service_rate=1.0, servers=1)
        assert not queue.stable
        with pytest.raises(OverloadedQueueError):
            queue.mean_response()
        with pytest.raises(OverloadedQueueError):
            queue.p99_response()

    def test_tail_monotone_decreasing(self):
        queue = MMcQueue(3.0, 1.0, 4)
        ts = np.linspace(0, 10, 50)
        tails = [queue.response_tail(float(t)) for t in ts]
        assert all(a >= b - 1e-12 for a, b in zip(tails, tails[1:]))

    def test_tail_at_zero_is_one(self):
        queue = MMcQueue(3.0, 1.0, 4)
        assert queue.response_tail(0.0) == pytest.approx(1.0)

    def test_tail_negative_time(self):
        assert MMcQueue(1.0, 1.0, 2).response_tail(-1.0) == 1.0

    def test_quantile_inverts_tail(self):
        queue = MMcQueue(3.0, 1.0, 4)
        t95 = queue.response_quantile(0.95)
        assert queue.response_tail(t95) == pytest.approx(0.05, abs=1e-6)

    def test_quantile_bounds(self):
        queue = MMcQueue(1.0, 1.0, 2)
        with pytest.raises(ValueError):
            queue.response_quantile(0.0)
        with pytest.raises(ValueError):
            queue.response_quantile(1.0)

    def test_economy_of_scale(self):
        """More servers at the same per-server load → lower tail (the
        Usr-vs-UrlShort effect of §III Q1)."""
        small = MMcQueue(0.7, 1.0, 1)
        big = MMcQueue(0.7 * 16, 1.0, 16)
        assert big.p99_response() < small.p99_response()

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            MMcQueue(-1.0, 1.0, 1)
        with pytest.raises(ValueError):
            MMcQueue(1.0, 0.0, 1)
        with pytest.raises(ValueError):
            MMcQueue(1.0, 1.0, 0)

    def test_degenerate_rate_case(self):
        """theta == mu needs the special-case branch: c*mu - lam = mu."""
        queue = MMcQueue(arrival_rate=1.0, service_rate=1.0, servers=2)
        # Just exercise it and sanity-check monotonicity.
        assert 0.0 < queue.response_tail(1.0) < 1.0
        assert queue.response_quantile(0.99) > 0

    @given(st.floats(0.05, 0.95), st.integers(1, 8))
    @settings(max_examples=40)
    def test_mean_response_at_least_service_time(self, rho, c):
        queue = MMcQueue(rho * c, 1.0, c)
        assert queue.mean_response() >= 1.0 - 1e-9


class TestPrecomputedStation:
    """The immutable station returns exactly — ``==``, not approx — what
    the per-call formulas return (``latency_oracle.ReferenceMMcQueue``)."""

    @staticmethod
    def assert_matches_reference(lam, mu, c, ts):
        station = MMcQueue(lam, mu, c)
        reference = ReferenceMMcQueue(lam, mu, c)
        assert station.utilization == reference.utilization
        assert station.stable is reference.stable
        assert station.erlang_c() == reference.erlang_c()
        assert station.mean_wait() == reference.mean_wait()
        assert station.mean_response() == reference.mean_response()
        assert station.response_quantile(0.99) \
            == reference.response_quantile(0.99)
        for t in ts:
            assert station.response_tail(t) == reference.response_tail(t)

    @given(st.floats(0.0, 0.999, exclude_min=True),
           st.floats(0.5, 5000.0), st.integers(1, 16),
           st.lists(st.floats(0.0, 40.0), min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_call_formulas(self, rho, mu, c, service_times):
        # t spans 0 to 40 mean service times: the body and deep tail.
        self.assert_matches_reference(rho * c * mu, mu, c,
                                      [x / mu for x in service_times])

    @pytest.mark.parametrize("lam,mu,c", [
        (1.0, 1.0, 2),            # θ = 2·1 - 1 = μ
        (500.0, 250.0, 3),        # θ = 750 - 500 = μ
        (15 * 3.75, 3.75, 16)])   # θ = 60 - 56.25 = μ
    def test_degenerate_rates(self, lam, mu, c):
        assert MMcQueue(lam, mu, c)._degenerate
        self.assert_matches_reference(lam, mu, c, [0.0, 0.3, 1.0, 7.5])

    @pytest.mark.parametrize("lam,mu,c", [(0.0, 1.0, 4), (0.0, 300.0, 1),
                                          (3.0, 1.0, 4)])
    def test_zero_arrivals_and_edge_times(self, lam, mu, c):
        self.assert_matches_reference(lam, mu, c,
                                      [-1.0, -1e-300, 0.0, 1e-300, 2.0])

    @pytest.mark.parametrize("lam", [4.0, 5.0, 40.0])
    def test_unstable_station_constructs_and_raises(self, lam):
        queue = MMcQueue(lam, 1.0, 4)  # ρ = λ/4 >= 1
        assert not queue.stable
        assert queue.utilization == ReferenceMMcQueue(lam, 1.0, 4).utilization
        assert queue.erlang_c() == 1.0
        for query in (queue.mean_wait, queue.mean_response,
                      queue.p99_response, lambda: queue.response_tail(1.0),
                      lambda: queue.response_quantile(0.5)):
            with pytest.raises(OverloadedQueueError):
                query()

    @pytest.mark.parametrize("name", [
        "arrival_rate", "service_rate", "servers", "utilization", "stable",
        "_pw", "_pw_theta", "_degenerate", "not_an_attribute"])
    def test_writes_raise(self, name):
        queue = MMcQueue(3.0, 1.0, 4)
        before = queue.response_tail(1.0)
        with pytest.raises(AttributeError):
            setattr(queue, name, 0.5)
        with pytest.raises(AttributeError):
            delattr(queue, name)
        assert queue.response_tail(1.0) == before


class TestSimulationAgreement:
    """Closed form vs request-level simulation — both must tell the same
    story (this is our substitute for 'validating the model')."""

    @pytest.mark.parametrize("rho,c", [(0.5, 1), (0.8, 4), (0.6, 8)])
    def test_mean_matches(self, rho, c):
        queue = MMcQueue(rho * c, 1.0, c)
        sim = simulate_mgc(rho * c, 1.0, c, n_requests=120000, seed=7)
        assert sim.mean() == pytest.approx(queue.mean_response(), rel=0.06)

    @pytest.mark.parametrize("rho,c", [(0.5, 1), (0.8, 4)])
    def test_p99_matches(self, rho, c):
        queue = MMcQueue(rho * c, 1.0, c)
        sim = simulate_mgc(rho * c, 1.0, c, n_requests=120000, seed=11)
        assert sim.p99() == pytest.approx(queue.p99_response(), rel=0.12)

    def test_heavier_tail_with_high_cv(self):
        """Lognormal service with cv>1 produces a worse tail than M/M/c."""
        exp_sim = simulate_mgc(0.7, 1.0, 1, n_requests=60000, cv=1.0,
                               seed=3)
        heavy = simulate_mgc(0.7, 1.0, 1, n_requests=60000, cv=3.0, seed=3)
        assert heavy.p99() > exp_sim.p99()


class TestQueueSimulator:
    def test_deterministic_with_seed(self):
        a = simulate_mgc(1.0, 2.0, 1, n_requests=500, seed=42)
        b = simulate_mgc(1.0, 2.0, 1, n_requests=500, seed=42)
        assert np.array_equal(a.latencies, b.latencies)

    def test_latency_at_least_service(self):
        sim = simulate_mgc(1.0, 2.0, 2, n_requests=2000, seed=1)
        assert np.all(sim.latencies >= sim.waits)
        assert np.all(sim.waits >= 0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            QueueSimulator(0.0, 1.0, 1, seed=0)
        with pytest.raises(ValueError):
            QueueSimulator(1.0, 1.0, 1, cv=0.0, seed=0)
        with pytest.raises(ValueError):
            QueueSimulator(1.0, 1.0, 1, seed=0).run(0)

    def test_randomness_must_be_explicit(self):
        """Omitting both rng and seed is an error: the old hidden
        default seed silently correlated independent stations."""
        with pytest.raises(ValueError, match="explicit rng= or seed="):
            QueueSimulator(1.0, 1.0, 1)
        with pytest.raises(ValueError, match="not both"):
            QueueSimulator(1.0, 1.0, 1, seed=1,
                           rng=np.random.default_rng(1))

    def test_seed_equivalent_to_generator(self):
        by_seed = QueueSimulator(1.0, 2.0, 2, seed=9).run(200)
        by_rng = QueueSimulator(1.0, 2.0, 2,
                                rng=np.random.default_rng(9)).run(200)
        assert np.array_equal(by_seed.latencies, by_rng.latencies)

    def test_distinct_seeds_decorrelate_stations(self):
        a = QueueSimulator(1.0, 2.0, 1, seed=1).run(200)
        b = QueueSimulator(1.0, 2.0, 1, seed=2).run(200)
        assert not np.array_equal(a.latencies, b.latencies)

    def test_quantile_api(self):
        sim = simulate_mgc(1.0, 2.0, 1, n_requests=5000, seed=1)
        assert sim.quantile(0.5) <= sim.quantile(0.99)
