"""Tests for trace schema and synthetic generation."""

import numpy as np
import pytest

from repro.traces.schema import RackTrace, ServerTrace
from repro.traces.synthetic import (
    FleetConfig,
    RackProfile,
    ServerProfile,
    generate_fleet,
    generate_rack,
    generate_server_trace,
    sample_server_profile,
)

WEEK = 7 * 86400.0


def tiny_config(**kwargs):
    defaults = dict(n_racks=2, servers_per_rack_min=4,
                    servers_per_rack_max=6, weeks=1, seed=3)
    defaults.update(kwargs)
    return FleetConfig(**defaults)


def make_trace(n=10, sid="s"):
    times = np.arange(n) * 300.0
    return ServerTrace(sid, times, np.full(n, 200.0), np.full(n, 0.5),
                       np.zeros(n, dtype=int))


class TestSchema:
    def test_interval_inferred(self):
        assert make_trace().interval_s == 300.0

    def test_misaligned_arrays_rejected(self):
        times = np.arange(10) * 300.0
        with pytest.raises(ValueError):
            ServerTrace("s", times, np.zeros(9), np.zeros(10),
                        np.zeros(10, dtype=int))

    def test_utilization_bounds_validated(self):
        times = np.arange(3) * 300.0
        with pytest.raises(ValueError, match="utilization"):
            ServerTrace("s", times, np.zeros(3), np.array([0.1, 1.5, 0.2]),
                        np.zeros(3, dtype=int))

    def test_negative_power_rejected(self):
        times = np.arange(3) * 300.0
        with pytest.raises(ValueError, match="power"):
            ServerTrace("s", times, np.array([1.0, -1.0, 1.0]),
                        np.zeros(3), np.zeros(3, dtype=int))

    def test_window_selects_half_open_interval(self):
        trace = make_trace(10)
        window = trace.window(300.0, 1200.0)
        assert window.n_samples == 3
        assert window.times[0] == 300.0

    def test_window_too_small_rejected(self):
        with pytest.raises(ValueError):
            make_trace(10).window(0.0, 100.0)

    def test_rack_totals(self):
        rack = RackTrace("r", 1000.0, [make_trace(5, "a"),
                                       make_trace(5, "b")])
        assert np.allclose(rack.total_power(), 400.0)
        assert np.allclose(rack.utilization_series(), 0.4)

    def test_rack_requires_aligned_servers(self):
        with pytest.raises(ValueError, match="aligned"):
            RackTrace("r", 1000.0, [make_trace(5), make_trace(6)])

    def test_rack_requires_servers(self):
        with pytest.raises(ValueError):
            RackTrace("r", 1000.0, [])


class TestSyntheticGeneration:
    def test_fleet_is_deterministic(self):
        a = generate_fleet(tiny_config())
        b = generate_fleet(tiny_config())
        assert np.array_equal(a.racks[0].servers[0].power_watts,
                              b.racks[0].servers[0].power_watts)

    def test_different_seed_differs(self):
        a = generate_fleet(tiny_config(seed=1))
        b = generate_fleet(tiny_config(seed=2))
        assert not np.array_equal(a.racks[0].servers[0].power_watts,
                                  b.racks[0].servers[0].power_watts)

    def test_rack_sizes_within_bounds(self):
        fleet = generate_fleet(tiny_config())
        for rack in fleet.racks:
            assert 4 <= len(rack.servers) <= 6

    def test_limit_set_by_target_p99(self):
        config = tiny_config()
        rng = np.random.default_rng(0)
        rack = generate_rack("r", config,
                             RackProfile(target_p99_utilization=0.8), rng)
        p99 = float(np.percentile(rack.total_power(), 99))
        assert p99 / rack.power_limit_watts == pytest.approx(0.8, rel=1e-6)

    def test_ml_servers_have_no_oc_demand(self):
        config = tiny_config(ml_fraction=1.0)
        fleet = generate_fleet(config)
        for rack in fleet.racks:
            for server in rack.servers:
                assert int(server.oc_cores.max()) == 0

    def test_lc_servers_have_oc_demand_on_weekdays(self):
        config = tiny_config(ml_fraction=0.0, weeks=1)
        fleet = generate_fleet(config)
        any_demand = any(int(s.oc_cores.max()) > 0
                         for r in fleet.racks for s in r.servers)
        assert any_demand

    def test_no_weekend_oc_demand(self):
        config = tiny_config(ml_fraction=0.0)
        fleet = generate_fleet(config)
        for rack in fleet.racks:
            weekend = (rack.times // 86400.0).astype(int) % 7 >= 5
            for server in rack.servers:
                assert int(server.oc_cores[weekend].max()) == 0

    def test_diurnal_repeatability(self):
        """Weekday power is correlated day-over-day (the predictability
        §III Q3 depends on)."""
        config = tiny_config(noise_sigma=0.01, outlier_day_prob=0.0,
                             weekly_drift_sigma=0.0, peak_hour_drift_h=0.0)
        fleet = generate_fleet(config)
        rack = fleet.racks[0]
        day = int(86400.0 / 300.0)
        power = rack.total_power()
        monday, tuesday = power[:day], power[day:2 * day]
        corr = float(np.corrcoef(monday, tuesday)[0, 1])
        assert corr > 0.95

    def test_weekly_drift_decorrelates_servers_not_rack(self):
        """§III Q3: rack power stays more predictable than server power."""
        config = tiny_config(weeks=2, n_racks=1, servers_per_rack_min=16,
                             servers_per_rack_max=16, noise_sigma=0.0,
                             outlier_day_prob=0.0, peak_hour_drift_h=0.0,
                             weekly_drift_sigma=0.15, ml_fraction=0.0)
        fleet = generate_fleet(config)
        rack = fleet.racks[0]
        half = rack.n_samples // 2

        def week_error(series):
            return float(np.mean(np.abs(series[half:] - series[:half]))
                         / np.mean(series))

        rack_err = week_error(rack.total_power())
        server_errs = [week_error(s.power_watts) for s in rack.servers]
        assert rack_err < np.mean(server_errs)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            ServerProfile("bogus", 0.5, 0.1, 12.0, 0.5, 0.0, 4, 0.7)
        with pytest.raises(ValueError):
            ServerProfile("diurnal", 0.2, 0.5, 12.0, 0.5, 0.0, 4, 0.7)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(n_racks=0)
        with pytest.raises(ValueError):
            FleetConfig(weeks=0)
        with pytest.raises(ValueError):
            FleetConfig(ml_fraction=2.0)

    def test_sample_profile_ml_forced(self):
        rng = np.random.default_rng(0)
        profile = sample_server_profile(rng, tiny_config(), force_ml=True)
        assert profile.archetype == "ml"
        assert profile.oc_cores == 0
