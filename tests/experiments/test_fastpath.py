"""The vectorized fast path must be *bit-identical* to the scalar
reference: every counter of :class:`RackSimResult`, including the float
accumulators, compares equal with ``==`` (no tolerance)."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import make_policy
from repro.experiments.largescale import (
    SECONDS_PER_WEEK,
    TABLE1_POLICIES,
    RackFrame,
    cluster_class_fleet_configs,
    simulate_rack,
    simulate_rack_reference,
)
from repro.traces.synthetic import (
    FleetConfig,
    generate_fleet,
    generate_fleet_rack,
)

#: Coarser telemetry than the paper's 5-minute default keeps the
#: property-test sims small without changing any code path.
FAST_INTERVAL_S = 900.0


def make_rack(seed, *, weeks=2, servers=6, interval_s=FAST_INTERVAL_S,
              p99_range=(0.80, 0.96)):
    config = FleetConfig(n_racks=1, weeks=weeks, seed=seed,
                         interval_s=interval_s,
                         servers_per_rack_min=servers,
                         servers_per_rack_max=servers,
                         p99_util_beta=(2.0, 2.0),
                         p99_util_range=p99_range)
    return generate_fleet(config).racks[0]


def assert_accounting_consistent(result):
    """The trace path's accounting rules, whichever engine produced
    ``result``."""
    assert result.granted_core_ticks <= result.demanded_core_ticks
    assert result.successful_core_ticks \
        <= result.granted_core_ticks * (1 + 1e-12)
    assert result.stranded_watt_ticks >= 0
    assert result.osub_cap_events <= result.cap_events


def assert_bit_identical(fast, reference):
    assert_accounting_consistent(fast)
    assert_accounting_consistent(reference)
    a = dataclasses.asdict(fast)
    b = dataclasses.asdict(reference)
    # Plain == on every field: ints exactly, floats bitwise (the fast
    # path accumulates per-tick contributions in scalar order).
    assert a == b, {k: (a[k], b[k]) for k in a if a[k] != b[k]}


def production_frame(power_class):
    """One rack of a Table-I power class at the production shape: 28
    servers, the paper's 300 s ticks, three weeks."""
    config = cluster_class_fleet_configs(n_racks=1, weeks=3,
                                         seed=5)[power_class]
    config = dataclasses.replace(config, servers_per_rack_min=28,
                                 servers_per_rack_max=28)
    return RackFrame(generate_fleet_rack(config, 0))


@pytest.fixture(scope="class",
                params=["High-Power", "Medium-Power", "Low-Power"])
def production_rack(request):
    return production_frame(request.param)


class TestBitIdentical:
    @pytest.mark.parametrize("policy_name", TABLE1_POLICIES)
    def test_all_policies_high_power_rack(self, policy_name):
        rack = make_rack(17, p99_range=(0.88, 0.96))
        fast = simulate_rack(rack, make_policy(policy_name,
                                               len(rack.servers)))
        ref = simulate_rack_reference(
            rack, make_policy(policy_name, len(rack.servers)))
        # A rack that never caps or warns would not exercise the
        # fallback; the seed above produces warning/cap traffic for
        # every overclocking policy.
        assert ref.cap_events > 0 or ref.warnings > 0 \
            or policy_name == "Central"
        assert_bit_identical(fast, ref)

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           servers=st.integers(min_value=3, max_value=8),
           policy_name=st.sampled_from(TABLE1_POLICIES),
           low=st.floats(min_value=0.5, max_value=0.9))
    def test_randomized_fleets(self, seed, servers, policy_name, low):
        rack = make_rack(seed, servers=servers, p99_range=(low, 0.97))
        fast = simulate_rack(rack, make_policy(policy_name,
                                               len(rack.servers)))
        ref = simulate_rack_reference(
            rack, make_policy(policy_name, len(rack.servers)))
        assert_bit_identical(fast, ref)

    @pytest.mark.parametrize("policy_name", TABLE1_POLICIES
                             + ("SmartOClock+OSub:aggressive",))
    def test_production_shape(self, production_rack, policy_name):
        frame = production_rack
        assert (frame.n_servers, frame.weeks) == (28, 3)
        fast = simulate_rack(frame, make_policy(policy_name, 28))
        ref = simulate_rack_reference(frame, make_policy(policy_name, 28))
        assert_bit_identical(fast, ref)


class TestWeeksRounding:
    """Trace length is derived with ceil division over ``ticks_per_week``:
    a trace one tick short of (or past) a whole number of weeks must not
    silently drop — or reject — the partial evaluation window."""

    def ticks_per_week(self):
        return int(round(SECONDS_PER_WEEK / FAST_INTERVAL_S))

    def test_one_tick_short_of_two_weeks_accepted(self):
        tpw = self.ticks_per_week()
        rack = make_rack(5).window(0.0, (2 * tpw - 1) * FAST_INTERVAL_S)
        assert rack.n_samples == 2 * tpw - 1
        result = simulate_rack(rack, make_policy("SmartOClock",
                                                 len(rack.servers)))
        # First (full) week is history; the partial second week is
        # evaluated tick for tick.
        assert result.ticks == tpw - 1

    def test_one_tick_past_two_weeks_evaluated(self):
        tpw = self.ticks_per_week()
        rack = make_rack(5, weeks=3).window(
            0.0, (2 * tpw + 1) * FAST_INTERVAL_S)
        assert rack.n_samples == 2 * tpw + 1
        result = simulate_rack(rack, make_policy("SmartOClock",
                                                 len(rack.servers)))
        assert result.ticks == tpw + 1

    def test_partial_week_fast_matches_reference(self):
        tpw = self.ticks_per_week()
        rack = make_rack(11, weeks=3, p99_range=(0.88, 0.96)).window(
            0.0, (2 * tpw + 7) * FAST_INTERVAL_S)
        fast = simulate_rack(rack, make_policy("NoWarning",
                                               len(rack.servers)))
        ref = simulate_rack_reference(rack, make_policy("NoWarning",
                                                        len(rack.servers)))
        assert_bit_identical(fast, ref)

    def test_single_week_still_rejected(self):
        tpw = self.ticks_per_week()
        rack = make_rack(5).window(0.0, tpw * FAST_INTERVAL_S)
        assert rack.n_samples == tpw
        with pytest.raises(ValueError, match="2 weeks"):
            simulate_rack(rack, make_policy("Central", len(rack.servers)))
