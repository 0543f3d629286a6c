"""One :class:`RackFrame` shared by all six Table-I policies must score
each policy exactly as a fresh trace through the scalar reference does,
and must hand every policy the same memoized week."""

import dataclasses

import numpy as np
import pytest

from repro.core.policies import WeekHistory, make_policy
from repro.experiments.largescale import (
    TABLE1_POLICIES,
    RackFrame,
    simulate_rack,
    simulate_rack_reference,
)
from repro.traces.synthetic import FleetConfig, generate_fleet


def make_rack(seed, *, weeks=3, servers=6, p99_range=(0.86, 0.96)):
    config = FleetConfig(n_racks=1, weeks=weeks, seed=seed, interval_s=900.0,
                         servers_per_rack_min=servers,
                         servers_per_rack_max=servers,
                         p99_util_beta=(2.0, 2.0), p99_util_range=p99_range)
    return generate_fleet(config).racks[0]


@pytest.mark.parametrize("seed", [17, 23])
@pytest.mark.parametrize("fast", [True, False])
def test_shared_frame_matches_fresh_reference(seed, fast):
    # fast: the vectorized engine shares the frame; otherwise the scalar
    # reference does.
    simulate = simulate_rack if fast else simulate_rack_reference
    rack = make_rack(seed)
    frame = RackFrame(rack)
    shared = {name: simulate(frame, make_policy(name, frame.n_servers))
              for name in TABLE1_POLICIES}
    for name in TABLE1_POLICIES:
        fresh = simulate_rack_reference(
            rack, make_policy(name, len(rack.servers)))
        assert dataclasses.asdict(shared[name]) == dataclasses.asdict(fresh)


def test_policies_share_each_week():
    frame = RackFrame(make_rack(5))
    assert frame.weeks == 3
    assert frame.history(2) is frame.history(2)
    assert frame.history(1) is not frame.history(2)
    a, b = (make_policy(name, frame.n_servers)
            for name in ("NoFeedback", "SmartOClock"))
    simulate_rack(frame, a)
    templates, budgets = a._templates, a._budgets
    simulate_rack(frame, b)
    # The last evaluated week's fit and split are the same objects.
    assert b._templates is templates
    assert b._budgets is budgets
    assert not budgets.flags.writeable


def test_frame_rejects_mismatched_policy_and_short_trace():
    rack = make_rack(3, weeks=2)
    frame = RackFrame(rack)
    with pytest.raises(ValueError, match="sized for"):
        simulate_rack(frame, make_policy("Central", frame.n_servers + 1))
    tpw = frame.ticks_per_week
    with pytest.raises(ValueError, match="2 weeks"):
        RackFrame(rack.window(0.0, tpw * 900.0))


def test_demand_template_is_per_slot_max():
    rng = np.random.default_rng(2)
    times = np.arange(0.0, 7 * 86400.0, 300.0)
    demand = rng.integers(0, 9, size=(4, len(times)))
    demand[:, 5] = 0
    history = WeekHistory(times, np.ones((4, len(times))), demand, 1000.0)
    for slot_s in (300.0, 900.0, 3600.0):
        n_slots = int(round(7 * 86400.0 / slot_s))
        slots = ((times % (7 * 86400.0)) // slot_s).astype(int) % n_slots
        expected = np.zeros((4, n_slots))
        np.maximum.at(expected, (np.arange(4)[:, None], slots[None, :]),
                      demand)
        table = history.demand_template(slot_s)
        assert np.array_equal(table, expected)
        assert table is history.demand_template(slot_s)
