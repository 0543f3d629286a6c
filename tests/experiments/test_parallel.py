"""Parallel sweep harness: sharded runs must be byte-identical to serial.

The process-pool tests here spawn real worker processes (the ``spawn``
start method — the same code path the CI perf smoke job uses), so they
are kept small: two racks, two policies, coarse telemetry.
"""

import os

import numpy as np
import pytest

from repro.core.policies import make_policy
from repro.experiments.largescale import (
    PolicyAccumulator,
    compare_policies_streaming,
    format_table1,
    simulate_rack,
    table1_streaming,
)
from repro.experiments.parallel import (
    RackSpec,
    iter_rack_policy_results,
    resolve_workers,
    run_jobs,
)
from repro.traces.synthetic import (
    FleetConfig,
    generate_fleet,
    generate_fleet_rack,
)

SMALL_CONFIG = FleetConfig(n_racks=2, weeks=2, seed=21, interval_s=900.0,
                           servers_per_rack_min=5, servers_per_rack_max=5,
                           p99_util_beta=(2.0, 2.0),
                           p99_util_range=(0.85, 0.95))
SMALL_SPECS = [RackSpec(config=SMALL_CONFIG, rack_index=i)
               for i in range(SMALL_CONFIG.n_racks)]


@pytest.fixture(scope="module")
def small_fleet():
    return generate_fleet(SMALL_CONFIG)


def sweep(specs, names, **kwargs):
    """The sweep's stream as a list of (rack_slot, policy, result)."""
    return list(iter_rack_policy_results(specs, names, **kwargs))


def driver_results(fleet, names):
    """The oracle: every policy simulated in the driver over the
    driver-materialized racks, in rack-major order."""
    return [(rack_slot, name,
             simulate_rack(rack, make_policy(name, len(rack.servers))))
            for rack_slot, rack in enumerate(fleet.racks)
            for name in names]


class TestResolveWorkers:
    def test_none_uses_cpu_count(self):
        assert resolve_workers(None) >= 1

    def test_explicit_passthrough(self):
        assert resolve_workers(3) == 3

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(0)

    def test_none_prefers_affinity_over_cpu_count(self, monkeypatch):
        """cgroup/cpuset-limited CI: the affinity mask (2 usable CPUs)
        must win over the host-wide cpu_count (8)."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_workers(None) == 2

    def test_none_falls_back_to_cpu_count(self, monkeypatch):
        """Platforms without sched_getaffinity use cpu_count."""
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert resolve_workers(None) == 6

    def test_oserror_falls_back_to_cpu_count(self, monkeypatch):
        def boom(pid):
            raise OSError("no affinity")
        monkeypatch.setattr(os, "sched_getaffinity", boom, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert resolve_workers(None) == 5


class TestSerialSharding:
    def test_results_keyed_by_rack_and_policy(self, small_fleet):
        results = sweep(SMALL_SPECS, ("Central", "SmartOClock"), workers=1)
        assert [(slot, name) for slot, name, _ in results] == [
            (0, "Central"), (0, "SmartOClock"),
            (1, "Central"), (1, "SmartOClock")]
        for rack_slot, _name, result in results:
            assert result.rack_id == small_fleet.racks[rack_slot].rack_id

    def test_bad_inflight_rejected(self):
        with pytest.raises(ValueError, match="max_inflight"):
            sweep(SMALL_SPECS, ("Central",), workers=2, max_inflight=0)


class TestInflightWindow:
    """The driver reads payloads lazily: ``max_inflight`` bounds what it
    has read, whatever the completion order, so a slow head job must not
    let later jobs pile up."""

    def test_serial_path_reads_payloads_lazily(self):
        read = []

        def payloads():
            for x in range(5):
                read.append(x)
                yield x

        stream = run_jobs(abs, payloads(), workers=1)
        assert next(stream) == 0
        assert read == [0]

    def test_slow_head_reads_no_more_than_the_window(self):
        head = FleetConfig(n_racks=1, weeks=3, seed=3,
                           servers_per_rack_min=40, servers_per_rack_max=40,
                           p99_util_beta=(2.0, 2.0),
                           p99_util_range=(0.88, 0.96))
        tiny = FleetConfig(n_racks=40, weeks=2, seed=4, interval_s=1800.0,
                           servers_per_rack_min=3, servers_per_rack_max=3)
        read = 0

        def specs():
            nonlocal read
            for config in (head, tiny):
                for i in range(config.n_racks):
                    read += 1
                    yield RackSpec(config=config, rack_index=i)

        stream = iter_rack_policy_results(specs(), ("SmartOClock",),
                                          workers=2, max_inflight=2)
        try:
            rack_slot, _name, _result = next(stream)
            assert rack_slot == 0
            assert read <= 2
        finally:
            stream.close()


class TestProcessPoolByteIdentity:
    """workers=N must reproduce workers=1 exactly — same counters, same
    floats, same rendered table — regardless of completion order."""

    def test_jobs_identical(self):
        names = ("Central", "SmartOClock")
        serial = sweep(SMALL_SPECS, names, workers=1)
        pooled = sweep(SMALL_SPECS, names, workers=2, max_inflight=2)
        assert pooled == serial

    def test_compare_policies_identical(self):
        names = ("NoWarning", "SmartOClock")
        serial = compare_policies_streaming(SMALL_CONFIG, names, workers=1)
        pooled = compare_policies_streaming(SMALL_CONFIG, names, workers=2)
        assert pooled == serial

    def test_table1_rendering_identical(self):
        configs = {"Tiny": SMALL_CONFIG}
        serial = table1_streaming(configs, workers=1)
        pooled = table1_streaming(configs, workers=2)
        assert pooled == serial
        assert format_table1(pooled) == format_table1(serial)


def assert_rack_traces_equal(a, b):
    assert a.rack_id == b.rack_id
    assert a.region == b.region
    assert a.power_limit_watts == b.power_limit_watts
    assert len(a.servers) == len(b.servers)
    for sa, sb in zip(a.servers, b.servers):
        assert sa.server_id == sb.server_id
        assert np.array_equal(sa.times, sb.times)
        assert np.array_equal(sa.power_watts, sb.power_watts)
        assert np.array_equal(sa.utilization, sb.utilization)
        assert np.array_equal(sa.oc_cores, sb.oc_cores)


class TestSeedShardedIdentity:
    """The seed-sharding contract: a rack regenerated from
    ``(fleet_seed, rack_index)`` is byte-identical to the rack the
    driver produced inside ``generate_fleet`` — and therefore so is
    every simulation result computed from it, wherever it ran."""

    def test_spec_materializes_driver_rack(self, small_fleet):
        for i, rack in enumerate(small_fleet.racks):
            spec = RackSpec(config=SMALL_CONFIG, rack_index=i)
            assert_rack_traces_equal(spec.materialize(), rack)

    def test_rack_independent_of_fleet_size(self):
        """Rack i's stream must not depend on how many siblings were
        generated before it (the old sequential-rng coupling)."""
        grown = FleetConfig(n_racks=4, weeks=2, seed=21, interval_s=900.0,
                            servers_per_rack_min=5, servers_per_rack_max=5,
                            p99_util_beta=(2.0, 2.0),
                            p99_util_range=(0.85, 0.95))
        assert_rack_traces_equal(generate_fleet_rack(grown, 1),
                                 generate_fleet_rack(SMALL_CONFIG, 1))

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError, match="outside fleet"):
            generate_fleet_rack(SMALL_CONFIG, SMALL_CONFIG.n_racks)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("max_inflight", [1, None])
    def test_worker_expansion_matches_driver(self, small_fleet, workers,
                                             max_inflight):
        """Property test of the seed-sharding contract: sweeping
        RackSpecs (each job expands its trace locally) equals simulating
        the driver-materialized racks, for every (workers, max_inflight)
        combination."""
        names = ("Central", "SmartOClock")
        from_specs = sweep(SMALL_SPECS, names, workers=workers,
                           max_inflight=max_inflight)
        assert from_specs == driver_results(small_fleet, names)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_streaming_scores_identical(self, small_fleet, workers):
        """The online merge folds in submission-slot order: streaming
        scores are byte-identical to summing the driver's results in
        rack order."""
        names = ("NoWarning", "SmartOClock")
        accs = {name: PolicyAccumulator(policy=name) for name in names}
        for _slot, name, result in driver_results(small_fleet, names):
            accs[name].add(result)
        expected = {name: acc.score(None) for name, acc in accs.items()}
        streamed = compare_policies_streaming(SMALL_CONFIG, names,
                                              workers=workers,
                                              max_inflight=3)
        assert streamed == expected


class TestFailFast:
    """A worker exception must surface promptly and cancel queued jobs
    instead of letting the rest of the grid run to completion."""

    def test_serial_path_raises(self):
        with pytest.raises(KeyError, match="Bogus"):
            sweep(SMALL_SPECS, ("Central", "Bogus"), workers=1)

    def test_pool_poisoned_policy_raises(self):
        """Poisoned policy on a multi-rack grid: the sweep dies on the
        first failed job, with queued work cancelled (the sweep would
        take many times longer if the remaining grid ran out)."""
        config = FleetConfig(n_racks=6, weeks=2, seed=7, interval_s=1800.0,
                             servers_per_rack_min=3, servers_per_rack_max=3)
        specs = [RackSpec(config=config, rack_index=i)
                 for i in range(config.n_racks)]
        with pytest.raises(KeyError, match="Bogus"):
            sweep(specs, ("Bogus", "Central"), workers=2, max_inflight=2)

    def test_generator_raises_before_later_slots(self):
        """Consuming the stream: the error arrives as soon as its slot
        would, not after the whole grid."""
        config = FleetConfig(n_racks=4, weeks=2, seed=7, interval_s=1800.0,
                             servers_per_rack_min=3, servers_per_rack_max=3)
        specs = [RackSpec(config=config, rack_index=i)
                 for i in range(config.n_racks)]
        seen = []
        with pytest.raises(KeyError, match="Bogus"):
            for rack_slot, name, _result in iter_rack_policy_results(
                    specs, ("Central", "Bogus"), workers=2,
                    max_inflight=2):
                seen.append((rack_slot, name))
        # Slot order means nothing after the poisoned slot was emitted.
        assert all(name == "Central" for _slot, name in seen)
