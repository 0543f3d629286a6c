"""Macro-benchmark: vectorized Table-I sweep vs the scalar reference.

The scalar oracle (``simulate_rack_reference``) walks the trace one
5-minute tick at a time; the vectorized engine (``simulate_rack``) plans
week/segment-sized NumPy blocks and falls back to scalar ticks only
around warnings/caps.  Both are *bit-identical* (see
tests/experiments/test_fastpath.py), so this benchmark runs the same
(rack, policy) grid three ways — the serial sweep, the scalar oracle
over the same rack specs, and the sweep through a 2-worker pool —
asserts that every (rack, policy) result agrees exactly, and records the
speedup.  Each timed side expands its racks from their specs and fits
their weeks itself.

The CI gate is 3x (shared runners are noisy); quiet machines record
4-6x depending on load (the sweep includes SmartOClock+OSub, whose
admitted headroom raises cap counts on the high-power class — cap
ticks are the scalar-fallback path).
"""

import time

from repro.core.policies import make_policy
from repro.experiments.largescale import (
    TABLE1_POLICIES,
    RackFrame,
    cluster_class_fleet_configs,
    simulate_rack_reference,
)
from repro.experiments.parallel import RackSpec, iter_rack_policy_results

#: Same generator/seed family as the shared ``table1_results`` CI fleet,
#: at a third of the racks: the scalar reference is what's being timed,
#: and 18 racks of it would dominate the whole benchmark session.
N_RACKS = 2
WEEKS = 3
SEED = 1


def reference_sweep(specs):
    """The scalar oracle over the sweep's grid, in the sweep's order."""
    results = []
    for rack_slot, spec in enumerate(specs):
        frame = RackFrame(spec.materialize())
        for name in TABLE1_POLICIES:
            results.append((rack_slot, name, simulate_rack_reference(
                frame, make_policy(name, frame.n_servers))))
    return results


def test_vectorized_sweep_speedup(record_result):
    configs = cluster_class_fleet_configs(n_racks=N_RACKS, weeks=WEEKS,
                                          seed=SEED)
    specs = [RackSpec(config=config, rack_index=r)
             for config in configs.values() for r in range(config.n_racks)]

    start = time.perf_counter()
    vectorized = list(iter_rack_policy_results(specs, TABLE1_POLICIES,
                                               workers=1))
    vectorized_s = time.perf_counter() - start

    start = time.perf_counter()
    reference = reference_sweep(specs)
    reference_s = time.perf_counter() - start

    start = time.perf_counter()
    pooled = list(iter_rack_policy_results(specs, TABLE1_POLICIES,
                                           workers=2))
    pooled_s = time.perf_counter() - start

    # All three must agree exactly — the same RackSimResult for every
    # (rack, policy), in the same order — before any timing is worth
    # recording.
    assert reference == vectorized
    assert pooled == vectorized

    speedup = reference_s / vectorized_s
    print(f"\nTable-I sweep, {len(specs)} racks x "
          f"{len(TABLE1_POLICIES)} policies x "
          f"{WEEKS} weeks: scalar {reference_s:.2f} s, "
          f"vectorized {vectorized_s:.2f} s ({speedup:.1f}x), "
          f"2-worker pool {pooled_s:.2f} s")
    record_result("perf_largescale",
                  reference_s=reference_s,
                  vectorized_s=vectorized_s,
                  speedup=speedup,
                  pool_workers=2,
                  pooled_s=pooled_s,
                  racks=len(specs),
                  weeks=WEEKS)
    # CI floor (acceptance target is 5x on a quiet machine; shared
    # runners get the conservative gate).
    assert speedup >= 3.0
