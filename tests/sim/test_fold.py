"""The closed-form repeated add must equal the plain left fold bit for bit.

:func:`repro.sim.fold.repeat_add` replaces ``n`` replayed ``acc += inc``
adds in lazy accrual; every case here compares it against that loop —
the reference — on the bit pattern of the result, so a sign-of-zero or
last-ulp difference fails.  :func:`repro.sim.fold.left_sum` is that
plain fold over a sequence, pinned here on the inputs where CPython
3.12's compensated ``sum()`` differs — and platform runs are shown not
to depend on which ``sum()`` the interpreter has.
"""

import builtins
import dataclasses
import json
import math
import struct
from itertools import repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.capping import (
    FairShareThrottler,
    PrioritizedThrottler,
    RackPowerManager,
)
from repro.cluster.power import DEFAULT_POWER_MODEL
from repro.cluster.topology import Rack, Server, VirtualMachine
from repro.experiments.chaos import ChaosConfig, chaos_trial
from repro.experiments.cluster import ClusterConfig, run_environment
from repro.sim.fold import MIN_CLOSED_FORM_RUN, left_sum, repeat_add

TINY = math.ulp(0.0)  # the smallest subnormal


def left_fold(acc: float, inc: float, n: int) -> float:
    for _ in repeat(None, n):
        acc += inc
    return acc


def assert_bit_identical(acc: float, inc: float, n: int) -> None:
    expected = struct.pack("<d", left_fold(acc, inc, n))
    got = struct.pack("<d", repeat_add(acc, inc, n))
    assert got == expected, f"acc={acc.hex()} inc={inc.hex()} n={n}"


def below_binade_top(e: int, ulps: int) -> float:
    """The float ``ulps`` steps below ``2**e``."""
    acc = 2.0 ** e
    for _ in range(ulps):
        acc = math.nextafter(acc, 0.0)
    return acc


runs = st.integers(0, 2 * 10 ** 5)
short_or_long = st.one_of(st.integers(0, 3 * MIN_CLOSED_FORM_RUN), runs)
magnitudes = st.floats(0.0, 1e12, allow_nan=False, allow_infinity=False)


class TestRepeatAdd:
    @given(acc=st.sampled_from([0.0, -0.0]),
           inc=st.one_of(magnitudes, st.sampled_from([0.0, -0.0, TINY])),
           n=short_or_long)
    @settings(max_examples=150, deadline=None)
    def test_from_zero(self, acc, inc, n):
        assert_bit_identical(acc, inc, n)

    @given(acc=magnitudes.filter(lambda x: x > 0.0),
           k=st.integers(0, 64), n=short_or_long)
    @settings(max_examples=200, deadline=None)
    def test_ties(self, acc, k, n):
        # inc sits exactly halfway between two steps of acc's ulp grid.
        assert_bit_identical(acc, (k + 0.5) * math.ulp(acc), n)

    @given(e=st.integers(-60, 60), ulps=st.integers(1, 8),
           k=st.integers(0, 6),
           frac=st.sampled_from([0.0, 0.25, 0.5, 0.75]),
           n=st.integers(0, 3 * MIN_CLOSED_FORM_RUN))
    @settings(max_examples=200, deadline=None)
    def test_near_binade_top(self, e, ulps, k, frac, n):
        acc = below_binade_top(e, ulps)
        assert_bit_identical(acc, (k + frac) * math.ulp(acc), n)

    @given(acc=magnitudes.filter(lambda x: x > 0.0),
           frac=st.floats(0.0, 0.5, exclude_max=True), n=short_or_long)
    @settings(max_examples=100, deadline=None)
    def test_increment_below_half_an_ulp_never_moves(self, acc, frac, n):
        inc = frac * math.ulp(acc)
        assert_bit_identical(acc, inc, n)
        assert repeat_add(acc, inc, n) == acc

    @given(acc=st.integers(0, 2 ** 54), inc=st.integers(0, 2 ** 12),
           n=short_or_long)
    @settings(max_examples=100, deadline=None)
    def test_subnormal_operands(self, acc, inc, n):
        # Multiples of the smallest subnormal up to the first normal
        # binades: the grid is uniform below 2**-1021.
        assert_bit_identical(acc * TINY, inc * TINY, n)

    @given(acc=magnitudes, inc=magnitudes, n=short_or_long)
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_magnitudes(self, acc, inc, n):
        assert_bit_identical(acc, inc, n)

    @given(acc=st.floats(0.0, 1e7), util=st.floats(0.0, 1.0),
           dt=st.sampled_from([1.0, 10.0, 30.0, 60.0, 300.0]), n=runs)
    @settings(max_examples=150, deadline=None)
    def test_accrual_shaped_runs(self, acc, util, dt, n):
        # The shape lazy accrual feeds it: seconds accumulators and
        # ``utilization * dt`` increments over up to a week of ticks.
        assert_bit_identical(acc, util * dt, n)

    @pytest.mark.parametrize("acc, inc", [
        (-1.0, 0.3), (5.0, -0.1), (math.inf, 1.0),
        (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan),
        (1e300, 1e298), (2.0 ** 1020, 2.0 ** 1000),
    ])
    def test_outside_the_domain_runs_the_loop(self, acc, inc):
        for n in (0, 1, MIN_CLOSED_FORM_RUN, 5000):
            assert_bit_identical(acc, inc, n)

    @pytest.mark.parametrize("inc", [0.6 * 30.0, 0.37 * 30.0, 1e-3, 30.0])
    def test_week_of_ticks_from_zero(self, inc):
        assert_bit_identical(0.0, inc, 20160)
        assert_bit_identical(0.0, inc, 2 * 10 ** 5)



def bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestLeftSum:
    def test_uncompensated(self):
        # sum() returns 2.0 here from CPython 3.12 on (Neumaier
        # compensation); the left fold rounds 1e100 + 1.0 to 1e100.
        assert bits(left_sum([1.0, 1e100, 1.0, -1e100])) == bits(0.0)

    def test_empty_is_zero(self):
        assert bits(left_sum([])) == bits(0.0)

    def test_starts_at_positive_zero(self):
        assert bits(left_sum([-0.0])) == bits(0.0)
        assert bits(left_sum([-0.0, -0.0])) == bits(0.0)

    @given(st.lists(st.floats(-1e12, 1e12), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_is_the_left_fold(self, values):
        acc = 0.0
        for value in values:
            acc += value
        assert bits(left_sum(values)) == bits(acc)
        assert bits(left_sum(iter(values))) == bits(acc)


_BUILTIN_SUM = builtins.sum


def compensated_sum(iterable, start=0):
    """``sum()`` as CPython 3.12 computes it for floats: a Neumaier-
    compensated fold whose running error is added back at the end.
    Inputs with no float (ints, lists, ...) go to the real ``sum()``."""
    items = list(iterable)
    numbers = [start, *items]
    if not (all(isinstance(x, (int, float)) for x in numbers)
            and any(isinstance(x, float) for x in numbers)):
        return _BUILTIN_SUM(items, start)
    total = float(start)
    error = 0.0
    for x in map(float, items):
        t = total + x
        if abs(total) >= abs(x):
            error += (total - t) + x
        else:
            error += (x - t) + total
        total = t
    if error and math.isfinite(error):
        total += error
    return total


class TestPlatformIgnoresSum:
    """The platform folds its floats with ``left_sum``, so a run gives the
    same bits under the compensated ``sum()`` of CPython >= 3.12."""

    def test_compensated_sum_differs_from_the_left_fold(self):
        values = [1.0, 1e100, 1.0, -1e100]
        assert compensated_sum(values) == 2.0
        assert left_sum(values) == 0.0
        assert compensated_sum([1, 2, 3]) == 6
        assert compensated_sum([[1], [2]], []) == [1, 2]

    def test_cluster_run(self, monkeypatch):
        config = ClusterConfig(duration_s=1800.0, seed=1)

        def digest():
            result = run_environment("SmartOClock", config)
            return json.dumps(dataclasses.asdict(result), sort_keys=True)

        expected = digest()
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        assert digest() == expected

    def test_chaos_trial(self, monkeypatch):
        config = ChaosConfig(duration_s=600.0)
        expected = chaos_trial(0, config)
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        patched = chaos_trial(0, config)
        assert patched == expected
        assert bits(patched.peak_rack_power_fraction) \
            == bits(expected.peak_rack_power_fraction)


def cap_penalties(throttler) -> list[float]:
    """``noc_penalty_ghz`` of every cap event on a 5 x 5-VM rack whose
    load alternates between idle and a spread of busy levels with some
    VMs overclocked, so each event throttles VMs by different depths."""
    rack = Rack("r", 1.0)
    vms = []
    for s in range(5):
        server = Server(f"s{s}", DEFAULT_POWER_MODEL)
        for v in range(5):
            vm = VirtualMachine(4 + 2 * v, utilization=0.6,
                                priority=(s + v) % 3, name=f"vm{s}{v}")
            server.place_vm(vm)
            vms.append((vm, server))
        rack.add_server(server)
    rack.power_limit_watts = 0.93 * rack.power_watts()
    manager = RackPowerManager(rack, throttler=throttler)
    for t in range(40):
        for k, (vm, server) in enumerate(vms):
            if t % 2 == 0:
                vm.set_utilization(0.05)
                continue
            vm.set_utilization(0.5 + 0.05 * ((t * 7 + k * 3) % 11))
            if (t + k) % 3 == 0:
                server.set_vm_frequency(vm, server.plan.overclock_max_ghz)
        manager.sample(float(t))
    return [event.noc_penalty_ghz for event in manager.cap_events]


@pytest.mark.parametrize("throttler", [PrioritizedThrottler,
                                       FairShareThrottler])
def test_cap_penalties_ignore_sum(throttler, monkeypatch):
    """Both throttlers average a cap event's bystander penalties with the
    left fold: the compensated ``sum()`` of CPython >= 3.12 gives the same
    bits (on these events it would move several means by an ulp)."""
    expected = cap_penalties(throttler())
    assert len(expected) == 20
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    patched = cap_penalties(throttler())
    assert [bits(p) for p in patched] == [bits(p) for p in expected]
