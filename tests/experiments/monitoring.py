"""Check the platform's five safety invariants on every tick of a run.

:func:`invariant_monitors` wraps :meth:`SmartOClockPlatform.tick` the way
the benchmark's check pass does (``bench/tracing.py:PlatformMonitors``):
every platform that ticks inside the ``with`` block gets its own
:class:`~repro.sim.monitors.InvariantMonitor`, checked after each of its
ticks.  Runs must be in-process (``workers=1``) for the wrapper to see
them.
"""

import contextlib
from typing import Iterator

import pytest

from repro.core.platform import SmartOClockPlatform
from repro.sim.monitors import InvariantMonitor


@contextlib.contextmanager
def invariant_monitors() -> Iterator[list[InvariantMonitor]]:
    """Yield the monitors, one per platform, in the order they first
    ticked (for a matched scenario: variant order)."""
    monitors: list[InvariantMonitor] = []
    tick = SmartOClockPlatform.tick

    def checked_tick(platform: SmartOClockPlatform, now: float,
                     dt: float) -> None:
        tick(platform, now, dt)
        for monitor in monitors:
            if monitor.platform is platform:
                break
        else:
            monitor = InvariantMonitor(platform)
            monitors.append(monitor)
        monitor.check(now)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SmartOClockPlatform, "tick", checked_tick)
        yield monitors
