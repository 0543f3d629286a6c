"""Discrete-event simulation substrate.

This package provides the simulation engine used by every experiment in the
reproduction: an event queue with a virtual clock (:mod:`repro.sim.engine`),
typed events and periodic processes (:mod:`repro.sim.events`), metric
collectors for percentiles, CDFs, RMSE and time-weighted averages
(:mod:`repro.sim.metrics`), and the exact closed form of a repeated float
add that lazy accrual replays coalesced ticks through
(:mod:`repro.sim.fold`).
"""

from repro.sim.engine import Event, SimulationEngine, Process
from repro.sim.events import PeriodicTask, at_times
from repro.sim.metrics import (
    Cdf,
    Histogram,
    RunningStats,
    TimeWeightedValue,
    percentile,
    rmse,
)

__all__ = [
    "Event",
    "SimulationEngine",
    "Process",
    "PeriodicTask",
    "at_times",
    "Cdf",
    "Histogram",
    "RunningStats",
    "TimeWeightedValue",
    "percentile",
    "rmse",
]
