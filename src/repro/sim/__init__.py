"""Simulation support shared by the experiments.

The platform experiments are tick-driven (:mod:`repro.core.platform`)
and the Table-I sweep is trace-driven
(:mod:`repro.experiments.largescale`); this package holds what both
lean on: metric primitives for percentiles, CDFs, RMSE and downtime
(:mod:`repro.sim.metrics`), the exact closed form of a repeated float
add that lazy accrual replays coalesced ticks through
(:mod:`repro.sim.fold`), and the per-tick safety-invariant monitor
(:mod:`repro.sim.monitors`).
"""

from repro.sim.metrics import Cdf, rmse

__all__ = [
    "Cdf",
    "rmse",
]
