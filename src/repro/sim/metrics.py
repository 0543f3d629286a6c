"""Metric primitives shared by the experiments.

The paper reports percentiles (P50/P99 latency, rack power percentiles),
CDFs (Figs. 5, 8, 15), RMSE of power predictions and availability.  This
module holds the one sample-quantile convention, RMSE, the empirical CDF
and the downtime tracker the recovery experiments account outages with.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.sim.fold import left_sum

__all__ = [
    "empirical_quantile",
    "rmse",
    "Cdf",
    "DowntimeTracker",
]


def empirical_quantile(values: Sequence[float], q: float) -> float:
    """THE project-wide sample-quantile convention.

    Inclusive linear interpolation (numpy's default ``linear`` method):
    the k-th of n sorted samples sits at rank ``(k - 1) / (n - 1)`` and
    quantiles interpolate linearly between adjacent samples.  Every
    exact-sample quantile in the repo — :meth:`Cdf.value_at`,
    :meth:`repro.workloads.queueing.SimulatedLatencies.quantile`, the
    per-slot aggregation in
    :class:`repro.prediction.quantiles.DailyQuantileTemplate` — reduces
    to this function, so admission decisions keyed off quantiles can
    never disagree across layers on small samples.  (The one non-sample
    estimator, ``experiments.cluster.LatencyAggregator.quantile_ms``,
    inverts an analytic mixture CDF and is a documented approximation of
    the same convention.)

    ``q`` is in [0, 1].  Raises on an empty sequence: experiments must
    decide what an absent measurement means rather than silently get 0.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("quantile of empty sequence is undefined")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    return float(np.quantile(arr, q))


def rmse(predicted: Sequence[float], actual: Sequence[float]) -> float:
    """Root mean squared error between two equal-length series."""
    pred = np.asarray(predicted, dtype=float)
    act = np.asarray(actual, dtype=float)
    if pred.shape != act.shape:
        raise ValueError(
            f"shape mismatch: predicted {pred.shape} vs actual {act.shape}")
    if pred.size == 0:
        raise ValueError("rmse of empty series is undefined")
    return float(np.sqrt(np.mean((pred - act) ** 2)))


class Cdf:
    """Empirical CDF over a collected sample set.

    Provides the ``(x, F(x))`` series the paper's CDF figures plot, plus
    inverse lookup for "x % of racks have value below y" statements.
    """

    def __init__(self, samples: Sequence[float]) -> None:
        arr = np.asarray(samples, dtype=float)
        if arr.size == 0:
            raise ValueError("CDF of empty sample set is undefined")
        self._sorted = np.sort(arr)

    @property
    def n(self) -> int:
        return int(self._sorted.size)

    def value_at(self, fraction: float) -> float:
        """Value v such that a ``fraction`` of samples are <= v
        (:func:`empirical_quantile` convention)."""
        return empirical_quantile(self._sorted, fraction)

    def fraction_below(self, value: float) -> float:
        """Fraction of samples <= value."""
        return float(np.searchsorted(self._sorted, value, side="right")
                     / self._sorted.size)

    def series(self, points: int = 100) -> tuple[np.ndarray, np.ndarray]:
        """Return (x, F(x)) arrays suitable for plotting/printing."""
        if points < 2:
            raise ValueError(f"need at least 2 points, got {points}")
        fractions = np.linspace(0.0, 1.0, points)
        xs = np.quantile(self._sorted, fractions)
        return xs, fractions


class DowntimeTracker:
    """Availability accounting for a set of entities (servers, VMs).

    ``mark_down`` / ``mark_up`` bracket outages per entity id; ``finish``
    closes any outage still open at the end of the run so the totals are
    exact for the observed window.  Downtime intervals may not nest —
    marking a down entity down again is an accounting bug and raises.
    """

    def __init__(self) -> None:
        self._down_since: dict[str, float] = {}
        self._downtime_s: dict[str, float] = {}
        self.outages = 0

    def mark_down(self, entity_id: str, now: float) -> None:
        if entity_id in self._down_since:
            raise ValueError(f"{entity_id} is already down")
        self._down_since[entity_id] = now
        self.outages += 1

    def mark_up(self, entity_id: str, now: float) -> None:
        since = self._down_since.pop(entity_id, None)
        if since is None:
            raise ValueError(f"{entity_id} is not down")
        if now < since:
            raise ValueError(f"time went backwards: {now} < {since}")
        self._downtime_s[entity_id] = \
            self._downtime_s.get(entity_id, 0.0) + (now - since)

    def is_down(self, entity_id: str) -> bool:
        return entity_id in self._down_since

    def finish(self, now: float) -> None:
        """Close open outages at the end of the observation window."""
        for entity_id in list(self._down_since):
            self.mark_up(entity_id, now)

    def downtime_s(self, entity_id: str) -> float:
        return self._downtime_s.get(entity_id, 0.0)

    @property
    def total_downtime_s(self) -> float:
        return left_sum(self._downtime_s.values())
