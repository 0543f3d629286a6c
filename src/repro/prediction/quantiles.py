"""Quantile templates for the oversubscription layer.

The DailyMed/DailyMax templates answer "what will power *typically* be";
oversubscription (after Kumbhare et al.'s prediction-based
oversubscription) needs the *distribution*: admit extra load only when a
high quantile of predicted rack peak plus a confidence margin still
clears the limit.

:class:`DailyQuantileTemplate` is the per-slot-of-day aggregation of the
Daily* templates, but aggregating each slot's history samples to an
arbitrary empirical quantile instead of median/max.  ``q=0.5``
reproduces DailyMed's weekday series exactly when slots hold an odd
number of samples (both conventions then select the middle sample); the
project-wide interpolation convention is
:func:`repro.sim.metrics.empirical_quantile` (numpy's inclusive linear
method).  The sOA fits one over its retained telemetry for its
high-quantile profile series, and the ``SmartOClock+OSub`` trace policy
fits one per server row.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.prediction.templates import (
    DailyFit,
    _DailyAggregateTemplate,
    fit_daily,
)

__all__ = [
    "DailyQuantileTemplate",
]


def _validate_q(q: float) -> float:
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1]: {q}")
    return float(q)


class DailyQuantileTemplate(_DailyAggregateTemplate):
    """Per-slot-of-day empirical ``q``-quantile across weekdays (separate
    weekend series), sharing the Daily* slot arithmetic bit-for-bit.

    Slots unseen in a gapped history fall back to the overall quantile
    (the Daily* templates use the overall median; here the fallback must
    sit at the same risk level as the series)."""

    def __init__(self, times: np.ndarray, values: np.ndarray, *,
                 q: float = 0.95) -> None:
        self.q = _validate_q(q)
        self._install(_fit_quantile(times, np.asarray(values)[None, :],
                                    self.q), 0)

    @classmethod
    def fit_rows(cls, times: np.ndarray, values: np.ndarray, *,
                 q: float = 0.95) -> list[DailyQuantileTemplate]:
        """One template per row of ``values`` (rows x samples) over the
        shared axis ``times``, in one batched fit; bitwise equal to
        constructing each row's template alone."""
        q = _validate_q(q)
        fit = _fit_quantile(times, values, q)
        templates = [cls._from_fit(fit, row) for row in range(len(values))]
        for template in templates:
            template.q = q
        return templates


def _fit_quantile(times: np.ndarray, values: np.ndarray,
                  q: float) -> DailyFit:
    reduce = functools.partial(np.quantile, q=q)
    return fit_daily(times, values, reduce, fill=reduce)
