"""Template stores and prediction evaluation.

:class:`TemplateStore` is the online component: agents feed it telemetry
(``record``), it periodically rebuilds templates from the trailing history
(``recompute``), and consumers call ``predict``.  The gOA holds one store
per rack and per server; each sOA holds one for its own server.

:func:`evaluate_template` is the offline harness behind Fig. 8 and
Fig. 15: build a template from week *k* and score it against week *k+1*.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.prediction.templates import (
    PowerTemplate,
    TemplateKind,
    build_template,
)
from repro.sim.metrics import rmse

__all__ = ["TemplateStore", "PredictionEvaluation", "evaluate_template"]

SECONDS_PER_WEEK = 7 * 86400.0


class TemplateStore:
    """Online telemetry buffer + periodic template recomputation.

    ``history_weeks`` bounds how much telemetry is retained (older samples
    are dropped); ``recompute`` uses everything retained.
    """

    def __init__(self, kind: TemplateKind | str = TemplateKind.DAILY_MED,
                 history_weeks: int = 2) -> None:
        if history_weeks < 1:
            raise ValueError(f"history_weeks must be >= 1: {history_weeks}")
        self.kind = TemplateKind(kind)
        self.history_weeks = history_weeks
        self._times: list[float] = []
        self._values: list[float] = []
        self._template: PowerTemplate | None = None

    @property
    def samples(self) -> int:
        return len(self._times)

    @property
    def has_template(self) -> bool:
        return self._template is not None

    def record(self, t: float, value: float) -> None:
        """Append one telemetry sample (times must be non-decreasing)."""
        if self._times and t < self._times[-1]:
            raise ValueError(
                f"telemetry time went backwards: {t} < {self._times[-1]}")
        self._times.append(float(t))
        self._values.append(float(value))
        self._trim()

    def record_series(self, times: np.ndarray, values: np.ndarray) -> None:
        """Bulk-append a telemetry series (equivalent to repeated
        :meth:`record`, but validates monotonicity once, extends once and
        trims once — linear instead of quadratic on multi-week traces)."""
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.shape != values.shape:
            raise ValueError(
                f"times/values shape mismatch: {times.shape} vs "
                f"{values.shape}")
        if times.size == 0:
            return
        if times.ndim != 1:
            raise ValueError(f"series must be 1-D, got shape {times.shape}")
        if self._times and times[0] < self._times[-1]:
            raise ValueError(
                f"telemetry time went backwards: {times[0]} < "
                f"{self._times[-1]}")
        if times.size > 1 and bool(np.any(np.diff(times) < 0)):
            raise ValueError("telemetry times must be non-decreasing")
        self._times.extend(times.tolist())
        self._values.extend(values.tolist())
        self._trim()

    def _trim(self) -> None:
        horizon = self._times[-1] - self.history_weeks * SECONDS_PER_WEEK
        # Times are non-decreasing, so the cut point is a bisection.
        drop = bisect.bisect_left(self._times, horizon)
        if drop:
            self._times = self._times[drop:]
            self._values = self._values[drop:]

    def recompute(self) -> PowerTemplate:
        """Rebuild the template from the retained history."""
        if len(self._times) < 2:
            raise ValueError("not enough history to build a template")
        self._template = build_template(
            self.kind, np.array(self._times), np.array(self._values))
        return self._template

    def predict(self, t: float) -> float:
        if self._template is None:
            raise RuntimeError(
                "no template yet: call recompute() after recording history")
        return self._template.predict(t)

    def history(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the retained ``(times, values)`` telemetry arrays.

        This is the raw material for auxiliary predictors built over the
        same trailing window (the sOA fits a
        :class:`repro.prediction.quantiles.DailyQuantileTemplate` to it
        for its high-quantile profile series)."""
        return np.array(self._times), np.array(self._values)

    def predict_or(self, t: float, default: float) -> float:
        """Predict, or return ``default`` when no usable prediction exists.

        "No usable prediction" covers both *no template yet* (before the
        first recompute) and a template slot holding a non-finite value:
        gap-tolerant histories can leave NaN slots in a template before
        median prefill, and a NaN must not masquerade as a prediction —
        callers use this exactly where they have a safe fallback.
        """
        if self._template is None:
            return default
        value = self._template.predict(t)
        if not math.isfinite(value):
            return default
        return value

    def state_dict(self) -> dict[str, Any]:
        """Serializable history snapshot (checkpoint payload).

        The template itself is *not* serialized: it is a pure function
        of the retained history, so :meth:`load_state_dict` rebuilds it
        when the snapshot says one existed.
        """
        return {
            "times": list(self._times),
            "values": list(self._values),
            "has_template": self._template is not None,
        }

    def load_state_dict(self, state: dict[str, Any]) -> None:
        """Restore history from a :meth:`state_dict` snapshot."""
        times = [float(t) for t in state["times"]]
        values = [float(v) for v in state["values"]]
        if len(times) != len(values):
            raise ValueError(
                f"times/values length mismatch: {len(times)} vs "
                f"{len(values)}")
        self._times = times
        self._values = values
        if state["has_template"] and len(self._times) >= 2:
            self.recompute()
        else:
            self._template = None


@dataclass(frozen=True)
class PredictionEvaluation:
    """Error statistics of a template scored against held-out actuals."""

    kind: TemplateKind
    rmse: float
    mean_error: float          # signed: >0 → overprediction
    p99_abs_error: float
    max_underprediction: float  # worst actual-above-prediction excursion

    def summary(self) -> str:
        return (f"{self.kind.value}: RMSE={self.rmse:.2f}W "
                f"mean_err={self.mean_error:+.2f}W "
                f"p99|err|={self.p99_abs_error:.2f}W "
                f"max_under={self.max_underprediction:.2f}W")


def evaluate_template(kind: TemplateKind | str,
                      history_times: np.ndarray,
                      history_values: np.ndarray,
                      eval_times: np.ndarray,
                      eval_values: np.ndarray) -> PredictionEvaluation:
    """Build a template from history and score it on held-out actuals."""
    kind = TemplateKind(kind)
    template = build_template(kind, np.asarray(history_times),
                              np.asarray(history_values))
    predictions = template.predict_series(np.asarray(eval_times))
    actuals = np.asarray(eval_values, dtype=float)
    errors = predictions - actuals
    under = actuals - predictions
    return PredictionEvaluation(
        kind=kind,
        rmse=rmse(predictions, actuals),
        mean_error=float(np.mean(errors)),
        p99_abs_error=float(np.percentile(np.abs(errors), 99)),
        max_underprediction=float(np.max(under)),
    )
