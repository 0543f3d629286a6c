"""Tests for the per-slot quantile template."""

import numpy as np
import pytest

from repro.prediction.quantiles import DailyQuantileTemplate
from repro.prediction.templates import (
    DailyMaxTemplate,
    DailyMedTemplate,
)

DAY = 86400.0
WEEK = 7 * DAY
STEP = 300.0


def noisy_week(seed=0, base=200.0, amplitude=100.0, noise=10.0, weeks=1):
    times = np.arange(0.0, weeks * WEEK, STEP)
    hours = (times % DAY) / 3600.0
    values = base + amplitude * 0.5 * (1 + np.cos(
        2 * np.pi * (hours - 13.0) / 24.0))
    values = values + np.random.default_rng(seed).normal(
        0, noise, size=values.shape)
    return times, values


class TestDailyQuantileTemplate:
    def test_median_quantile_matches_daily_med_on_weekdays(self):
        # A full week gives every weekday slot exactly 5 samples (odd),
        # where np.median and np.quantile(0.5) both select the middle
        # sample — the equivalence is exact, not approximate.
        times, values = noisy_week(seed=1)
        med = DailyMedTemplate(times, values)
        q50 = DailyQuantileTemplate(times, values, q=0.5)
        weekday_probes = WEEK + np.arange(0.0, 5 * DAY, STEP)
        assert np.array_equal(q50.predict_series(weekday_probes),
                              med.predict_series(weekday_probes))

    def test_max_quantile_matches_daily_max(self):
        # q=1.0 selects the largest sample exactly, like max.
        times, values = noisy_week(seed=2)
        mx = DailyMaxTemplate(times, values)
        q100 = DailyQuantileTemplate(times, values, q=1.0)
        probes = WEEK + np.arange(0.0, 7 * DAY, STEP)
        assert np.array_equal(q100.predict_series(probes),
                              mx.predict_series(probes))

    def test_monotone_in_q(self):
        times, values = noisy_week(seed=3, noise=25.0)
        templates = [DailyQuantileTemplate(times, values, q=q)
                     for q in (0.1, 0.5, 0.9, 0.99)]
        probes = WEEK + np.arange(0.0, 7 * DAY, 1800.0)
        series = [tpl.predict_series(probes) for tpl in templates]
        for lo, hi in zip(series, series[1:]):
            assert np.all(lo <= hi)

    def test_predict_series_matches_predict_loop(self):
        times, values = noisy_week(seed=4)
        tpl = DailyQuantileTemplate(times, values, q=0.9)
        probes = WEEK + np.arange(0.0, 7 * DAY, 1234 * STEP)
        looped = np.array([tpl.predict(float(t)) for t in probes])
        assert np.array_equal(tpl.predict_series(probes), looped)

    def test_gapped_history_uneven_counts(self):
        # Drop a chunk of telemetry: per-slot sample counts become
        # uneven and the grouped aggregation must match the masked form.
        times, values = noisy_week(seed=5)
        keep = np.ones(len(times), dtype=bool)
        keep[150:450] = False
        tpl = DailyQuantileTemplate(times[keep], values[keep], q=0.75)
        slots_per_day = int(round(DAY / STEP))
        weekday = ((times[keep] // DAY).astype(int) % 7) < 5
        slots = (np.round((times[keep] % DAY)
                          / STEP).astype(int)) % slots_per_day
        s = int(slots[weekday][0])
        group = values[keep][weekday][slots[weekday] == s]
        assert tpl.predict(s * STEP) == float(np.quantile(group, 0.75))

    def test_unseen_slots_fall_back_to_overall_quantile(self):
        # Morning-only history: afternoon slots predict the overall
        # quantile at the template's own q, not the overall median.
        times = np.arange(0.0, 0.5 * DAY, STEP)
        values = np.linspace(100.0, 300.0, len(times))
        tpl = DailyQuantileTemplate(times, values, q=0.9)
        assert tpl.predict(0.75 * DAY) == float(np.quantile(values, 0.9))

    def test_invalid_q_rejected(self):
        times, values = noisy_week()
        for q in (-0.1, 1.5):
            with pytest.raises(ValueError, match="quantile"):
                DailyQuantileTemplate(times, values, q=q)
