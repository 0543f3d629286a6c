"""Oversubscription ablation + mispredict stress (ISSUE 8 tentpole).

The expensive artifacts (one ablation sweep, one stress quadruple) are
computed once per module and shared; assertions slice them from many
angles.
"""

import json

import pytest

from repro.core.oversubscription import RISK_ORDER
from repro.experiments.cluster import scenario_cluster
from repro.experiments.oversubscription import (
    ABLATION_POLICIES,
    OversubExperimentResult,
    OversubScenarioConfig,
    format_oversub_report,
    mispredict_stress,
    oversubscription_ablation,
)
from tests.experiments.monitoring import invariant_monitors


@pytest.fixture(scope="module")
def config():
    return OversubScenarioConfig()


@pytest.fixture(scope="module")
def ablation(config):
    return oversubscription_ablation(config)


@pytest.fixture(scope="module")
def monitored_stress(config):
    with invariant_monitors() as monitors:
        stress = mispredict_stress(config)
    return stress, monitors


@pytest.fixture(scope="module")
def stress(monitored_stress):
    return monitored_stress[0]


@pytest.fixture(scope="module")
def result(ablation, stress):
    return OversubExperimentResult(ablation=ablation, stress=stress)


class TestScenarioConfig:
    def test_policy_list_covers_ladder_and_anchors(self):
        assert ABLATION_POLICIES[:2] == ("NaiveOClock", "SmartOClock")
        assert ABLATION_POLICIES[2:] == tuple(
            f"SmartOClock+OSub:{risk}" for risk in RISK_ORDER)

    def test_validation(self):
        with pytest.raises(ValueError, match="weeks"):
            OversubScenarioConfig(weeks=1)
        with pytest.raises(ValueError, match="misprediction_scale"):
            OversubScenarioConfig(misprediction_scale=0.0)
        with pytest.raises(ValueError, match="too short"):
            OversubScenarioConfig(duration_s=30.0, tick_s=10.0)

    def test_fault_window_covers_the_peak(self, config):
        plan = config.fault_plan()
        (fault,) = plan.mispredictions
        cluster = scenario_cluster(config)
        peak_mid = cluster.peak_start_s + cluster.peak_duration_s / 2.0
        assert fault.window.active(peak_mid)
        assert fault.scale == config.misprediction_scale


class TestAblation:
    def test_all_policies_scored(self, ablation):
        assert set(ablation.scores) == set(ABLATION_POLICIES)

    def test_monotone_tradeoff(self, ablation):
        """The acceptance criterion: higher risk strands fewer watts and
        caps at least as often, monotonically along the ladder."""
        assert ablation.monotone
        rows = [score for _, score in ablation.ladder]
        # The dial must actually move: endpoints differ on both axes.
        assert rows[-1].stranded_watts < rows[0].stranded_watts
        assert rows[-1].cap_events > rows[0].cap_events

    def test_admitted_monotone_in_risk(self, ablation):
        admitted = [score.osub_admitted_watts
                    for _, score in ablation.ladder]
        assert admitted == sorted(admitted)
        assert admitted[0] > 0.0

    def test_envelope(self, ablation):
        """Conservative oversubscription stays within the Table-1
        envelope the anchors define."""
        assert ablation.envelope_ok
        conservative = ablation.scores["SmartOClock+OSub:conservative"]
        naive = ablation.scores["NaiveOClock"]
        smart = ablation.scores["SmartOClock"]
        assert smart.cap_events \
            <= conservative.cap_events <= naive.cap_events
        assert smart.success_rate \
            >= conservative.success_rate >= naive.success_rate

    def test_cap_attribution(self, ablation):
        """Every oversubscribing policy's caps happen while headroom is
        admitted (attributed), and the anchors attribute nothing."""
        for name, score in ablation.scores.items():
            if ":" in name:
                assert 0 < score.osub_cap_events <= score.cap_events
            else:
                assert score.osub_cap_events == 0
                assert score.osub_admitted_watts == 0.0
                assert score.stranded_watts > 0.0  # still accounted

    def test_oversubscription_recovers_stranded_power(self, ablation):
        """The point of the subsystem: every risk level strands less
        power than the no-oversubscription SmartOClock baseline."""
        smart = ablation.scores["SmartOClock"]
        for _, score in ablation.ladder:
            assert score.stranded_watts < smart.stranded_watts


class TestMispredictStress:
    def test_safety_invariants_hold_every_tick(self, monitored_stress):
        stress, monitors = monitored_stress
        assert len(monitors) == len(stress.runs)
        for (name, _), monitor in zip(stress.runs, monitors):
            assert monitor.violations == [], name

    def test_all_runs_safe(self, stress):
        """Satellite 4: capping absorbs the misprediction — no run may
        leave its rack above the physical limit post-enforcement."""
        assert stress.safe
        assert stress.osub_faulted.peak_rack_power_fraction <= 1.0 + 1e-9

    def test_faulted_run_within_envelope(self, stress):
        """Satellite 4: the faulted conservative run degrades gracefully
        — its cap-event rate stays within the NaiveOClock envelope."""
        assert stress.envelope_ok
        assert stress.osub_faulted.cap_events <= stress.naive.cap_events

    def test_graceful_degradation_vs_fault_free(self, stress):
        """The fault may cost caps/SLO but must not blow either up past
        the envelope anchor; the runs stay materially comparable."""
        assert stress.osub_faulted.cap_events \
            <= stress.osub.cap_events + stress.naive.cap_events
        assert stress.osub_faulted.missed_slo_ticks_fraction \
            <= stress.osub.missed_slo_ticks_fraction + 0.05

    def test_oversubscription_grants_more_than_baseline(self, stress):
        """Admitted headroom turns into real grants on the constrained
        rack — otherwise the subsystem is wired to nothing."""
        assert stress.osub.overclock_grants > stress.smart.overclock_grants

    def test_envelope_anchor_actually_caps(self, stress):
        """The naive anchor must cap on this scenario, otherwise the
        envelope comparisons above are vacuous."""
        assert stress.naive.cap_events > 0


class TestResultAndReport:
    def test_ok_aggregates_all_checks(self, result):
        assert result.ok

    def test_metrics_round_trip_canonical_json(self, result):
        """metrics() is the determinism fingerprint CI diffs: it must be
        canonical-JSON serializable with purely numeric leaves."""
        text = json.dumps(result.metrics(), sort_keys=True)
        assert json.loads(text) == result.metrics()
        checks = result.metrics()["verdicts"]["checks"]
        assert checks == {"monotone": 1.0, "ablation_envelope_ok": 1.0,
                          "stress_safe": 1.0, "stress_envelope_ok": 1.0}

    def test_text_report_lists_every_policy_and_run(self, result):
        report = format_oversub_report(result)
        for name in ABLATION_POLICIES:
            assert name in report
        for name, _ in result.stress.runs:
            assert name in report
        assert "FAIL" not in report

    def test_json_report_matches_metrics(self, result):
        report = format_oversub_report(result, as_json=True)
        assert json.loads(report) == result.metrics()
