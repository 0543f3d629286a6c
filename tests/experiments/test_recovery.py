"""Recovery scenario: identical crash schedule, divergent fates.

The acceptance claims for the crash/recovery lifecycle: under one crash
seed, naive always-overclocking loses strictly more server uptime and
accrues more overclock-attributable wear than SmartOClock with
quarantine; a mid-run sOA crash+restore stays inside the rack capping
envelope, never out-grants its restored budget, and the whole triple is
bit-identical across repeats."""

import json

import pytest

from repro.experiments.cluster import scenario_cluster
from repro.experiments.recovery import (
    RecoveryScenarioConfig,
    format_recovery_report,
    recovery_experiment,
)
from tests.experiments.monitoring import invariant_monitors


class TestRecoveryScenario:
    @pytest.fixture(scope="class")
    def monitored(self):
        with invariant_monitors() as monitors:
            result = recovery_experiment(RecoveryScenarioConfig(seed=0))
        return result, monitors

    @pytest.fixture(scope="class")
    def result(self, monitored):
        return monitored[0]

    def test_safety_invariants_hold_every_tick(self, monitored):
        result, monitors = monitored
        assert len(monitors) == len(result.runs)
        for (name, _), monitor in zip(result.runs, monitors):
            assert monitor.violations == [], name

    def test_matched_triple_labels(self, result):
        assert result.naive.environment == "NaiveOClock"
        assert result.smart.environment == "SmartOClock"
        assert result.smart_restored.environment == "SmartOClock/restored"

    def test_crashes_actually_happen_on_both_sides(self, result):
        assert result.smart.server_crashes >= 1
        assert result.naive.server_crashes >= 1

    def test_naive_loses_strictly_more_uptime(self, result):
        assert result.naive.server_crashes > result.smart.server_crashes
        assert result.naive.server_downtime_s > result.smart.server_downtime_s
        assert result.naive.server_uptime_fraction < \
            result.smart.server_uptime_fraction

    def test_naive_accrues_more_wear(self, result):
        # wear_accrued_s is the overclock-attributable excess (wear minus
        # busy time): zero for a never-overclocked run by construction.
        assert result.naive.wear_accrued_s > result.smart.wear_accrued_s

    def test_restore_is_conservative_on_wear(self, result):
        # Revoking unprovable grants can only reduce overclock exposure.
        assert result.smart_restored.wear_accrued_s <= \
            result.smart.wear_accrued_s

    def test_capping_envelope_holds_everywhere(self, result):
        for _, run in result.runs:
            assert run.peak_rack_power_fraction <= 1.0 + 1e-9
        assert result.ok

    def test_restored_soas_never_overgrant(self, result):
        assert result.smart_restored.restored_overgrants == 0
        faults = result.smart_restored.faults
        assert faults is not None
        # Every server's sOA process restarted mid-run, on top of any
        # crash-driven restarts, and checkpoints were actually used.
        assert faults["soa_restarts"] > \
            result.smart.faults["soa_restarts"]
        assert faults["restores_from_checkpoint"] >= 1
        assert faults["checkpoints_taken"] >= 1

    def test_vm_evacuation_accounted(self, result):
        faults = result.smart.faults
        assert faults is not None
        assert faults["vms_evacuated"] >= 1
        assert result.smart.vm_downtime_s > 0.0

    def test_bit_identical_across_repeats(self, result):
        again = recovery_experiment(RecoveryScenarioConfig(seed=0))
        # Frozen dataclasses: exact field equality, not approximate.
        assert again.naive == result.naive
        assert again.smart == result.smart
        assert again.smart_restored == result.smart_restored
        assert again.metrics() == result.metrics()

    def test_report_stable_and_verdict_present(self, result):
        report = format_recovery_report(result)
        assert report == format_recovery_report(result)
        assert "safety: ok" in report
        assert "server_crashes" in report
        parsed = json.loads(format_recovery_report(result, as_json=True))
        assert parsed == result.metrics()


class TestConfigValidation:
    def test_rejects_too_short_run(self):
        with pytest.raises(ValueError, match="too short"):
            RecoveryScenarioConfig(duration_s=50.0, tick_s=10.0)

    def test_rejects_nonpositive_base_rate(self):
        with pytest.raises(ValueError, match="base_failures_per_year"):
            RecoveryScenarioConfig(base_failures_per_year=0.0)

    def test_rejects_restart_fraction_out_of_range(self):
        with pytest.raises(ValueError, match="soa_restart_at_fraction"):
            RecoveryScenarioConfig(soa_restart_at_fraction=1.0)

    def test_restart_time_and_peak_placement(self):
        config = RecoveryScenarioConfig(duration_s=3000.0)
        assert config.soa_restart_at_s == 1500.0
        cluster = scenario_cluster(config)
        assert cluster.peak_start_s == 1000.0
        assert cluster.peak_duration_s == 1000.0
