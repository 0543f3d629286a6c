"""Fault-injection experiment: decentralization scenario + determinism.

Covers the paper's §III Q5 claim end to end: a gOA killed mid-run leaves
the sOAs operating on their last assignment, the rack never escapes the
capping envelope, and the whole scenario is bit-identical under a fixed
seed — so CI can diff repeated runs.
"""

import dataclasses

import pytest

from repro.experiments.cluster import (
    ClusterConfig,
    run_environment,
    scenario_cluster,
)
from repro.experiments.faults import (
    FaultScenarioConfig,
    default_fault_plan,
    fault_injection_experiment,
    format_fault_report,
)
from repro.faults import FaultPlan, GoaOutage
from repro.faults.spec import FaultWindow
from tests.experiments.monitoring import invariant_monitors


def small_cluster(**kwargs):
    """A 7-server cluster with the peak in the middle — fast enough to
    run several times per test."""
    defaults = dict(
        n_lc_servers=3, n_ml_servers=2, n_scaleout_servers=2,
        class_counts=(("low", 1), ("medium", 1), ("high", 1)),
        duration_s=1200.0, tick_s=10.0,
        peak_start_s=400.0, peak_duration_s=400.0,
        rack_limit_factor=1.05, seed=3)
    defaults.update(kwargs)
    return ClusterConfig(**defaults)


def goa_kill_plan(config):
    """Kill the gOA halfway through the run, forever."""
    return FaultPlan(goa_outages=(
        GoaOutage(FaultWindow(config.duration_s / 2.0,
                              config.duration_s)),))


class TestDecentralizationScenario:
    """Kill the gOA mid-run: sOAs must carry on, safely, reproducibly."""

    @pytest.fixture(scope="class")
    def runs(self):
        config = small_cluster()
        plan = goa_kill_plan(config)
        kwargs = dict(fault_plan=plan, label="faulted")
        return (config,
                run_environment("SmartOClock", config),
                run_environment("SmartOClock", config, **kwargs),
                run_environment("SmartOClock", config, **kwargs))

    def test_goa_cycles_actually_missed(self, runs):
        _, _, faulted, _ = runs
        assert faulted.faults is not None
        assert faulted.faults["goa_cycles_missed"] >= 1
        # A pure outage plan drops nothing else.
        assert faulted.faults["messages_dropped"] == 0
        assert faulted.faults["telemetry_dropped"] == 0

    def test_soas_keep_overclocking_after_goa_death(self, runs):
        _, _, faulted, _ = runs
        assert faulted.overclock_grants > 0

    def test_rack_stays_inside_capping_envelope(self, runs):
        _, fault_free, faulted, _ = runs
        assert faulted.peak_rack_power_fraction <= 1.0 + 1e-9
        assert fault_free.peak_rack_power_fraction <= 1.0 + 1e-9

    def test_bit_identical_under_fixed_seed(self, runs):
        _, _, first, second = runs
        assert first == second  # frozen dataclass: exact field equality

    def test_fault_free_run_reports_no_fault_counters(self, runs):
        _, fault_free, _, _ = runs
        assert fault_free.faults is None


class TestFaultInjectionExperiment:
    @pytest.fixture(scope="class")
    def monitored(self):
        with invariant_monitors() as monitors:
            result = fault_injection_experiment(
                FaultScenarioConfig(duration_s=900.0, seed=5))
        return result, monitors

    @pytest.fixture(scope="class")
    def result(self, monitored):
        return monitored[0]

    def test_matched_pair_shares_trace(self, result):
        assert result.fault_free.environment == "SmartOClock/fault-free"
        assert result.faulted.environment == "SmartOClock/faulted"

    def test_safety_invariants_hold_every_tick(self, monitored):
        result, monitors = monitored
        assert len(monitors) == 2
        for name, monitor in zip(("fault_free", "faulted"), monitors):
            assert monitor.violations == [], name

    def test_faults_actually_fired(self, result):
        counters = result.faulted.faults
        assert counters is not None
        assert counters["goa_cycles_missed"] >= 1
        assert counters["telemetry_dropped"] >= 1
        # Misprediction skew only fires once a template exists, which a
        # 900 s run never reaches — the CI smoke run (3600 s) covers it.
        assert (counters["messages_dropped"]
                + counters["messages_delayed"]) >= 1

    def test_graceful_degradation(self, result):
        assert result.faulted.peak_rack_power_fraction <= 1.0 + 1e-9
        assert result.ok

    def test_metrics_fingerprint_deterministic(self, result):
        again = fault_injection_experiment(
            FaultScenarioConfig(duration_s=900.0, seed=5))
        assert result.metrics() == again.metrics()

    def test_report_stable_and_verdict_present(self, result):
        report = format_fault_report(result)
        assert report == format_fault_report(result)
        assert "degradation:" in report
        assert "goa_cycles_missed" in report

    def test_fault_seed_changes_fates_not_trace(self, result):
        config = FaultScenarioConfig(duration_s=900.0, seed=5)
        other = run_environment(
            "SmartOClock", scenario_cluster(config),
            fault_plan=default_fault_plan(config), fault_seed=99,
            label="SmartOClock/faulted")
        baseline = result.faulted.faults
        assert other.faults is not None and baseline is not None
        # Different fault seed → different stochastic fate counts (the
        # deterministic outage misses the same gOA cycles either way).
        assert other.faults["goa_cycles_missed"] == \
            baseline["goa_cycles_missed"]
        assert (other.faults["messages_dropped"],
                other.faults["telemetry_dropped"]) != \
            (baseline["messages_dropped"],
             baseline["telemetry_dropped"])


class TestPlanValidation:
    def test_fault_plan_rejected_for_control_plane_free_env(self):
        config = small_cluster(duration_s=300.0)
        with pytest.raises(ValueError, match="control plane"):
            run_environment("Baseline", config,
                            fault_plan=goa_kill_plan(config))

    def test_scenario_config_rejects_too_short_run(self):
        with pytest.raises(ValueError, match="too short"):
            FaultScenarioConfig(duration_s=10.0, tick_s=10.0)

    def test_default_plan_windows_cover_phases(self):
        config = FaultScenarioConfig()
        plan = default_fault_plan(config)
        assert plan.goa_down("rack-main", config.outage_start_s)
        assert not plan.goa_down("rack-main",
                                 config.outage_start_s - 1.0)
        assert dataclasses.replace(config).outage_start_s == \
            config.duration_s / 3.0
