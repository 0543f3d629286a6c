"""Shared infrastructure for the reproduction benchmarks.

Every benchmark regenerates one of the paper's tables or figures, prints
the series/rows it produced, asserts the paper's qualitative findings, and
records headline numbers into ``benchmarks/latest_results.json`` (consumed
when updating EXPERIMENTS.md).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

_RESULTS: dict[str, dict] = {}
_RESULTS_PATH = Path(__file__).parent / "latest_results.json"


@pytest.fixture
def record_result():
    """Record {experiment: {metric: value}} for EXPERIMENTS.md."""

    def _record(experiment: str, **metrics) -> None:
        _RESULTS.setdefault(experiment, {}).update(
            {k: (round(v, 4) if isinstance(v, float) else v)
             for k, v in metrics.items()})

    return _record


def pytest_sessionfinish(session, exitstatus):
    if _RESULTS:
        merged = {}
        if _RESULTS_PATH.exists():
            try:
                merged = json.loads(_RESULTS_PATH.read_text())
            except json.JSONDecodeError:
                merged = {}
        merged.update(_RESULTS)
        _RESULTS_PATH.write_text(json.dumps(merged, indent=2,
                                            sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def cluster_results():
    """The full §V-A cluster run, shared by Figs. 12-14 benchmarks."""
    from repro.experiments.cluster import ClusterConfig, cluster_experiment
    return cluster_experiment(ClusterConfig())


@pytest.fixture(scope="session")
def table1_results():
    """The full Table-I sweep, shared by its benchmark and ablations."""
    from repro.experiments.largescale import (
        cluster_class_fleet_configs,
        table1_streaming,
    )
    return table1_streaming(
        cluster_class_fleet_configs(n_racks=6, weeks=3, seed=1))
