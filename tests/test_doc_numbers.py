"""The numbers EXPERIMENTS.md and README.md quote from the recorded
benchmark results.

Each entry of :data:`QUOTES` is a piece of quoted document text with a
``{}`` where each number goes, the ``benchmarks/latest_results.json``
keys those numbers come from, and how each is rendered.  The test
renders the recorded values into the text and asserts the document
contains it, so re-recording a result that moves a quoted number fails
here until the documents follow.
"""

import json
from pathlib import Path
from typing import Callable

import pytest

REPO = Path(__file__).parents[1]
RESULTS = json.loads(
    (REPO / "benchmarks" / "latest_results.json").read_text())


def _fixed(digits: int) -> Callable[[float], str]:
    return lambda value: f"{value:.{digits}f}"


def _percent(digits: int) -> Callable[[float], str]:
    return lambda value: f"{100 * value:.{digits}f}"


def _complement_percent(digits: int) -> Callable[[float], str]:
    return lambda value: f"{100 * (1 - value):.{digits}f}"


#: (document, quoted text, result keys, rendering: one for every value,
#: or a tuple with one per key)
QUOTES = [
    # --- Characterization ---------------------------------------------------
    ("EXPERIMENTS.md", "spike-to-valley ratio {}×",
     ["fig01.service_b_spike_ratio"], _fixed(1)),
    ("EXPERIMENTS.md", "{} Baseline SLO violations rescued by Overclock",
     ["fig02.rescued_by_overclock"], _fixed(0)),
    ("EXPERIMENTS.md", "Usr meets SLO at {} util while UrlShort misses at {}",
     ["fig03.usr_medium_util", "fig03.urlshort_low_util"], _fixed(2)),
    ("EXPERIMENTS.md",
     "VM2 util {}→{} under OC, but deployment already at {} <",
     ["fig04.vm2_base", "fig04.vm2_oc", "fig04.deployment_base"], _fixed(2)),
    ("EXPERIMENTS.md", "median avg {}; median P99 {}; P90-of-P99 {}",
     ["fig05.median_avg_util", "fig05.median_p99_util",
      "fig05.p90_p99_util"], _fixed(2)),
    ("EXPERIMENTS.md", "naive OC capped {} % of the time",
     ["fig06.no_cap_fraction"], _complement_percent(1)),
    ("EXPERIMENTS.md", "| {} / {} / {} / {} days |",
     ["fig07.Expected_ageing", "fig07.Non_overclocked",
      "fig07.Always_overclock", "fig07.Overclock_aware"],
     (_fixed(1), _fixed(2), _fixed(1), _fixed(2))),
    ("EXPERIMENTS.md", "per-server P50 RMSE {}–{} W across regions",
     ["fig08.region_1_p50", "fig08.region_4_p50"], _fixed(1)),
    ("EXPERIMENTS.md", "max spread {};", ["fig09.max_spread"], _fixed(3)),
    ("EXPERIMENTS.md", "dominant server changes {}× per week",
     ["fig09.dominant_changes"], _fixed(0)),
    # --- Cluster experiments ------------------------------------------------
    ("EXPERIMENTS.md", "| −{} % / −{} % / −{} % |",
     ["fig12.p99_reduction_vs_baseline", "fig12.p99_reduction_vs_scaleout",
      "fig12.p99_reduction_vs_scaleup"], _percent(0)),
    ("EXPERIMENTS.md", "| {}× / {}× / {}× |",
     ["fig12.miss_ratio_vs_baseline", "fig12.miss_ratio_vs_scaleout",
      "fig12.miss_ratio_vs_scaleup"], _fixed(1)),
    ("EXPERIMENTS.md", "{} % fewer (", ["fig13.instance_saving_high"],
     _percent(1)),
    ("EXPERIMENTS.md", "({} vs {} avg instances)",
     ["fig13.smart_high_instances", "fig13.scaleout_high_instances"],
     _fixed(2)),
    ("EXPERIMENTS.md", "total −{} %",
     ["fig14.total_energy_saving_vs_scaleout"], _percent(1)),
    ("EXPERIMENTS.md", "caps {}→{};",
     ["sec5a_power.naive_caps", "sec5a_power.smart_caps"], _fixed(0)),
    ("EXPERIMENTS.md", "MLTrain +{} %", ["sec5a_power.ml_throughput_gain"],
     _percent(1)),
    ("EXPERIMENTS.md", "(gaps {}/{}/{} pp)",
     ["sec5a_budget.gap_at_75pct", "sec5a_budget.gap_at_50pct",
      "sec5a_budget.gap_at_25pct"], _percent(1)),
    # --- Large-scale simulation ---------------------------------------------
    ("EXPERIMENTS.md", "caps cut {} % vs naive",
     ["table1.high_cap_reduction_vs_naive"], _percent(1)),
    ("EXPERIMENTS.md", "| {} > {} > {} / {} > {} |",
     ["table1.high_success_central", "table1.high_success_smart",
      "table1.high_success_nowarning", "table1.high_success_nofeedback",
      "table1.high_success_naive"], _percent(1)),
    ("EXPERIMENTS.md", "Smart {} within", ["table1.medium_success_smart"],
     _percent(1)),
    ("EXPERIMENTS.md", "fair-vs-prioritized ablation: {}× penalty",
     ["ablation_capping.penalty_ratio"], _fixed(2)),
    ("EXPERIMENTS.md", "DailyMed {} < Weekly {} < DailyMax {} ≪",
     ["fig15.DailyMed", "fig15.Weekly", "fig15.DailyMax"], _fixed(2)),
    ("EXPERIMENTS.md", "≪ FlatMed {} < FlatMax {} (W)",
     ["fig15.FlatMed", "fig15.FlatMax"], _fixed(1)),
    # --- Production services ------------------------------------------------
    ("EXPERIMENTS.md", "| −{} % / +{} % |",
     ["fig16.util_reduction", "fig16.iso_rps_gain"], _percent(1)),
    ("EXPERIMENTS.md", "| −{} % | `test_fig17_service_c`",
     ["fig17.peak_reduction"], _percent(1)),
    # --- Ablations ----------------------------------------------------------
    ("EXPERIMENTS.md", "caps grow monotonically with the threshold ({}/{}/{})",
     ["ablation_warning.caps_at_90", "ablation_warning.caps_at_95",
      "ablation_warning.caps_at_99"], _fixed(0)),
    ("EXPERIMENTS.md", "fair-share capping inflicts {}× the bystander",
     ["ablation_capping.penalty_ratio"], _fixed(2)),
    ("EXPERIMENTS.md", "({} W vs {} W)",
     ["ablation_power_model.v2f_delta", "ablation_power_model.linear_delta"],
     (_fixed(1), _fixed(2))),
    ("EXPERIMENTS.md", "cover {} % of a 3 h weekday peak",
     ["ablation_epoch.week"], _percent(0)),
    ("EXPERIMENTS.md", "vs {} % for day epochs", ["ablation_epoch.day"],
     _percent(0)),
    ("EXPERIMENTS.md", "allow {} % overclocking on a 20 %-utilized core",
     ["ablation_online_wear.util_20"], _percent(1)),
    ("EXPERIMENTS.md", "but only {} % on a 90 %-utilized one",
     ["ablation_online_wear.util_90"], _percent(1)),
    ("EXPERIMENTS.md", "imbalance {} W → {} W",
     ["ablation_placement.resource_centric_imbalance",
      "ablation_placement.power_aware_imbalance"], _fixed(1)),
    ("EXPERIMENTS.md", "(vs {} under first-fit)",
     ["ablation_placement.resource_centric_locked_out"], _fixed(0)),
    ("EXPERIMENTS.md", "medium P99 {} → {} ms",
     ["ablation_trigger.metrics_medium_p99",
      "ablation_trigger.schedule_medium_p99"], _fixed(1)),
    # --- README "at a glance" -----------------------------------------------
    ("README.md", "| −{} % |\n", ["table1.high_cap_reduction_vs_naive"],
     _percent(1)),
    ("README.md", "({} vs", ["table1.medium_success_smart"], _percent(1)),
    ("README.md", "(Fig. 13) | −{} % |", ["fig13.instance_saving_high"],
     _percent(0)),
    ("README.md", "(Fig. 17) | −{} % |", ["fig17.peak_reduction"],
     _percent(1)),
]


def _recorded(key: str) -> float:
    section, name = key.split(".")
    return RESULTS[section][name]


@pytest.mark.parametrize("document, text, keys, render", QUOTES,
                         ids=[f"{doc}:{'+'.join(keys)}"
                              for doc, _, keys, _ in QUOTES])
def test_quoted_numbers_render_from_recorded_results(document, text, keys,
                                                     render):
    renders = render if isinstance(render, tuple) else (render,) * len(keys)
    quoted = text.format(*(r(_recorded(key))
                           for r, key in zip(renders, keys)))
    assert quoted in (REPO / document).read_text()
