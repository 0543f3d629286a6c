#!/usr/bin/env python3
"""Trace-driven fleet study: generate a synthetic production fleet,
compare the §V-B policies on it, and print a Table-I-style summary.

This is the paper's large-scale simulation pipeline in miniature —
scale ``n_racks``/``weeks`` up for a full-size run.

Run with::

    python examples/trace_driven_fleet.py
"""

import numpy as np

from repro.experiments.largescale import (
    compare_policies_streaming,
    format_table1,
)
from repro.prediction.predictor import evaluate_template
from repro.prediction.templates import TemplateKind
from repro.traces.synthetic import FleetConfig, generate_fleet

WEEK = 7 * 86400.0


def main() -> None:
    print("generating a synthetic high-power fleet "
          "(8 racks x 3 weeks at 5-minute granularity)...")
    config = FleetConfig(n_racks=8, weeks=3, seed=42,
                         p99_util_beta=(2.0, 2.0),
                         p99_util_range=(0.86, 0.96))
    fleet = generate_fleet(config)

    stats = fleet.rack_utilization_stats()
    print(f"  median rack P99 power utilization: "
          f"{float(np.median(stats['p99'])):.2f}")

    # --- how predictable is this fleet? ----------------------------------
    rack = fleet.racks[0]
    power = rack.total_power()
    hist = rack.times < WEEK
    print("\ntemplate accuracy on rack 0 (RMSE, W):")
    for kind in TemplateKind:
        ev = evaluate_template(kind, rack.times[hist], power[hist],
                               rack.times[~hist], power[~hist])
        print(f"  {kind.value:<9} {ev.rmse:8.1f}")

    # --- policy comparison -------------------------------------------------
    print("\nrunning the six policies over every rack "
          "(weeks 2-3 scored)...")
    scores = compare_policies_streaming(config)
    print(format_table1({"This fleet": scores}))

    smart = scores["SmartOClock"]
    naive = scores["NaiveOClock"]
    print(f"\nSmartOClock vs NaiveOClock: "
          f"{1 - smart.cap_events / max(1, naive.cap_events):.0%} fewer "
          f"capping events, success rate "
          f"{naive.success_rate:.0%} -> {smart.success_rate:.0%}")


if __name__ == "__main__":
    main()
