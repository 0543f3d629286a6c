"""Synthetic production traces.

The paper's large-scale evaluation replays 6 weeks of power/utilization
telemetry from 7.1k production racks at 5-minute granularity.  Those traces
are proprietary, so this package generates synthetic equivalents with the
statistical properties the paper's analysis depends on (see DESIGN.md):
diurnal + weekly repeatability, per-server heterogeneity within a rack,
statistical multiplexing of heterogeneous services, regional noise levels,
occasional outlier days, and per-workload overclocking-demand windows.
"""
