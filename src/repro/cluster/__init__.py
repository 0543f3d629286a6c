"""Datacenter cluster substrate.

Models the physical plant SmartOClock manages: the datacenter → rack →
server → VM → core topology (:mod:`repro.cluster.topology`), the per-core
DVFS / voltage model (:mod:`repro.cluster.frequency`), the server power
model (:mod:`repro.cluster.power`), and the rack power-capping subsystem
with warning messages and prioritized throttling
(:mod:`repro.cluster.capping`).
"""
