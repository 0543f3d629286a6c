"""Server crash/recovery lifecycle for the SmartOClock control plane.

SmartOClock's headline is *risk-aware* overclocking: pushing cores past
turbo raises failure rates, and the platform must keep racks safe and
workloads alive when parts actually die (paper §II, §VI).  This package
closes the loop the fault-injection layer (PR 3) left open — servers can
crash, sOAs restart from durable checkpoints, the gOA redistributes dead
servers' budget share, crash-prone servers are quarantined, and VMs
evacuate to surviving same-rack servers:

* :mod:`repro.recovery.checkpoint` — durable sOA state snapshots and
  the in-sim :class:`DurableStore`;
* :mod:`repro.recovery.quarantine` — the risk controller blocking OC
  grants on crash-prone or wear-exhausted servers;
* :mod:`repro.recovery.lifecycle` — the per-tick crash / checkpoint /
  restore / evacuation driver.
"""
