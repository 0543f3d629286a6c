"""Workload models.

SmartOClock's evaluation exercises three workload classes:

* latency-critical microservices (DeathStarBench SocialNet) — modeled as
  queueing stations whose service rate scales with core frequency
  (:mod:`repro.workloads.microservices`, backed by the closed-form and
  simulated queues in :mod:`repro.workloads.queueing`);
* throughput-optimized ML training (FunctionBench MLTrain) —
  :mod:`repro.workloads.mltrain`;
* the WebConf conferencing application with deployment-level goals —
  :mod:`repro.workloads.webconf`.

Load shapes (diurnal, top-of-hour spikes, business-hours plateaus) come
from :mod:`repro.workloads.loadgen`.
"""
