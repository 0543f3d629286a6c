"""SmartOClock: the paper's contribution.

A distributed overclocking-management platform (paper §IV) built from:

* Workload Intelligence agents (:mod:`repro.core.workload_intelligence`) —
  metric- and schedule-based overclocking triggers with deployment-level
  aggregation and corrective actions;
* prediction-based admission control (:mod:`repro.core.admission`);
* heterogeneous rack-power budgeting (:mod:`repro.core.budgets`);
* decentralized enforcement: per-server prioritized feedback loop
  (:mod:`repro.core.enforcement`) plus explore/exploit beyond stale budgets
  (:mod:`repro.core.exploration`);
* the Server and Global Overclocking Agents (:mod:`repro.core.soa`,
  :mod:`repro.core.goa`) and the composed platform
  (:mod:`repro.core.platform`);
* the §V-B comparison policies (:mod:`repro.core.policies`).
"""
