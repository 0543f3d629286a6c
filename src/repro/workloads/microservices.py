"""SocialNet-style microservice models.

Reproduces the workload side of the paper's §III Q1 and §V-A experiments:
eight latency-critical microservices (DeathStarBench SocialNet) with
heterogeneous queueing characteristics, so that

* some services (*Usr*) tolerate high CPU utilization without violating
  their SLO (many parallel workers → economy of scale), while
* others (*UrlShort*) violate the SLO even at low utilization (a single
  serial worker with a long service time → the tail blows up early).

This heterogeneity is exactly why the paper argues a workload-agnostic
CPU-utilization trigger is suboptimal.

SLO convention (paper §III/§V-A): SLO = ``slo_multiplier`` (default 5) ×
the service's execution time on an unloaded system at max turbo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.workloads.queueing import (
    MMcQueue,
    frequency_speedup,
)

__all__ = [
    "MicroserviceSpec",
    "MicroserviceInstance",
    "MicroserviceDeployment",
    "SOCIALNET_SERVICES",
    "overload_clamp",
    "socialnet_service",
]

#: Frequency used as the reference point for SLOs and speedups (max turbo).
TURBO_GHZ = 3.3

# Per-worker load past which the analytic model stops (see
# :func:`overload_clamp`), and the latency growth per unit of excess load.
_RHO_CLAMP = 0.98
_OVERLOAD_SLOPE = 40.0


def overload_clamp(offered_rho: float) -> tuple[float, float]:
    """The per-worker load the analytic model is evaluated at, and the
    factor its latencies are scaled by.

    Up to ``_RHO_CLAMP`` that is ``(offered_rho, 1.0)``.  Past it the
    backlog grows without bound; the model stays at the clamp and the
    latency grows linearly in the excess load, so tick-based experiments
    see finite but clearly SLO-violating numbers.
    """
    if offered_rho > _RHO_CLAMP:
        return _RHO_CLAMP, 1.0 + _OVERLOAD_SLOPE * (offered_rho - _RHO_CLAMP)
    return offered_rho, 1.0


@dataclass(frozen=True)
class MicroserviceSpec:
    """Static description of one microservice tier.

    ``unloaded_ms`` — mean service time at max turbo on an idle system;
    ``workers`` — concurrent request-processing workers per VM instance
    (bounded by the instance's cores);
    ``freq_sensitivity`` — frequency-bound fraction of the work in [0, 1];
    ``slo_multiplier`` — SLO as a multiple of the unloaded latency.
    """

    name: str
    unloaded_ms: float
    workers: int
    freq_sensitivity: float
    slo_multiplier: float = 5.0

    def __post_init__(self) -> None:
        if self.unloaded_ms <= 0:
            raise ValueError(f"unloaded_ms must be > 0: {self.unloaded_ms}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1: {self.workers}")
        if not 0.0 <= self.freq_sensitivity <= 1.0:
            raise ValueError(
                f"freq_sensitivity must be in [0, 1]: {self.freq_sensitivity}")
        if self.slo_multiplier <= 1.0:
            raise ValueError(
                f"slo_multiplier must be > 1: {self.slo_multiplier}")

    @property
    def slo_ms(self) -> float:
        """Tail-latency SLO in milliseconds."""
        return self.slo_multiplier * self.unloaded_ms

    def service_rate(self, freq_ghz: float) -> float:
        """Per-worker service rate (req/s) at ``freq_ghz``."""
        base = 1000.0 / self.unloaded_ms
        return base * frequency_speedup(freq_ghz, TURBO_GHZ,
                                        self.freq_sensitivity)

    def capacity(self, freq_ghz: float) -> float:
        """Max sustainable arrival rate per instance (req/s) at ``freq``."""
        return self.workers * self.service_rate(freq_ghz)

    def rho_for_slo(self, freq_ghz: float = TURBO_GHZ) -> float:
        """Per-worker load ρ at which the P99 latency exactly hits the SLO.

        This is the service's *SLO-critical load*: a fragile serial
        service (UrlShort) hits its SLO at a much lower utilization than a
        wide parallel one (Usr) — the heterogeneity behind §III Q1.  Found
        by bisection; every spec meets its SLO as ρ → 0 because the
        unloaded P99 is ln(100) ≈ 4.6 times the mean service time, below
        the 5× SLO.
        """
        mu = self.service_rate(freq_ghz)

        def p99_ms(rho: float) -> float:
            queue = MMcQueue(rho * self.workers * mu, mu, self.workers)
            return queue.p99_response() * 1000.0

        lo, hi = 1e-6, 0.999
        if p99_ms(lo) >= self.slo_ms:
            return lo
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if p99_ms(mid) < self.slo_ms:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


#: The eight SocialNet services profiled in Figs. 2-3.  Parameters are
#: chosen to reproduce the paper's qualitative findings: *Usr* has many
#: parallel workers (tolerates high utilization), *UrlShort* is serial and
#: slow (violates its SLO at low utilization), *Media* and *Text* are
#: comparatively memory-bound (low frequency sensitivity).
SOCIALNET_SERVICES: tuple[MicroserviceSpec, ...] = (
    MicroserviceSpec("ComposePost", unloaded_ms=2.0, workers=4,
                     freq_sensitivity=0.85),
    MicroserviceSpec("HomeTimeline", unloaded_ms=1.5, workers=6,
                     freq_sensitivity=0.80),
    MicroserviceSpec("UserTimeline", unloaded_ms=1.8, workers=6,
                     freq_sensitivity=0.75),
    MicroserviceSpec("SocialGraph", unloaded_ms=1.0, workers=4,
                     freq_sensitivity=0.70),
    MicroserviceSpec("UrlShort", unloaded_ms=3.0, workers=1,
                     freq_sensitivity=0.90),
    MicroserviceSpec("Usr", unloaded_ms=0.8, workers=12,
                     freq_sensitivity=0.90),
    MicroserviceSpec("Text", unloaded_ms=1.2, workers=4,
                     freq_sensitivity=0.50),
    MicroserviceSpec("Media", unloaded_ms=6.0, workers=8,
                     freq_sensitivity=0.40),
)


def socialnet_service(name: str) -> MicroserviceSpec:
    """Look up one of the eight SocialNet services by name."""
    for spec in SOCIALNET_SERVICES:
        if spec.name == name:
            return spec
    raise KeyError(f"unknown SocialNet service {name!r}; choose from "
                   f"{[s.name for s in SOCIALNET_SERVICES]}")


class MicroserviceInstance:
    """One VM instance of a microservice: a frequency-scaled M/M/c station.

    The instance exposes the telemetry the Workload Intelligence agents
    consume (tail latency, CPU utilization) as analytic functions of its
    current arrival rate and core frequency.
    """

    def __init__(self, spec: MicroserviceSpec,
                 freq_ghz: float = TURBO_GHZ) -> None:
        self.spec = spec
        self.freq_ghz = freq_ghz
        self.arrival_rate = 0.0
        # The last latency query: its exact inputs and its answer.  A
        # latency is a pure function of the inputs, so a hit can never be
        # stale and no setter needs to invalidate it.
        self._memo_key: Optional[tuple[MicroserviceSpec, float, float,
                                       Optional[float]]] = None
        self._memo_ms = 0.0

    def set_load(self, arrival_rate: float) -> None:
        if arrival_rate < 0:
            raise ValueError(f"arrival rate must be >= 0: {arrival_rate}")
        self.arrival_rate = arrival_rate

    def set_frequency(self, freq_ghz: float) -> None:
        if freq_ghz <= 0:
            raise ValueError(f"frequency must be > 0: {freq_ghz}")
        self.freq_ghz = freq_ghz

    @property
    def utilization(self) -> float:
        """CPU utilization in [0, 1] (offered load, clamped)."""
        cap = self.spec.capacity(self.freq_ghz)
        return min(1.0, self.arrival_rate / cap)

    @property
    def offered_rho(self) -> float:
        """Unclamped offered load per worker (may exceed 1 under overload)."""
        return self.arrival_rate / self.spec.capacity(self.freq_ghz)

    def _latency_ms(self, quantile: Optional[float]) -> float:
        """Mean latency (``quantile`` None) or a latency quantile, in ms."""
        key = (self.spec, self.arrival_rate, self.freq_ghz, quantile)
        if key == self._memo_key:
            return self._memo_ms
        rho, scale = overload_clamp(self.offered_rho)
        mu = self.spec.service_rate(self.freq_ghz)
        queue = MMcQueue(rho * self.spec.workers * mu, mu, self.spec.workers)
        if quantile is None:
            seconds = queue.mean_response()
        else:
            seconds = queue.response_quantile(quantile)
        latency = seconds * 1000.0 * scale
        self._memo_key, self._memo_ms = key, latency
        return latency

    def mean_latency_ms(self) -> float:
        return self._latency_ms(None)

    def p99_latency_ms(self) -> float:
        return self._latency_ms(0.99)

    def latency_quantile_ms(self, q: float) -> float:
        return self._latency_ms(q)

    def meets_slo(self) -> bool:
        return self.p99_latency_ms() <= self.spec.slo_ms

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MicroserviceInstance({self.spec.name}, "
                f"f={self.freq_ghz:.2f}GHz, rho={self.offered_rho:.2f})")


class MicroserviceDeployment:
    """A load-balanced group of identical instances of one service.

    The deployment is what the autoscaler and the Global WI agent reason
    about: total arrival rate is split evenly across instances, and
    deployment-level latency equals instance latency (identical stations).
    """

    def __init__(self, spec: MicroserviceSpec, initial_instances: int = 1,
                 freq_ghz: float = TURBO_GHZ) -> None:
        if initial_instances < 1:
            raise ValueError(
                f"need at least 1 instance: {initial_instances}")
        self.spec = spec
        self.total_rate = 0.0
        self.instances: list[MicroserviceInstance] = [
            MicroserviceInstance(spec, freq_ghz)
            for _ in range(initial_instances)
        ]

    @property
    def n_instances(self) -> int:
        return len(self.instances)

    def set_load(self, total_rate: float) -> None:
        if total_rate < 0:
            raise ValueError(f"total rate must be >= 0: {total_rate}")
        self.total_rate = total_rate
        self._rebalance()

    def _rebalance(self) -> None:
        per_instance = self.total_rate / len(self.instances)
        for instance in self.instances:
            instance.set_load(per_instance)

    def scale_to(self, n: int) -> None:
        """Add or remove instances; new instances start at turbo."""
        if n < 1:
            raise ValueError(f"need at least 1 instance: {n}")
        while len(self.instances) < n:
            self.instances.append(MicroserviceInstance(self.spec, TURBO_GHZ))
        while len(self.instances) > n:
            self.instances.pop()
        self._rebalance()

    def set_frequency(self, freq_ghz: float) -> None:
        for instance in self.instances:
            instance.set_frequency(freq_ghz)

    def p99_latency_ms(self) -> float:
        return max(i.p99_latency_ms() for i in self.instances)

    def mean_latency_ms(self) -> float:
        return float(np.mean([i.mean_latency_ms() for i in self.instances]))

    def mean_utilization(self) -> float:
        return float(np.mean([i.utilization for i in self.instances]))

    def meets_slo(self) -> bool:
        return self.p99_latency_ms() <= self.spec.slo_ms

    def required_instances(self, total_rate: float,
                           freq_ghz: float = TURBO_GHZ,
                           target_rho: float = 0.7) -> int:
        """Instances needed to keep per-worker load at ``target_rho``."""
        if not 0 < target_rho < 1:
            raise ValueError(f"target_rho must be in (0, 1): {target_rho}")
        capacity = self.spec.capacity(freq_ghz) * target_rho
        return max(1, math.ceil(total_rate / capacity))
