"""Queueing models for latency-critical services.

Two implementations of the same physics, used to cross-validate each other:

* :class:`MMcQueue` — closed-form M/M/c (Erlang-C) response-time
  distribution; exact for Poisson arrivals and exponential service.
* :func:`simulate_mgc` / :class:`QueueSimulator` — request-level
  discrete-event simulation of a G/G/c FCFS station; supports lognormal
  service times for heavy-tailed services.

Frequency scaling enters through the service rate: a core at frequency
``f`` completes work at ``mu(f) = mu_turbo * speedup(f)`` where the speedup
depends on how frequency-bound the service is (memory-bound services gain
less — paper §I: "overclocking the CPU of a memory-bound workload ... will
not provide much benefit").
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.sim.metrics import empirical_quantile

__all__ = ["MMcQueue", "QueueSimulator", "simulate_mgc", "frequency_speedup"]


def frequency_speedup(freq_ghz: float, base_freq_ghz: float,
                      sensitivity: float = 1.0) -> float:
    """Throughput multiplier when moving from ``base_freq`` to ``freq``.

    ``sensitivity`` in [0, 1] is the frequency-bound fraction of the work
    (Amdahl-style): 1.0 → fully core-bound (speedup = f/f0), 0.0 → fully
    memory-bound (no speedup).
    """
    if freq_ghz <= 0 or base_freq_ghz <= 0:
        raise ValueError("frequencies must be positive")
    if not 0.0 <= sensitivity <= 1.0:
        raise ValueError(f"sensitivity must be in [0, 1], got {sensitivity}")
    ratio = freq_ghz / base_freq_ghz
    # time(f) = (1 - s) * t0 + s * t0 / ratio  →  speedup = t0 / time(f)
    return 1.0 / ((1.0 - sensitivity) + sensitivity / ratio)


class MMcQueue:
    """Closed-form M/M/c queue.

    ``arrival_rate`` (λ, req/s), ``service_rate`` (μ, req/s per server),
    ``servers`` (c).  Stable only for ρ = λ/(cμ) < 1; latency queries on an
    unstable queue raise, because an overloaded microservice has unbounded
    tail latency and callers must handle that explicitly.

    A station is immutable: everything that does not depend on the query
    time — ρ, the Erlang-C wait probability, θ = cμ - λ and the products
    the tail formula reuses — is computed once, at construction, so it
    can never go stale.  Each hoisted product is the subexpression Python
    evaluated first in the per-call formula, so every query returns the
    same bits it did when the terms were recomputed per call (DESIGN.md,
    "Latency model").
    """

    __slots__ = ("arrival_rate", "service_rate", "servers", "utilization",
                 "stable", "_pw", "_theta", "_one_minus_pw", "_pw_theta",
                 "_neg_mu", "_neg_theta", "_mu_minus_theta", "_degenerate")

    arrival_rate: float
    service_rate: float
    servers: int
    #: Offered load per server, ρ = λ / (cμ).
    utilization: float
    stable: bool
    _pw: float               # Erlang-C wait probability
    _theta: float            # cμ - λ, the rate of the wait's tail
    _one_minus_pw: float
    _pw_theta: float
    _neg_mu: float
    _neg_theta: float
    _mu_minus_theta: float
    _degenerate: bool        # μ == θ: the t·e^{-μt} form of the tail

    def __init__(self, arrival_rate: float, service_rate: float,
                 servers: int) -> None:
        if arrival_rate < 0:
            raise ValueError(f"arrival rate must be >= 0: {arrival_rate}")
        if service_rate <= 0:
            raise ValueError(f"service rate must be > 0: {service_rate}")
        if servers < 1:
            raise ValueError(f"need at least 1 server: {servers}")
        mu = service_rate
        rho = arrival_rate / (servers * mu)
        theta = servers * mu - arrival_rate
        pw = _erlang_c(arrival_rate, mu, servers, rho)
        init = object.__setattr__
        init(self, "arrival_rate", arrival_rate)
        init(self, "service_rate", mu)
        init(self, "servers", servers)
        init(self, "utilization", rho)
        init(self, "stable", rho < 1.0)
        init(self, "_pw", pw)
        init(self, "_theta", theta)
        init(self, "_one_minus_pw", 1.0 - pw)
        init(self, "_pw_theta", pw * theta)
        init(self, "_neg_mu", -mu)
        init(self, "_neg_theta", -theta)
        init(self, "_mu_minus_theta", mu - theta)
        init(self, "_degenerate", abs(mu - theta) < 1e-12 * mu)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"MMcQueue is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"MMcQueue is immutable; cannot delete {name!r}")

    def erlang_c(self) -> float:
        """Probability that an arriving request must wait (Erlang-C)."""
        return self._pw

    def mean_wait(self) -> float:
        """Mean queueing delay E[W] (excluding service)."""
        self._require_stable()
        if self.arrival_rate == 0:
            return 0.0
        return self._pw / self._theta

    def mean_response(self) -> float:
        """Mean response time E[T] = E[W] + 1/μ."""
        self._require_stable()
        return self.mean_wait() + 1.0 / self.service_rate

    def response_tail(self, t: float) -> float:
        """P(T > t) for the FCFS response time T = W + S.

        W has an atom of mass (1 - Pw) at zero and an exponential tail with
        rate θ = cμ - λ; S ~ Exp(μ) independent of W.
        """
        self._require_stable()
        if t < 0:
            return 1.0
        em = math.exp(self._neg_mu * t)
        et = math.exp(self._neg_theta * t)
        if self._degenerate:
            # Degenerate case: identical rates, the convolution integral
            # produces a t * e^{-mu t} term.
            return (self._one_minus_pw * em + self._pw * et
                    + self._pw_theta * t * em)
        # The quotient stays (pw*θ*(et - em)) / (μ - θ): one coefficient
        # pw*θ/(μ - θ) would round differently.
        tail = (self._one_minus_pw * em + self._pw * et
                + self._pw_theta * (et - em) / self._mu_minus_theta)
        return min(1.0, max(0.0, tail))

    def response_quantile(self, q: float) -> float:
        """t such that P(T <= t) = q, by bisection on the closed-form tail."""
        if not 0.0 < q < 1.0:
            raise ValueError(f"q must be in (0, 1), got {q}")
        self._require_stable()
        target = 1.0 - q
        lo, hi = 0.0, 1.0 / self.service_rate
        while self.response_tail(hi) > target:
            hi *= 2.0
            if hi > 1e9:
                raise RuntimeError("quantile search diverged")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.response_tail(mid) > target:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-12 * max(1.0, hi):
                break
        return 0.5 * (lo + hi)

    def p99_response(self) -> float:
        return self.response_quantile(0.99)

    def _require_stable(self) -> None:
        if not self.stable:
            raise OverloadedQueueError(
                f"queue unstable: rho={self.utilization:.3f} "
                f"(lambda={self.arrival_rate}, c={self.servers}, "
                f"mu={self.service_rate})")


def _erlang_c(arrival_rate: float, service_rate: float, servers: int,
              rho: float) -> float:
    """Probability that an arriving request must wait (Erlang-C); 1.0 for
    an unstable queue (ρ >= 1)."""
    if arrival_rate == 0:
        return 0.0
    if not rho < 1.0:
        return 1.0
    c = servers
    a = arrival_rate / service_rate  # offered load in erlangs
    term = 1.0  # a^0 / 0!
    partial_sum = term
    for k in range(1, c):
        term *= a / k
        partial_sum += term
    term_c = term * a / c  # a^c / c!
    numerator = term_c / (1.0 - rho)
    return numerator / (partial_sum + numerator)


class OverloadedQueueError(RuntimeError):
    """Raised when latency is queried on an unstable queue (ρ >= 1)."""


@dataclass
class SimulatedLatencies:
    """Result of a request-level queue simulation."""

    latencies: np.ndarray
    waits: np.ndarray
    completed: int
    duration: float

    def mean(self) -> float:
        if self.completed == 0:
            raise ValueError("no completed requests")
        return float(np.mean(self.latencies))

    def quantile(self, q: float) -> float:
        """Sample quantile of completed-request latencies
        (:func:`repro.sim.metrics.empirical_quantile` convention)."""
        if self.completed == 0:
            raise ValueError("no completed requests")
        return empirical_quantile(self.latencies, q)

    def p99(self) -> float:
        return self.quantile(0.99)


class QueueSimulator:
    """Request-level G/G/c FCFS simulation.

    Arrivals: Poisson with rate λ.  Service: exponential (``cv=1``) or
    lognormal with squared coefficient of variation ``cv**2``.  This is the
    "ground truth" against which :class:`MMcQueue` is validated, and the
    engine behind heavy-tailed service experiments.
    """

    def __init__(self, arrival_rate: float, service_rate: float,
                 servers: int, *, cv: float = 1.0,
                 rng: Optional[np.random.Generator] = None,
                 seed: Optional[int] = None) -> None:
        if arrival_rate <= 0:
            raise ValueError(f"arrival rate must be > 0: {arrival_rate}")
        if service_rate <= 0:
            raise ValueError(f"service rate must be > 0: {service_rate}")
        if servers < 1:
            raise ValueError(f"need at least 1 server: {servers}")
        if cv <= 0:
            raise ValueError(f"cv must be > 0: {cv}")
        if rng is None and seed is None:
            # A hidden default (the old `rng or default_rng(0)`) silently
            # gave every station that omitted rng the *same* stream,
            # correlating supposedly independent queues.  Randomness must
            # be an explicit choice at the constructor boundary.
            raise ValueError(
                "QueueSimulator needs an explicit rng= or seed=; a hidden "
                "shared default would correlate independent stations")
        if rng is not None and seed is not None:
            raise ValueError("pass either rng= or seed=, not both")
        self.arrival_rate = arrival_rate
        self.service_rate = service_rate
        self.servers = servers
        self.cv = cv
        self.rng = rng if rng is not None else np.random.default_rng(seed)

    def _service_sample(self, n: int) -> np.ndarray:
        mean = 1.0 / self.service_rate
        if abs(self.cv - 1.0) < 1e-9:
            return self.rng.exponential(mean, size=n)
        # Lognormal with the requested mean and cv.
        sigma2 = math.log(1.0 + self.cv ** 2)
        mu = math.log(mean) - sigma2 / 2.0
        return self.rng.lognormal(mu, math.sqrt(sigma2), size=n)

    def run(self, n_requests: int) -> SimulatedLatencies:
        """Simulate ``n_requests`` arrivals through the station."""
        if n_requests < 1:
            raise ValueError(f"need at least 1 request: {n_requests}")
        inter = self.rng.exponential(1.0 / self.arrival_rate, size=n_requests)
        arrivals = np.cumsum(inter)
        services = self._service_sample(n_requests)
        # c-server FCFS: next free server from a min-heap of free times.
        free_at = [0.0] * self.servers
        heapq.heapify(free_at)
        latencies = np.empty(n_requests)
        waits = np.empty(n_requests)
        for i in range(n_requests):
            earliest = heapq.heappop(free_at)
            start = max(arrivals[i], earliest)
            finish = start + services[i]
            heapq.heappush(free_at, finish)
            waits[i] = start - arrivals[i]
            latencies[i] = finish - arrivals[i]
        return SimulatedLatencies(latencies=latencies, waits=waits,
                                  completed=n_requests,
                                  duration=float(arrivals[-1]))


def simulate_mgc(arrival_rate: float, service_rate: float, servers: int,
                 n_requests: int = 20000, cv: float = 1.0,
                 seed: int = 0) -> SimulatedLatencies:
    """One-shot wrapper around :class:`QueueSimulator`."""
    sim = QueueSimulator(arrival_rate, service_rate, servers, cv=cv,
                         rng=np.random.default_rng(seed))
    return sim.run(n_requests)
