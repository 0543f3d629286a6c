"""Reference copies of the latency model as it was before its terms were
precomputed: the oracle the equivalence tests compare the production
code against with ``==``.

``ReferenceMMcQueue`` recomputes θ and Erlang-C and evaluates four
exponentials on every tail call; ``ReferenceAggregator`` keeps one entry
per tick, builds a station per entry per query and always runs all 80
halvings of its bisection.  Its mixture sums are written as the plain
left fold that ``sum()`` performed on CPython 3.11 (from 3.12 ``sum()``
of floats is compensated and returns other bits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.workloads.queueing import OverloadedQueueError


class ReferenceMMcQueue:
    """Closed-form M/M/c queue, every term recomputed per call."""

    def __init__(self, arrival_rate: float, service_rate: float,
                 servers: int) -> None:
        if arrival_rate < 0:
            raise ValueError(f"arrival rate must be >= 0: {arrival_rate}")
        if service_rate <= 0:
            raise ValueError(f"service rate must be > 0: {service_rate}")
        if servers < 1:
            raise ValueError(f"need at least 1 server: {servers}")
        self.arrival_rate = arrival_rate
        self.service_rate = service_rate
        self.servers = servers

    @property
    def utilization(self) -> float:
        return self.arrival_rate / (self.servers * self.service_rate)

    @property
    def stable(self) -> bool:
        return self.utilization < 1.0

    def erlang_c(self) -> float:
        if self.arrival_rate == 0:
            return 0.0
        if not self.stable:
            return 1.0
        c = self.servers
        a = self.arrival_rate / self.service_rate
        rho = self.utilization
        term = 1.0
        partial_sum = term
        for k in range(1, c):
            term *= a / k
            partial_sum += term
        term_c = term * a / c
        numerator = term_c / (1.0 - rho)
        return numerator / (partial_sum + numerator)

    def mean_wait(self) -> float:
        self._require_stable()
        if self.arrival_rate == 0:
            return 0.0
        theta = self.servers * self.service_rate - self.arrival_rate
        return self.erlang_c() / theta

    def mean_response(self) -> float:
        self._require_stable()
        return self.mean_wait() + 1.0 / self.service_rate

    def response_tail(self, t: float) -> float:
        self._require_stable()
        if t < 0:
            return 1.0
        mu = self.service_rate
        theta = self.servers * mu - self.arrival_rate
        pw = self.erlang_c()
        if abs(mu - theta) < 1e-12 * mu:
            return ((1.0 - pw) * math.exp(-mu * t)
                    + pw * math.exp(-theta * t)
                    + pw * theta * t * math.exp(-mu * t))
        tail = ((1.0 - pw) * math.exp(-mu * t)
                + pw * math.exp(-theta * t)
                + pw * theta * (math.exp(-theta * t) - math.exp(-mu * t))
                / (mu - theta))
        return min(1.0, max(0.0, tail))

    def response_quantile(self, q: float) -> float:
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

    def _require_stable(self) -> None:
        if not self.stable:
            raise OverloadedQueueError("queue unstable")


@dataclass(frozen=True)
class _TickEntry:
    weight: float
    lam: float
    mu: float
    servers: int
    overload_scale: float
    slo_ms: float


class ReferenceAggregator:
    """One entry and one fresh station per tick, 80 full halvings."""

    def __init__(self) -> None:
        self._entries: list[_TickEntry] = []
        self._total_weight = 0.0

    def add_tick(self, *, weight: float, offered_rho: float, mu: float,
                 servers: int, slo_ms: float) -> None:
        if weight <= 0:
            return
        rho = min(offered_rho, 0.98)
        scale = 1.0
        if offered_rho > 0.98:
            scale = 1.0 + 40.0 * (offered_rho - 0.98)
        lam = rho * servers * mu
        self._entries.append(_TickEntry(weight, lam, mu, servers, scale,
                                        slo_ms))
        self._total_weight += weight

    def _tail_at(self, entry: _TickEntry, t_ms: float) -> float:
        queue = ReferenceMMcQueue(entry.lam, entry.mu, entry.servers)
        t = (t_ms / 1000.0) / entry.overload_scale
        return queue.response_tail(t)

    def tail(self, t_ms: float) -> float:
        mass = 0.0
        for e in self._entries:
            mass += e.weight * self._tail_at(e, t_ms)
        return mass / self._total_weight

    def p99_ms(self) -> float:
        target = 1.0 - 0.99
        lo, hi = 0.0, 1.0
        while self.tail(hi) > target:
            hi *= 2.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if self.tail(mid) > target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def mean_ms(self) -> float:
        total = 0.0
        for e in self._entries:
            queue = ReferenceMMcQueue(e.lam, e.mu, e.servers)
            total += e.weight * queue.mean_response() * 1000.0 \
                * e.overload_scale
        return total / self._total_weight

    def missed_slo_fraction(self) -> float:
        mass = 0.0
        for e in self._entries:
            mass += e.weight * self._tail_at(e, e.slo_ms)
        return mass / self._total_weight
