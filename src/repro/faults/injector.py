"""Runtime fault injection: a :class:`FaultPlan` plus a seed.

Determinism contract: every probabilistic decision (message drop,
telemetry dropout) is drawn from a generator seeded by ``(plan seed,
event identity)`` — the event's kind, endpoint ids and timestamp — not
from one shared stream.  Two runs with the same plan and seed therefore
make identical decisions even if unrelated code changes how many other
random draws happen in between, which is what lets the faulted smoke
scenario assert bit-identical metrics.
"""

from __future__ import annotations

import zlib
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from repro.core.messaging import Envelope, MessageFate
from repro.faults.spec import FaultPlan

__all__ = ["FaultCounters", "FaultInjector", "event_entropy"]


@dataclass
class FaultCounters:
    """What the injector actually did during a run (telemetry for
    experiments and tests)."""

    goa_cycles_missed: int = 0
    messages_dropped: int = 0
    messages_delayed: int = 0
    telemetry_dropped: int = 0
    predictions_skewed: int = 0
    checkpoints_corrupted: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


def event_entropy(seed: int, *parts: object) -> list[int]:
    """SeedSequence entropy for one named event.

    The shared determinism scheme: hash the event's identity (kind,
    endpoint ids, timestamp) into the entropy pool so every decision is
    tied to *what happened*, not to how many draws preceded it.  The
    recovery subsystem reuses this for hazard-driven server crashes, so
    matched naive/SmartOClock runs flip the same coin for the same
    server at the same instant.
    """
    return [seed] + [zlib.crc32(str(p).encode("utf-8")) for p in parts]


# Backwards-compatible private alias (pre-recovery internal name).
_entropy = event_entropy


@dataclass
class FaultInjector:
    """Answers the platform's "does this fail right now?" questions."""

    plan: FaultPlan
    seed: int = 0
    counters: FaultCounters = field(default_factory=FaultCounters)

    def _bernoulli(self, prob: float, *identity: object) -> bool:
        """One reproducible coin flip tied to the event's identity."""
        if prob >= 1.0:
            return True
        if prob <= 0.0:
            return False
        rng = np.random.default_rng(
            np.random.SeedSequence(_entropy(self.seed, *identity)))
        return bool(rng.random() < prob)

    # ------------------------------------------------------------------
    # gOA outages
    # ------------------------------------------------------------------

    def goa_down(self, rack_id: str, now: float) -> bool:
        """True when the rack's gOA misses this update cycle."""
        if self.plan.goa_down(rack_id, now):
            self.counters.goa_cycles_missed += 1
            return True
        return False

    # ------------------------------------------------------------------
    # Message channel
    # ------------------------------------------------------------------

    def message_fate(self, rack_id: str, envelope: Envelope) -> MessageFate:
        dropped = False
        delay = 0.0
        for fault in self.plan.message_faults:
            if not fault.matches(rack_id, envelope.kind, envelope.sent_at):
                continue
            if fault.drop_prob > 0.0 and self._bernoulli(
                    fault.drop_prob, "msg", envelope.kind, envelope.src,
                    envelope.dst, envelope.sent_at):
                dropped = True
                break
            delay = max(delay, fault.delay_s)
        if dropped:
            self.counters.messages_dropped += 1
            return MessageFate(dropped=True)
        if delay > 0.0:
            self.counters.messages_delayed += 1
        return MessageFate(delay_s=delay)

    def channel_hook(self, rack_id: str) -> Callable[[Envelope], MessageFate]:
        """The fate hook to install on one rack's message channel."""
        def hook(envelope: Envelope) -> MessageFate:
            return self.message_fate(rack_id, envelope)
        return hook

    # ------------------------------------------------------------------
    # Telemetry dropouts
    # ------------------------------------------------------------------

    def telemetry_drop(self, server_id: str, now: float) -> bool:
        """True when this server's telemetry sample is lost."""
        for fault in self.plan.telemetry_dropouts:
            if fault.matches(server_id, now) and self._bernoulli(
                    fault.drop_prob, "telemetry", server_id, now):
                self.counters.telemetry_dropped += 1
                return True
        return False

    # ------------------------------------------------------------------
    # Checkpoint corruption
    # ------------------------------------------------------------------

    def checkpoint_corruption(self, key: str, taken_at: float) -> bool:
        """True when this checkpoint write rots on the durable medium."""
        for fault in self.plan.checkpoint_corruptions:
            if fault.matches(key, taken_at) and self._bernoulli(
                    fault.corrupt_prob, "ckpt", key, taken_at):
                self.counters.checkpoints_corrupted += 1
                return True
        return False

    def corruption_hook(self) -> Callable[[str, float], bool]:
        """The corruption hook to install on the platform's durable store."""
        def hook(key: str, taken_at: float) -> bool:
            return self.checkpoint_corruption(key, taken_at)
        return hook

    # ------------------------------------------------------------------
    # Misprediction skew
    # ------------------------------------------------------------------

    def prediction_scale(self, server_id: str, now: float) -> float:
        scale = self.plan.prediction_scale(server_id, now)
        if scale != 1.0:
            self.counters.predictions_skewed += 1
        return scale

    def prediction_hook(self, server_id: str) -> Callable[[float], float]:
        """The prediction-scale hook to install on one server's sOA."""
        def hook(now: float) -> float:
            return self.prediction_scale(server_id, now)
        return hook
