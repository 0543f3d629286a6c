"""Durable checkpoints for sOA control-plane state.

The sOA's *durable* state — wear counters, template store history, the
grant ledger, and the last budget assignment — serializes to an in-sim
:class:`DurableStore` on a configurable cadence.  A restarted sOA
restores the latest checkpoint and re-derives everything else (stale
budget margins from the restored assignment age, templates from the
restored history); nothing is replayed.

Checkpoints are plain JSON-compatible payloads so equality is exact and
the round-trip property (checkpoint → restore → checkpoint is
bit-identical) is testable via canonical fingerprints.

This module owns the canonical encoding: ``json.dumps(value,
sort_keys=True, separators=(",", ":"))``.  A part that many checkpoints
share — the rack-wide budget series, about 90 % of an sOA body — is held
as a :class:`CanonicalFragment` that carries its own text, and the
encoder splices that text in instead of encoding the part again.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, NoReturn, Optional, Union

__all__ = ["CanonicalFragment", "SoaCheckpoint", "GoaCheckpoint",
           "RestoreReport", "CheckpointLoad", "DurableStore"]

# json.dumps builds a new encoder on every call that passes options; this
# one, configured the same way, serves every call here.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _canonical_json(value: Any) -> str:
    """``json.dumps(value, sort_keys=True, separators=(",", ":"))``, with
    each :class:`CanonicalFragment` spliced in as its cached text.

    ``json.dumps`` writes a str-keyed dict as ``{`` + ``key:value`` pairs
    in sorted key order joined by ``,`` + ``}``, each value written by the
    same rules, so a value's text can be produced on its own and spliced.
    Only such dicts are descended into; any other value — a list, a
    scalar, a dict with a non-str key — is encoded whole, exactly as
    ``json.dumps`` would (a fragment inside it is then encoded as the
    plain dict it also is).
    """
    if isinstance(value, CanonicalFragment):
        return value.text
    if isinstance(value, dict) and all(isinstance(k, str) for k in value):
        return "{" + ",".join(
            f"{_ENCODER.encode(key)}:{_canonical_json(item)}"
            for key, item in sorted(value.items())) + "}"
    return _ENCODER.encode(value)


class CanonicalFragment(dict[str, Any]):
    """A read-only dict that carries its canonical JSON text.

    The text is encoded once, at construction, and every body that holds
    the fragment splices it in (:func:`_canonical_json`), so those bodies
    are byte-identical to encoding the plain dict.  For that the mapping
    cannot change after construction: writes raise, and every value must
    be immutable — hashable, such as a tuple of floats — so a restore
    reads exactly the values that were fingerprinted.  It compares equal
    to any dict with equal items.
    """

    __slots__ = ("_text",)

    def __init__(self, items: Mapping[str, Any]) -> None:
        super().__init__(items)
        hash(tuple(self.values()))  # TypeError on a mutable value
        self._text = _ENCODER.encode(self)

    @property
    def text(self) -> str:
        return self._text

    def _read_only(self, *args: object, **kwargs: object) -> NoReturn:
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


def _sha256(body: bytes) -> str:
    return hashlib.sha256(body).hexdigest()


@dataclass(frozen=True)
class SoaCheckpoint:
    """One durable snapshot of an sOA's checkpointed state."""

    server_id: str
    taken_at: float
    payload: dict[str, Any]

    def canonical_body(self) -> bytes:
        """Canonical JSON encoding — what the durable store fingerprints
        (and what a corruption fault flips bytes of)."""
        return _canonical_json(
            {"server_id": self.server_id, "taken_at": self.taken_at,
             "payload": self.payload}).encode("utf-8")

    def fingerprint(self) -> str:
        """SHA-256 over the canonical JSON encoding of the snapshot —
        the identity used by the bit-identical round-trip tests."""
        return _sha256(self.canonical_body())


@dataclass(frozen=True)
class GoaCheckpoint:
    """One durable snapshot of a gOA's HA-relevant state.

    Far smaller than an sOA checkpoint by design: a promoted standby
    rebuilds profiles by *re-pulling* them from the live sOAs, so the
    only state that must survive a primary's death is the fencing epoch
    (and bookkeeping around it).  See :mod:`repro.core.goa_ha`.
    """

    rack_id: str
    taken_at: float
    payload: dict[str, Any]

    def canonical_body(self) -> bytes:
        return _canonical_json(
            {"rack_id": self.rack_id, "taken_at": self.taken_at,
             "payload": self.payload}).encode("utf-8")

    def fingerprint(self) -> str:
        return _sha256(self.canonical_body())


@dataclass(frozen=True)
class RestoreReport:
    """What a restarted sOA did with its checkpoint (audit record)."""

    server_id: str
    restored_at: float
    checkpoint_taken_at: Optional[float]  # None → cold start, no checkpoint
    grants_kept: int
    grants_revoked: int
    assignment_age_s: Optional[float]     # None → no assignment restored
    stale_margin: float
    checkpoint_budget_watts: Optional[float]
    restored_budget_watts: Optional[float]
    # True when a checkpoint existed but failed fingerprint verification:
    # the restore deliberately fell back to a cold start rather than
    # trusting corrupted durable state.
    checkpoint_corrupted: bool = False

    @property
    def cold_start(self) -> bool:
        return self.checkpoint_taken_at is None

    @property
    def overgranted(self) -> bool:
        """True if the restored sOA considers itself entitled to more
        budget than the checkpointed assignment allows — the invariant
        `repro recovery` fails the run on."""
        if self.checkpoint_budget_watts is None \
                or self.restored_budget_watts is None:
            return False
        return (self.restored_budget_watts
                > self.checkpoint_budget_watts + 1e-9)


_AnyCheckpoint = Union[SoaCheckpoint, GoaCheckpoint]

#: Decides per save event whether the written bytes rot on the medium.
#: Installed by the fault injector; the key is the server id (or
#: ``goa:<rack_id>`` for gOA checkpoints) and the float is ``taken_at``.
CorruptionHook = Callable[[str, float], bool]


@dataclass(frozen=True)
class CheckpointLoad:
    """Outcome of a verified load: at most one of the two is truthy."""

    checkpoint: Optional[_AnyCheckpoint]
    corrupted: bool = False


@dataclass
class _Stored:
    """One durable slot: the record plus its save-time fingerprint.

    ``corrupt_body`` is None for a healthy save.  When a corruption
    fault hit the write, it holds the canonical bytes *as the medium
    kept them* (one flipped byte) — verification then recomputes the
    hash over those bytes and the mismatch is detected at load time,
    exactly like a real fingerprint-checked store."""

    value: _AnyCheckpoint
    fingerprint: str
    corrupt_body: Optional[bytes] = None


def _flip_byte(body: bytes, key: str, taken_at: float) -> bytes:
    """Deterministic single-byte corruption (no RNG: the *whether* is the
    injector's seeded coin, the *where* is a pure function of the event)."""
    index = zlib.crc32(f"{key}@{taken_at}".encode("utf-8")) % len(body)
    flipped = bytearray(body)
    flipped[index] ^= 0xFF
    return bytes(flipped)


@dataclass
class DurableStore:
    """The in-sim durable storage service (one per platform).

    Keeps the latest checkpoint per server (and per rack gOA) —
    SmartOClock's checkpoints fully supersede each other, so retaining
    history would only model storage we never read.

    Every ``save`` records the checkpoint's SHA-256 fingerprint; every
    load re-verifies it.  A record whose bytes rotted (the
    ``CheckpointCorruptionFault`` path) fails verification and loads as
    *corrupted* — callers fall back to a cold start instead of trusting
    durable state the control plane never wrote.
    """

    checkpoints_saved: int = 0
    checkpoints_loaded: int = 0       # verified successful loads only
    checkpoints_corrupted: int = 0    # saves whose bytes rotted
    corruption_detected: int = 0      # loads that failed verification
    corruption_hook: Optional[CorruptionHook] = None
    _latest: dict[str, _Stored] = field(default_factory=dict)

    # -- generic verified slots ---------------------------------------

    def _store(self, key: str, value: _AnyCheckpoint,
               taken_at: float) -> None:
        self.checkpoints_saved += 1
        stored = _Stored(value=value, fingerprint=value.fingerprint())
        if self.corruption_hook is not None \
                and self.corruption_hook(key, taken_at):
            stored.corrupt_body = _flip_byte(
                value.canonical_body(), key, taken_at)
            self.checkpoints_corrupted += 1
        self._latest[key] = stored

    def _fetch(self, key: str) -> CheckpointLoad:
        stored = self._latest.get(key)
        if stored is None:
            return CheckpointLoad(checkpoint=None)
        if stored.corrupt_body is not None:
            body = stored.corrupt_body
        else:
            body = stored.value.canonical_body()
        if _sha256(body) != stored.fingerprint:
            self.corruption_detected += 1
            return CheckpointLoad(checkpoint=None, corrupted=True)
        self.checkpoints_loaded += 1
        return CheckpointLoad(checkpoint=stored.value)

    # -- sOA checkpoints ------------------------------------------------

    def save(self, checkpoint: SoaCheckpoint) -> None:
        self._store(checkpoint.server_id, checkpoint, checkpoint.taken_at)

    def load_verified(self, server_id: str) -> CheckpointLoad:
        """Load + fingerprint-verify; distinguishes missing from rotten."""
        return self._fetch(server_id)

    def load(self, server_id: str) -> Optional[SoaCheckpoint]:
        """Verified load; a corrupted record loads as None (the caller
        cold-starts).  Use :meth:`load_verified` to tell the two apart."""
        result = self._fetch(server_id)
        checkpoint = result.checkpoint
        assert checkpoint is None or isinstance(checkpoint, SoaCheckpoint)
        return checkpoint

    def has_checkpoint(self, server_id: str) -> bool:
        """A record exists for ``server_id`` (it may still be rotten)."""
        return server_id in self._latest

    # -- gOA checkpoints --------------------------------------------------

    @staticmethod
    def goa_key(rack_id: str) -> str:
        return f"goa:{rack_id}"

    def save_goa(self, checkpoint: GoaCheckpoint) -> None:
        self._store(self.goa_key(checkpoint.rack_id), checkpoint,
                    checkpoint.taken_at)

    def load_goa(self, rack_id: str) -> CheckpointLoad:
        return self._fetch(self.goa_key(rack_id))
