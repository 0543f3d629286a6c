"""Checkpoint bytes: the splicing encoder against ``json.dumps``, the save
fingerprints of a short chaos sweep pinned bit for bit, and load-time
verification of a checkpoint changed after it was saved.

``json.dumps(obj, sort_keys=True, separators=(",", ":"))`` is the oracle
throughout: it is how every checkpoint body was encoded before budget
fragments were cached, and every body must still read byte for byte the
same.  ``tests/golden/checkpoint_fingerprints.json`` was recorded with
that encoder.
"""

import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import topology
from repro.cluster.power import DEFAULT_POWER_MODEL
from repro.cluster.topology import Datacenter, Rack, Server, VirtualMachine
from repro.core.budgets import BudgetAssignment
from repro.core.platform import SmartOClockPlatform
from repro.core.workload_intelligence import MetricsTriggerPolicy
from repro.experiments.chaos import ChaosConfig, chaos_sweep
from repro.recovery.checkpoint import (
    CanonicalFragment,
    DurableStore,
    GoaCheckpoint,
    SoaCheckpoint,
)

GOLDEN = json.loads((Path(__file__).parents[1] / "golden"
                     / "checkpoint_fingerprints.json").read_text())


def oracle(obj) -> bytes:
    return json.dumps(obj, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def plain(value):
    """``value`` as it was checkpointed before fragments: plain dicts and
    lists all the way down."""
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    return value


def soa_body(checkpoint):
    return {"server_id": checkpoint.server_id,
            "taken_at": checkpoint.taken_at,
            "payload": plain(checkpoint.payload)}


# -- Hypothesis-drawn payloads ----------------------------------------------

special_floats = st.sampled_from([
    0.0, -0.0, math.ulp(0.0), -math.ulp(0.0), 2.2250738585072014e-308,
    1.7976931348623157e308, math.inf, -math.inf, math.nan, 0.1, 1e16])
tricky_text = st.sampled_from([
    "", '"', "\\", "\n\t\r", "\x00\x1f\x7f", "é", "☃", " ",
    "😀", "\ud800", "a\"b\\c"])
leaves = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    special_floats, st.text(max_size=8), tricky_text)
keys = st.one_of(st.text(max_size=6), tricky_text)
# Fragment values must be immutable: leaves and tuples of them.
frozen = st.recursive(leaves, lambda inner: st.lists(
    inner, max_size=4).map(tuple), max_leaves=8)
fragments = st.dictionaries(keys, frozen, max_size=4).map(CanonicalFragment)
values = st.recursive(
    st.one_of(leaves, fragments),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(keys, inner, max_size=4),
        st.dictionaries(st.integers(), inner, max_size=3),
        fragments),
    max_leaves=24)
payloads = st.dictionaries(keys, values, max_size=5)


class TestEncoderEquivalence:
    @given(payload=payloads, taken_at=st.floats(allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_soa_body_matches_json_dumps(self, payload, taken_at):
        checkpoint = SoaCheckpoint(server_id="s0", taken_at=taken_at,
                                   payload=payload)
        assert checkpoint.canonical_body() == oracle(soa_body(checkpoint))
        # A fragment is also a plain dict: json.dumps of the object as
        # built gives the same bytes.
        assert checkpoint.canonical_body() == oracle(
            {"server_id": "s0", "taken_at": taken_at, "payload": payload})

    @given(payload=payloads)
    @settings(max_examples=100, deadline=None)
    def test_goa_body_matches_json_dumps(self, payload):
        checkpoint = GoaCheckpoint(rack_id="r0", taken_at=1.0,
                                   payload=payload)
        assert checkpoint.canonical_body() == oracle(
            {"rack_id": "r0", "taken_at": 1.0, "payload": plain(payload)})

    @given(items=st.dictionaries(keys, frozen, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_fragment_text_is_its_encoding(self, items):
        fragment = CanonicalFragment(items)
        assert fragment.text.encode("utf-8") == oracle(plain(items))
        assert fragment == items

    def test_non_str_keys_are_encoded_whole(self):
        fragment = CanonicalFragment({"x": (1.5,)})
        payload = {"by_int": {2: fragment, 1: "a"},
                   "by_float": {0.5: None}, "in_list": [fragment]}
        checkpoint = SoaCheckpoint("s0", 0.0, payload)
        assert checkpoint.canonical_body() == oracle(soa_body(checkpoint))


class TestFragment:
    def fragment(self):
        return CanonicalFragment({"s0": (1.0, 2.0)})

    @pytest.mark.parametrize("write", [
        lambda f: f.__setitem__("s1", ()),
        lambda f: f.__delitem__("s0"),
        lambda f: f.update({"s1": ()}),
        lambda f: f.pop("s0"),
        lambda f: f.popitem(),
        lambda f: f.setdefault("s1", ()),
        lambda f: f.clear(),
        lambda f: f.__ior__({"s1": ()}),
    ])
    def test_writes_raise(self, write):
        fragment = self.fragment()
        with pytest.raises(TypeError, match="read-only"):
            write(fragment)
        assert fragment == {"s0": (1.0, 2.0)}
        assert fragment.text == '{"s0":[1.0,2.0]}'

    @pytest.mark.parametrize("value", [[1.0], {"a": 1.0}, np.zeros(2)])
    def test_mutable_values_rejected(self, value):
        with pytest.raises(TypeError):
            CanonicalFragment({"s0": value})


# -- Real checkpoints: a short chaos sweep ----------------------------------

@pytest.fixture(scope="module")
def chaos_saves():
    """Every checkpoint the golden sweep saves, in save order, with the
    fingerprint of its body at save time.

    VM ids come from one process-wide counter and the grant ledger is
    keyed by them, so the counter restarts here as in a fresh process —
    where the golden was recorded."""
    spec = GOLDEN["chaos_sweep"]
    saved = []
    save, save_goa = DurableStore.save, DurableStore.save_goa

    def record(original):
        def recording_save(store, checkpoint):
            saved.append((checkpoint, checkpoint.fingerprint()))
            original(store, checkpoint)
        return recording_save

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(topology, "_vm_ids", itertools.count())
        patch.setattr(DurableStore, "save", record(save))
        patch.setattr(DurableStore, "save_goa", record(save_goa))
        chaos_sweep(spec["trials"], spec["seed"],
                    ChaosConfig(duration_s=spec["duration_s"]), workers=1)
    return saved


class TestChaosCheckpoints:
    def test_fingerprints_match_golden(self, chaos_saves):
        spec = GOLDEN["chaos_sweep"]
        fingerprints = "".join(fp for _, fp in chaos_saves)
        assert len(chaos_saves) == spec["saves"]
        assert hashlib.sha256(
            fingerprints.encode()).hexdigest() == spec["sha256"]

    def test_bodies_match_json_dumps(self, chaos_saves):
        spliced = 0
        for checkpoint, fingerprint in chaos_saves:
            if isinstance(checkpoint, GoaCheckpoint):
                expected = oracle({"rack_id": checkpoint.rack_id,
                                   "taken_at": checkpoint.taken_at,
                                   "payload": plain(checkpoint.payload)})
            else:
                expected = oracle(soa_body(checkpoint))
                assignment = checkpoint.payload["assignment"]
                if assignment is not None:
                    assert isinstance(assignment["budgets"],
                                      CanonicalFragment)
                    spliced += 1
            assert checkpoint.canonical_body() == expected
            assert hashlib.sha256(expected).hexdigest() == fingerprint
        assert spliced > 0

    def test_rack_shares_one_fragment_per_push(self, chaos_saves):
        fragments = {}
        for checkpoint, _ in chaos_saves:
            if isinstance(checkpoint, SoaCheckpoint) \
                    and checkpoint.payload["assignment"] is not None:
                budgets = checkpoint.payload["assignment"]["budgets"]
                fragments.setdefault(id(budgets), budgets)
        soa_saves = sum(isinstance(c, SoaCheckpoint) for c, _ in chaos_saves)
        assert 0 < len(fragments) < soa_saves


# -- Load-time verification of a checkpoint changed after its save -----------

def real_checkpoint():
    """A checkpoint of an sOA that holds a grant and a pushed budget
    assignment."""
    rack = Rack("r0", 3000.0)
    servers = [Server(f"s{i}", DEFAULT_POWER_MODEL) for i in range(3)]
    for server in servers:
        rack.add_server(server)
    datacenter = Datacenter()
    datacenter.add_rack(rack)
    platform = SmartOClockPlatform(datacenter)
    vm = VirtualMachine(8, utilization=0.8)
    servers[0].place_vm(vm)
    service = platform.register_service(
        "svc", metrics_policy=MetricsTriggerPolicy(consecutive=1))
    platform.attach_vm("svc", vm)
    service.observe(0.0, 9.5, 10.0)
    platform.tick(10.0, dt=10.0)
    assert platform.goas["r0"].recompute_budgets(10.0) is not None
    checkpoint = platform.soas["s0"].build_checkpoint(10.0)
    assert checkpoint.payload["assignment"] is not None
    assert checkpoint.payload["grants"]
    return checkpoint


def add_grant(payload):
    grant = dict(next(iter(payload["grants"].values())))
    grant["vm_id"] = 999
    payload["grants"]["999"] = grant


def drop_assignment(payload):
    payload["assignment"] = None


def bump_epoch(payload):
    payload["assignment"]["epoch"] += 1


def swap_budgets(payload):
    """Put another assignment's (valid, read-only) fragment in place."""
    spec = payload["assignment"]
    halved = BudgetAssignment(
        slot_s=spec["slot_s"],
        budgets={sid: np.asarray(series) * 0.5
                 for sid, series in spec["budgets"].items()})
    spec["budgets"] = halved.budgets_fragment


def edit_wear(payload):
    payload["wear_counters"][0]["wear_seconds"] += 1.0


class TestVerificationAfterSave:
    def test_unchanged_checkpoint_loads(self):
        checkpoint = real_checkpoint()
        store = DurableStore()
        store.save(checkpoint)
        load = store.load_verified("s0")
        assert load.checkpoint is checkpoint and not load.corrupted

    @pytest.mark.parametrize("mutate", [
        add_grant, drop_assignment, bump_epoch, swap_budgets, edit_wear])
    def test_changed_payload_fails_verification(self, mutate):
        checkpoint = real_checkpoint()
        store = DurableStore()
        store.save(checkpoint)
        mutate(checkpoint.payload)
        load = store.load_verified("s0")
        assert load.corrupted and load.checkpoint is None
        assert store.corruption_detected == 1
        assert store.checkpoints_loaded == 0
