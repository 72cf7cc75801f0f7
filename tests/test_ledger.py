import hashlib
import hmac
import random

import pytest
from hypothesis import given, settings, strategies as st

from govsim.ledger import (
    DIGEST_SIZE,
    GENESIS_DIGEST,
    AuditLedger,
    AuditRecord,
    RangeError,
    RecordKind,
    UnknownMission,
    canonical,
    record_digest,
    verify_jsonl,
)

KEY = b"k" * 32


def build_ledger(n=10, mission="M-1"):
    led = AuditLedger(attestation_key=KEY)
    for i in range(n):
        led.append(
            RecordKind.PROOF_OF_PROGRESS,
            "did:netx:test:agent:a",
            {"mission_id": mission, "i": i},
            tick=i,
        )
    return led


def test_genesis_record():
    led = AuditLedger(attestation_key=KEY)
    seq = led.append(RecordKind.NODE_STARTED, "engine", {"mission_id": "M-1"}, tick=0)
    assert seq == 0
    assert led.record(0).prev_digest == GENESIS_DIGEST


def test_chain_links_previous_digest():
    led = build_ledger(2)
    assert led.record(1).prev_digest == record_digest(led.record(0))


def test_untouched_ledger_verifies():
    led = build_ledger(10)
    assert led.verify_chain().ok


def test_empty_ledger_default_range_ok():
    led = AuditLedger(attestation_key=KEY)
    assert led.verify_chain().ok


def test_range_errors():
    led = build_ledger(3)
    with pytest.raises(RangeError):
        led.verify_chain(0, 3)
    with pytest.raises(RangeError):
        led.verify_chain(-1, 2)
    with pytest.raises(RangeError):
        led.verify_chain(2, 1)
    with pytest.raises(RangeError):
        AuditLedger(attestation_key=KEY).verify_chain(0, 0)


def test_tamper_mid_record_breaks_at_next():
    # Oracle: a consistent rewrite of record 5 changes its header digest, so
    # the first link that fails is record 6's prev_digest.
    led = build_ledger(10)
    led._tamper_payload(5, {"mission_id": "M-1", "i": "evil"})
    verdict = led.verify_chain()
    assert not verdict.ok
    assert verdict.first_broken_seq == 6


def test_tamper_last_record_breaks_at_last():
    led = build_ledger(10)
    led._tamper_payload(9, {"mission_id": "M-1", "i": "evil"})
    verdict = led.verify_chain()
    assert not verdict.ok
    assert verdict.first_broken_seq == 9


def test_raw_payload_swap_fails_self_check_in_place():
    led = build_ledger(10)
    led._tamper_field(4, "payload", {"mission_id": "M-1", "i": "swapped"})
    verdict = led.verify_chain()
    assert verdict.first_broken_seq == 4


def test_stamp_mutation_detected():
    led = build_ledger(6)
    led._tamper_field(3, "attestation_stamp", b"\x00" * 32)
    assert led.verify_chain().first_broken_seq == 3


def test_stamps_not_portable_across_keys():
    a = build_ledger(3)
    b = AuditLedger(attestation_key=b"other-key".ljust(32, b"x"))
    for i in range(3):
        b.append(RecordKind.PROOF_OF_PROGRESS, "did:netx:test:agent:a",
                 {"mission_id": "M-1", "i": i}, tick=i)
    assert a.record(1).attestation_stamp != b.record(1).attestation_stamp


def test_pedigree_filters_by_mission():
    led = AuditLedger(attestation_key=KEY)
    for i in range(6):
        led.append(
            RecordKind.TOKEN_TRANSFER,
            "treasury",
            {"mission_id": "M-1" if i % 2 == 0 else "M-2", "i": i},
            tick=i,
        )
    p1 = led.pedigree("M-1")
    p2 = led.pedigree("M-2")
    assert p1.record_refs == (0, 2, 4)
    assert p2.record_refs == (1, 3, 5)
    assert set(p1.record_refs).isdisjoint(p2.record_refs)
    assert p1.anchor_digest != p2.anchor_digest


def test_pedigree_unknown_mission():
    led = build_ledger(2)
    with pytest.raises(UnknownMission):
        led.pedigree("M-UNSEEN")


def test_anchor_recomputable():
    led = build_ledger(4)
    p = led.pedigree("M-1")
    manual = hashlib.sha256(
        b"".join(record_digest(led.record(s)) for s in p.record_refs)
    ).digest()
    assert p.anchor_digest == manual


def test_fork_keeps_pedigree_and_shares_no_digests():
    led = build_ledger(6)
    twin = led.fork()
    assert twin.pedigree("M-1") == led.pedigree("M-1")
    led.append(RecordKind.ESCALATION, "engine", {"mission_id": "M-1"}, tick=8)
    twin.append(RecordKind.ESCALATION, "engine", {"mission_id": "M-1"}, tick=9)
    for ledger in (led, twin):
        p = ledger.pedigree("M-1")
        assert p.record_refs == tuple(range(7))
        assert p.anchor_digest == hashlib.sha256(
            b"".join(record_digest(ledger.record(s)) for s in p.record_refs)
        ).digest()


# Actors made of the characters JSON escapes: quotes, backslashes, control
# characters, non-ASCII text and lone surrogates.
ACTORS = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\té漢😀\ud800\udfff'), st.characters())
)
DIGESTS = st.binary(min_size=DIGEST_SIZE, max_size=DIGEST_SIZE)
SEQS = st.integers(min_value=0, max_value=10**12)


def header_dict(rec):
    return {
        "seq": rec.seq,
        "tick": rec.tick,
        "actor": rec.actor,
        "kind": rec.kind.value,
        "payload_digest": rec.payload_digest.hex(),
        "prev_digest": rec.prev_digest.hex(),
    }


def reference_stamp(seq, digest):
    material = canonical({"seq": seq, "payload_digest": digest.hex()})
    return hmac.new(KEY, material, hashlib.sha256).digest()


@settings(max_examples=300, deadline=None)
@given(ACTORS, st.sampled_from(RecordKind), SEQS, SEQS, DIGESTS, DIGESTS)
def test_header_and_stamp_bytes_equal_canonical(actor, kind, seq, tick, digest, prev):
    rec = AuditRecord(seq, tick, actor, kind, digest, prev, b"")
    assert record_digest(rec) == hashlib.sha256(canonical(header_dict(rec))).digest()
    assert AuditLedger(attestation_key=KEY)._stamp(seq, digest) == reference_stamp(seq, digest)


ODD_VALUES = st.one_of(
    st.booleans(), st.floats(), st.none(), st.integers(), st.text(), st.lists(st.integers(), max_size=2)
)


@settings(max_examples=200, deadline=None)
@given(ODD_VALUES, ODD_VALUES, ODD_VALUES, DIGESTS)
def test_tampered_field_types_encode_like_canonical(actor, seq, tick, digest):
    # A raw tamper can leave any type in a header field; the direct encoding
    # must still equal canonical, or a type swap (1 -> True) could go unseen.
    rec = AuditRecord(seq, tick, actor, RecordKind.TOOL_CALL, digest, GENESIS_DIGEST, b"")
    assert record_digest(rec) == hashlib.sha256(canonical(header_dict(rec))).digest()
    assert AuditLedger(attestation_key=KEY)._stamp(seq, digest) == reference_stamp(seq, digest)


def test_dump_roundtrip_offline_verify():
    led = build_ledger(8)
    dump = led.dump_jsonl()
    assert verify_jsonl(dump.splitlines()).ok


def test_offline_verify_catches_reordering():
    led = build_ledger(5)
    lines = led.dump_jsonl().splitlines()
    lines[2], lines[3] = lines[3], lines[2]
    verdict = verify_jsonl(lines)
    assert not verdict.ok
    assert verdict.first_broken_seq == 2


def test_offline_verify_rejects_garbage_line():
    led = build_ledger(3)
    lines = led.dump_jsonl().splitlines()
    lines[1] = "not json"
    assert verify_jsonl(lines).first_broken_seq == 1


def test_canonical_is_order_insensitive():
    assert canonical({"b": 1, "a": 2}) == canonical({"a": 2, "b": 1})


MUTABLE_FIELDS = ("payload", "payload_digest", "prev_digest", "seq", "tick", "actor", "kind", "attestation_stamp")


def mutate_once(led, rng):
    """Apply one random raw single-field mutation; returns the chosen seq."""
    seq = rng.randrange(len(led))
    field = rng.choice(MUTABLE_FIELDS)
    rec = led.record(seq)
    if field == "payload":
        led._tamper_field(seq, "payload", {"mission_id": "M-1", "x": rng.random()})
    elif field in ("payload_digest", "prev_digest", "attestation_stamp"):
        orig = getattr(rec, field)
        led._tamper_field(seq, field, bytes([orig[0] ^ 0xFF]) + orig[1:])
    elif field == "seq":
        led._tamper_field(seq, "seq", rec.seq + 1 + rng.randrange(5))
    elif field == "tick":
        led._tamper_field(seq, "tick", rec.tick + 1)
    elif field == "actor":
        led._tamper_field(seq, "actor", rec.actor + "?")
    else:
        other = RecordKind.ESCALATION if rec.kind is not RecordKind.ESCALATION else RecordKind.TOKEN_TRANSFER
        led._tamper_field(seq, "kind", other)
    return seq


def test_thousand_random_mutations_all_detected():
    rng = random.Random(0xC0FFEE)
    pristine = build_ledger(50)
    assert pristine.verify_chain().ok
    for _ in range(1000):
        fork = pristine.fork()
        seq = mutate_once(fork, rng)
        verdict = fork.verify_chain()
        assert not verdict.ok, f"undetected mutation at seq {seq}"
        assert verdict.first_broken_seq is not None
        assert verdict.first_broken_seq >= seq


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.randoms(use_true_random=False))
def test_single_consistent_rewrite_always_detected(n, rng):
    led = build_ledger(n)
    seq = rng.randrange(n)
    led._tamper_payload(seq, {"mission_id": "M-1", "i": "flip"})
    verdict = led.verify_chain()
    assert not verdict.ok
    # Break surfaces at the record or immediately after it.
    assert verdict.first_broken_seq in (seq, seq + 1)
