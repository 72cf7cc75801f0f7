import hashlib
import hmac
import io
import json
import random
import re
from decimal import Decimal

import pytest
from hypothesis import assume, given, settings, strategies as st

from govsim.errors import ValidationError
from govsim.ledger import (
    DIGEST_SIZE,
    DUMP_LINE,
    GENESIS_DIGEST,
    AuditLedger,
    AuditRecord,
    ChainVerdict,
    RecordKind,
    canonical,
    record_digest,
    verify_jsonl,
)

from helpers import tamper_field, tamper_payload

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
    with pytest.raises(ValidationError, match="outside"):
        led.verify_chain(0, 3)
    with pytest.raises(ValidationError, match="outside"):
        led.verify_chain(-1, 2)
    with pytest.raises(ValidationError, match="outside"):
        led.verify_chain(2, 1)
    with pytest.raises(ValidationError, match="empty ledger"):
        AuditLedger(attestation_key=KEY).verify_chain(0, 0)


def test_tamper_mid_record_breaks_at_next():
    # Oracle: a consistent rewrite of record 5 changes its header digest, so
    # the first link that fails is record 6's prev_digest.
    led = build_ledger(10)
    tamper_payload(led, 5, {"mission_id": "M-1", "i": "evil"})
    verdict = led.verify_chain()
    assert not verdict.ok
    assert verdict.first_broken_seq == 6


def test_tamper_last_record_breaks_at_last():
    led = build_ledger(10)
    tamper_payload(led, 9, {"mission_id": "M-1", "i": "evil"})
    verdict = led.verify_chain()
    assert not verdict.ok
    assert verdict.first_broken_seq == 9


def test_raw_payload_swap_fails_self_check_in_place():
    led = build_ledger(10)
    tamper_field(led, 4, "payload", {"mission_id": "M-1", "i": "swapped"})
    verdict = led.verify_chain()
    assert verdict.first_broken_seq == 4


def test_stamp_mutation_detected():
    led = build_ledger(6)
    tamper_field(led, 3, "attestation_stamp", b"\x00" * 32)
    assert led.verify_chain().first_broken_seq == 3


def test_stamps_not_portable_across_keys():
    a = build_ledger(3)
    b = AuditLedger(attestation_key=b"other-key".ljust(32, b"x"))
    for i in range(3):
        b.append(RecordKind.PROOF_OF_PROGRESS, "did:netx:test:agent:a",
                 {"mission_id": "M-1", "i": i}, tick=i)
    assert a.record(1).attestation_stamp != b.record(1).attestation_stamp


def test_fork_sides_append_independently():
    led = build_ledger(6)
    twin = led.fork()
    assert list(twin) == list(led) and twin.head_digest == led.head_digest
    for side, other, tick in ((led, twin, 8), (twin, led, 9)):
        before = list(other), other.head_digest
        side.append(RecordKind.ESCALATION, "engine", {"mission_id": "M-1"}, tick=tick)
        assert (list(other), other.head_digest) == before
    assert led.record(6) != twin.record(6) and led.head_digest != twin.head_digest
    for ledger in (led, twin):
        assert len(ledger) == 7 and ledger.verify_chain().ok


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


def reference_line(rec):
    row = {**header_dict(rec), "attestation_stamp": rec.attestation_stamp.hex()}
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


@settings(max_examples=300, deadline=None)
@given(ACTORS, st.sampled_from(RecordKind), SEQS, SEQS, DIGESTS, DIGESTS)
def test_header_and_stamp_bytes_equal_canonical(actor, kind, seq, tick, digest, prev):
    rec = AuditRecord(seq, tick, actor, kind, digest, prev, digest[::-1], b"{}")
    assert record_digest(rec) == hashlib.sha256(canonical(header_dict(rec))).digest()
    assert AuditLedger(attestation_key=KEY)._stamp(seq, digest) == reference_stamp(seq, digest)
    assert rec.to_json_line() == reference_line(rec)


ODD_VALUES = st.one_of(
    st.booleans(), st.floats(), st.none(), st.integers(), st.text(), st.lists(st.integers(), max_size=2)
)


@settings(max_examples=200, deadline=None)
@given(ODD_VALUES, ODD_VALUES, ODD_VALUES, DIGESTS)
def test_tampered_field_types_encode_like_canonical(actor, seq, tick, digest):
    # A raw tamper can leave any type in a header field; the direct encoding
    # must still equal canonical, or a type swap (1 -> True) could go unseen.
    rec = AuditRecord(seq, tick, actor, RecordKind.TOOL_CALL, digest, GENESIS_DIGEST, b"", b"{}")
    assert record_digest(rec) == hashlib.sha256(canonical(header_dict(rec))).digest()
    assert AuditLedger(attestation_key=KEY)._stamp(seq, digest) == reference_stamp(seq, digest)
    assert rec.to_json_line() == reference_line(rec)


def test_one_ledger_stamps_every_record_from_the_key_alone():
    # One ledger for every stamp: a keyed base HMAC updated in place would
    # pass a fresh ledger's first stamp and fail every later one.
    led = AuditLedger(attestation_key=KEY)
    for i in range(64):
        led.append(RecordKind.TOOL_CALL, "agent", {"mission_id": "M-1", "i": i}, tick=i)
    for rec in led:
        assert rec.attestation_stamp == reference_stamp(rec.seq, rec.payload_digest)
    digest = bytes(range(DIGEST_SIZE))
    assert led._stamp(7, digest) == led._stamp(7, digest) == reference_stamp(7, digest)
    twin = led.fork()
    assert twin._stamp(64, digest) == led._stamp(64, digest)
    assert led.fork().verify_chain().ok


# Keys on both sides of SHA-256's 64-byte block: RFC 2104 zero-pads a key of
# up to 64 bytes and hashes a longer one first.
KEYS = st.one_of(
    st.binary(max_size=200), st.sampled_from([64, 65]).flatmap(lambda n: st.binary(min_size=n, max_size=n))
)


@settings(max_examples=200, deadline=None)
@given(KEYS, st.lists(st.text(max_size=6), min_size=2, max_size=6), st.data())
def test_stamps_are_hmac_sha256_under_keys_of_any_length(key, values, data):
    def mac(seq, digest):
        return hmac.new(key, canonical({"seq": seq, "payload_digest": digest.hex()}), "sha256").digest()

    led = AuditLedger(attestation_key=key)
    for i, value in enumerate(values):
        led.append(RecordKind.TOOL_CALL, "agent", {"mission_id": "M-1", "v": value}, tick=i)
    for rec in led:
        assert rec.attestation_stamp == mac(rec.seq, rec.payload_digest)
    # A consistent rewrite passes its own slot's checks, the stamp through
    # `_stamp` among them: only the next link, or the head, breaks.
    seq = data.draw(st.integers(min_value=0, max_value=len(led) - 1))
    tamper_payload(led, seq, {"mission_id": "M-1", "v": None})
    rec = led.record(seq)
    assert rec.attestation_stamp == mac(seq, rec.payload_digest)
    last = len(led) - 1
    assert led.verify_chain() == (False, min(seq + 1, last))
    if seq < last:
        assert led.verify_chain(0, seq).ok


def test_append_coerces_a_kind_name_and_rejects_an_unknown_one():
    led = AuditLedger(attestation_key=KEY)
    led.append("ToolCall", "agent", {}, tick=0)
    assert led.record(0).kind is RecordKind.TOOL_CALL
    with pytest.raises(ValueError):
        led.append("Forged", "agent", {}, tick=1)
    assert len(led) == 1


def test_dump_roundtrip_offline_verify():
    led = build_ledger(8)
    dump = led.dump_jsonl()
    assert verify_jsonl(dump.splitlines()).ok
    # Lines read from a file keep their terminator.
    assert verify_jsonl(io.StringIO(dump)).ok


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


def ledger_of(rows):
    led = AuditLedger(attestation_key=KEY)
    for actor, kind, tick in rows:
        led.append(kind, actor, {"mission_id": "M-1"}, tick=tick)
    return led


def _hex_edit(field, edit):
    def apply(line):
        text = json.loads(line)[field]
        return line.replace(text, edit(text))

    return apply


def _stamp_edit(edit):
    return _hex_edit("attestation_stamp", edit)


# Edits to seq 1 (tick 1, actor "agent-\u00e9") that keep every value a
# lenient JSON reader sees: each one must still break the dump at the edited
# line. No link covers the stamp, so only the line's form can catch a stamp
# edit; one to the payload digest must break its own line, not the next link.
OFF_FORM_EDITS = {
    "extra key": lambda line: line[:-1] + ',"note":"forged"}',
    "duplicate key": lambda line: line[:-1] + ',"tick":1}',
    "string seq": lambda line: line.replace('"seq":1,', '"seq":"1",'),
    "float seq": lambda line: line.replace('"seq":1,', '"seq":1.0,'),
    "bool tick": lambda line: line.replace('"tick":1}', '"tick":true}'),
    "empty stamp": _stamp_edit(lambda stamp: ""),
    "upper-case hex": _stamp_edit(str.upper),
    "upper-case payload digest": _hex_edit("payload_digest", str.upper),
    "spaced hex": _stamp_edit(lambda stamp: " ".join(stamp[i : i + 2] for i in range(0, 64, 2))),
    "vertical tab for a stamp digit": _stamp_edit(lambda stamp: "\x0b" + stamp[1:]),
    "two spaces for two stamp digits": _stamp_edit(lambda stamp: "  " + stamp[2:]),
    "Arabic-Indic digit in the stamp": _stamp_edit(lambda stamp: "\u0663" + stamp[1:]),
    "json.dumps spacing": lambda line: json.dumps(json.loads(line), sort_keys=True),
    "trailing space": lambda line: line + " ",
    "raw non-ASCII actor": lambda line: line.replace("\\u00e9", "\u00e9"),
}


@pytest.mark.parametrize("edit", sorted(OFF_FORM_EDITS))
def test_offline_verify_accepts_only_the_written_form(edit):
    rows = [("agent-\u00e9", RecordKind.TOOL_CALL, tick) for tick in range(4)]
    lines = ledger_of(rows).dump_jsonl().splitlines()
    edited = OFF_FORM_EDITS[edit](lines[1])
    assert edited != lines[1]
    lines[1] = edited
    assert verify_jsonl(lines) == (False, 1)


# Value-equal spellings `to_json_line` never writes, on a line with actor
# 'A"\t' and tick 0: a `-0` tick and `\u` escapes of a letter, a quote and a
# tab. Each breaks the line it is on, the last one included.
RESPELLINGS = {
    "negative zero tick": ('"tick":0}', '"tick":-0}'),
    "escaped letter": ('"actor":"A', '"actor":"\\u0041'),
    "escaped quote": ('\\"', "\\u0022"),
    "escaped tab": ("\\t", "\\u0009"),
}


@pytest.mark.parametrize("edit", sorted(RESPELLINGS))
def test_offline_verify_rejects_a_value_equal_respelling_at_its_line(edit):
    lines = ledger_of([('A"\t', RecordKind.TOOL_CALL, 0)] * 3).dump_jsonl().splitlines()
    old, new = RESPELLINGS[edit]
    for seq in (1, 2):
        edited = list(lines)
        edited[seq] = lines[seq].replace(old, new)
        assert edited[seq] != lines[seq]
        assert json.loads(edited[seq]) == json.loads(lines[seq])
        assert verify_jsonl(edited) == (False, seq)


def test_a_tampered_kind_dumps_and_breaks_offline():
    led = build_ledger(4)
    tamper_field(led, 1, "kind", "Forged")
    assert verify_jsonl(led.dump_jsonl().splitlines()) == (False, 1)


def test_offline_head_check_sees_a_dropped_tail_and_a_forged_last_line():
    led = build_ledger(8)
    head = led.head_digest
    lines = led.dump_jsonl().splitlines()
    forged = json.loads(lines[-1])
    forged["actor"] = "someone-else"
    forged = json.dumps(forged, sort_keys=True, separators=(",", ":"))
    for edited, broken_at in ((lines[:-5], 2), (lines[:-1] + [forged], 7)):
        # Without the head both read intact: every line and link checks out.
        assert verify_jsonl(edited).ok
        assert verify_jsonl(edited, head=head) == (False, broken_at)
    assert verify_jsonl(lines, head=head).ok
    assert verify_jsonl([], head=head) == (False, 0)
    assert verify_jsonl([], head=GENESIS_DIGEST).ok


ROWS = st.lists(st.tuples(ACTORS, st.sampled_from(RecordKind), st.integers()), min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(ROWS)
def test_every_dump_line_is_in_the_written_form(rows):
    lines = ledger_of(rows).dump_jsonl().splitlines()
    assert len(lines) == len(rows)
    assert all(DUMP_LINE.fullmatch(line) for line in lines)
    assert verify_jsonl(lines).ok


@settings(max_examples=200, deadline=None)
@given(ROWS, st.randoms(use_true_random=False))
def test_offline_verify_sees_every_header_mutation(rows, rng):
    # The dump holds no payload and no key: a payload swap or a bad stamp
    # only the in-process verify_chain can see. A wrong seq or link breaks
    # the record itself; any other header edit breaks the next one's link.
    led = ledger_of(rows)
    seq, field = mutate_once(led, rng)
    assume(seq < len(led) - 1 and field not in ("payload", "attestation_stamp"))
    expected = seq if field in ("seq", "prev_digest") else seq + 1
    assert verify_jsonl(led.dump_jsonl().splitlines()) == (False, expected)


# The offline check as one regex: the written form with every hex slot a
# `[0-9a-f]{64}` class, and the loop `verify_jsonl` runs around it.
REFERENCE_LINE = re.compile(
    r'(\{"actor":"[ !#-\[\]-~]*(?:\\(?:["\\bfnrt]|u(?:00(?:0[0-7bef]|1[0-9a-f]|7f|[89a-f][0-9a-f])'
    r'|0[1-9a-f][0-9a-f]{2}|[1-9a-f][0-9a-f]{3}))[ !#-\[\]-~]*)*",)"attestation_stamp":"[0-9a-f]{64}",'
    rf'("kind":"(?:{"|".join(kind.value for kind in RecordKind)})","payload_digest":"[0-9a-f]{{64}}",'
    r'"prev_digest":"([0-9a-f]{64})","seq":(0|[1-9][0-9]*),"tick":(?:0|-?[1-9][0-9]*)\})\n?'
)


def reference_verify(lines, head=None):
    expected = GENESIS_DIGEST.hex()
    n = -1
    for n, line in enumerate(l for l in lines if l not in ("", "\n")):
        match = REFERENCE_LINE.fullmatch(line)
        if match is None:
            return ChainVerdict(False, n)
        header, tail, prev, seq = match.groups()
        if seq != "%d" % n or prev != expected:
            return ChainVerdict(False, n)
        expected = hashlib.sha256((header + tail).encode()).hexdigest()
    if head is not None and head.hex() != expected:
        return ChainVerdict(False, max(n, 0))
    return ChainVerdict(True)


# Lower-case hex; upper-case hex; the ASCII whitespace `bytes.fromhex`
# skips; JSON's specials, non-ASCII digits and letters, and a sign.
EDIT_CHARS = st.one_of(
    st.sampled_from("0123456789abcdef"),
    st.sampled_from("ABCDEF"),
    st.sampled_from(" \t\n\x0b\x0c"),
    st.sampled_from('"\\\u00e9\u0663\uff10-'),
)


# (cut, put): replace one or two characters, insert one, delete one.
SPLICES = st.sampled_from([(1, 1), (2, 2), (0, 1), (1, 0)])


@settings(max_examples=400, deadline=None)
@given(ROWS, st.data())
def test_offline_verify_matches_the_all_regex_reference(rows, data):
    # One splice into one line, the last one included, anywhere or at a byte
    # boundary of the stamp or payload digest: `cut` characters replaced by
    # `put` copies of one drawn character. A lone whitespace character leaves
    # an odd count of hex digits, which `fromhex` rejects; a pair in place of
    # one byte's digits leaves an even count. An empty line, which is skipped,
    # or a whitespace line, which breaks the chain, may be added anywhere.
    led = ledger_of(rows)
    lines = led.dump_jsonl().splitlines()
    seq = data.draw(st.integers(0, len(lines) - 1))
    line = lines[seq]
    starts = [line.index(json.loads(line)[field]) for field in ("attestation_stamp", "payload_digest")]
    byte = st.integers(0, DIGEST_SIZE - 1).map(lambda k: 2 * k)
    at = data.draw(st.integers(0, len(line)) | st.sampled_from(starts).flatmap(lambda i: byte.map(i.__add__)))
    cut, put = data.draw(SPLICES)
    lines[seq] = line[:at] + data.draw(EDIT_CHARS) * put + line[at + cut :]
    assume(lines[seq] != line)
    blank = data.draw(st.sampled_from([None, "", " \t"]))
    if blank is not None:
        lines.insert(data.draw(st.integers(0, len(lines))), blank)
    for head in (None, led.head_digest):
        assert verify_jsonl(lines, head) == reference_verify(lines, head)


def test_canonical_is_order_insensitive():
    assert canonical({"b": 1, "a": 2}) == canonical({"a": 2, "b": 1})


# Nested JSON values: ACTORS' escaped text, ints past 64 bits, every float
# (nan and both infinities too), and tuples, which encode as arrays.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats()
    | ACTORS,
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(ACTORS, inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(JSON_VALUES)
def test_canonical_is_json_dumps_with_sorted_keys(value):
    assert canonical(value) == json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


@pytest.mark.parametrize("value", [Decimal("1.5"), {1, 2}, b"x", {"a": [Decimal("1")]}, {"a": {1}}])
def test_canonical_rejects_what_json_cannot_hold(value):
    with pytest.raises(TypeError):
        canonical(value)


def test_canonical_rejects_a_circular_payload():
    payload = {"a": []}
    payload["a"].append(payload)
    with pytest.raises(RecursionError):
        canonical(payload)
    assert canonical({"a": [1]}) == b'{"a":[1]}'


MUTABLE_FIELDS = ("payload", "payload_digest", "prev_digest", "seq", "tick", "actor", "kind", "attestation_stamp")


def mutate_once(led, rng):
    """Apply one random raw single-field mutation; returns the chosen seq and field."""
    seq = rng.randrange(len(led))
    field = rng.choice(MUTABLE_FIELDS)
    rec = led.record(seq)
    if field == "payload":
        tamper_field(led, seq, "payload", {"mission_id": "M-1", "x": rng.random()})
    elif field in ("payload_digest", "prev_digest", "attestation_stamp"):
        orig = getattr(rec, field)
        tamper_field(led, seq, field, bytes([orig[0] ^ 0xFF]) + orig[1:])
    elif field == "seq":
        tamper_field(led, seq, "seq", rec.seq + 1 + rng.randrange(5))
    elif field == "tick":
        tamper_field(led, seq, "tick", rec.tick + 1)
    elif field == "actor":
        tamper_field(led, seq, "actor", rec.actor + "?")
    else:
        other = RecordKind.ESCALATION if rec.kind is not RecordKind.ESCALATION else RecordKind.TOKEN_TRANSFER
        tamper_field(led, seq, "kind", other)
    return seq, field


def test_thousand_random_mutations_all_detected():
    rng = random.Random(0xC0FFEE)
    pristine = build_ledger(50)
    assert pristine.verify_chain().ok
    for _ in range(1000):
        fork = pristine.fork()
        seq, _ = mutate_once(fork, rng)
        verdict = fork.verify_chain()
        assert not verdict.ok, f"undetected mutation at seq {seq}"
        assert verdict.first_broken_seq is not None
        assert verdict.first_broken_seq >= seq


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.randoms(use_true_random=False))
def test_single_consistent_rewrite_always_detected(n, rng):
    led = build_ledger(n)
    seq = rng.randrange(n)
    tamper_payload(led, seq, {"mission_id": "M-1", "i": "flip"})
    verdict = led.verify_chain()
    assert not verdict.ok
    # Break surfaces at the record or immediately after it.
    assert verdict.first_broken_seq in (seq, seq + 1)


def test_payload_reads_never_alias_storage():
    original = {"mission_id": "M-1", "items": [1, 2], "pair": (3, 4)}
    led = AuditLedger(attestation_key=KEY)
    led.append(RecordKind.TOOL_CALL, "engine", original, tick=0)
    original["items"].append("caller")
    body = led.payload(0)
    body["items"].append("reader")
    body["mission_id"] = "M-2"
    # Storage is canonical JSON, so a tuple reads back as a list.
    assert led.payload(0) == {"mission_id": "M-1", "items": [1, 2], "pair": [3, 4]}
    assert led.payload(0) is not led.payload(0)
    assert led.verify_chain().ok


def test_stored_records_cannot_be_mutated():
    led = build_ledger(3)
    rec = led.record(1)
    with pytest.raises(AttributeError):
        object.__setattr__(rec, "tick", 99)
    with pytest.raises(AttributeError):
        object.__setattr__(rec, "note", "x")
    assert rec.tick == 1
    assert led.verify_chain().ok


# -- payload search ----------------------------------------------------------

# Short text over a few characters, escapes included, so that needles cut
# from one payload often sit inside another.
SHORT_TEXT = st.text('ab"\\é', max_size=3)
SEARCH_PAYLOADS = st.dictionaries(
    SHORT_TEXT,
    st.one_of(
        st.none(), st.booleans(), st.integers(-30, 30), SHORT_TEXT, st.lists(SHORT_TEXT, max_size=2)
    ),
    max_size=4,
)
SEARCH_KINDS = st.sampled_from(
    [RecordKind.TOOL_CALL, RecordKind.ESCALATION, RecordKind.SLASHING_EVENT, RecordKind.NODE_STARTED]
)


@st.composite
def needle_of(draw, blobs):
    """A slice of a stored payload (empty, whole or a prefix too) or random bytes."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=3))
    blob = draw(st.sampled_from(blobs))
    start = draw(st.integers(0, len(blob)))
    return blob[start : draw(st.integers(start, len(blob)))]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(SEARCH_KINDS, SEARCH_PAYLOADS), min_size=1, max_size=12), st.data())
def test_candidates_are_the_records_of_one_kind_holding_every_needle(rows, data):
    led = AuditLedger(attestation_key=KEY)
    for kind, payload in rows:
        led.append(kind, "engine", payload, tick=0)
    blobs = [canonical(payload) for _, payload in rows]
    kind = data.draw(SEARCH_KINDS)
    needles = tuple(data.draw(st.lists(needle_of(blobs), max_size=3)))
    expected = [
        (led.record(seq), led.payload(seq))
        for seq in range(len(rows))
        if rows[seq][0] is kind and all(needle in blobs[seq] for needle in needles)
    ]
    assert list(led.candidates(kind, *needles)) == expected


def test_candidates_scan_and_decode_only_up_to_the_item_taken():
    led = AuditLedger(attestation_key=KEY)
    # Each of the first three payloads lacks a different one of three needles,
    # so every filter must test its own needle; the last two hold all three.
    rows = [{"a": 1, "c": 1}, {"a": 1, "b": 1}, {"b": 1, "c": 1}, {"a": 1, "b": 1, "c": 1}, {"a": 2, "b": 2, "c": 2}]
    for payload in rows:
        led.append(RecordKind.TOOL_CALL, "engine", payload, tick=0)
    led.append(RecordKind.ESCALATION, "engine", rows[3], tick=0)
    decoded, payload = [], led.payload
    led.payload = lambda seq: decoded.append(seq) or payload(seq)
    hits = led.candidates(RecordKind.TOOL_CALL, b'"a":', b'"b":', b'"c":')
    assert decoded == []
    record, body = next(hits)
    assert (record.seq, body, decoded) == (3, rows[3], [3])
    assert [(record.seq, body) for record, body in hits] == [(4, rows[4])]
    assert decoded == [3, 4]


# -- the seal against a full recomputation -----------------------------------


def recomputed_verdict(led, from_seq=0, to_seq=None):
    """The verdict of re-deriving every payload digest, stamp and header
    digest from what is stored, trusting nothing `append` kept."""
    records = list(led)
    last = len(records) - 1
    to_seq = last if to_seq is None else to_seq
    digest = GENESIS_DIGEST if from_seq == 0 else record_digest(records[from_seq - 1])
    for n in range(from_seq, to_seq + 1):
        rec = records[n]
        if rec.seq != n or rec.prev_digest != digest:
            return False, n
        if hashlib.sha256(rec.payload_bytes).digest() != rec.payload_digest:
            return False, n
        if not hmac.compare_digest(reference_stamp(rec.seq, rec.payload_digest), rec.attestation_stamp):
            return False, n
        digest = record_digest(rec)
    if to_seq == last and digest != led.head_digest:
        return False, last
    return True, None


def _flip(value):
    return bytes([value[0] ^ 0xFF]) + value[1:]


def apply_op(ledgers, op):
    """Apply one step to one of `ledgers`; a fork joins the list."""
    name, pick, arg = op
    led = ledgers[pick % len(ledgers)]
    seq = arg % len(led)
    rec = led.record(seq)
    if name == "append":
        led.append(RecordKind.TOOL_CALL, "engine", {"mission_id": "M-1", "n": arg}, tick=arg)
    elif name == "fork":
        ledgers.append(led.fork())
    elif name == "rewrite":
        tamper_payload(led, seq, {"mission_id": "M-1", "evil": arg})
    elif name == "swap-payload":
        tamper_field(led, seq, "payload", {"mission_id": "M-1", "n": arg})
    elif name == "same-payload":
        tamper_field(led, seq, "payload", led.payload(seq))
    elif name == "same-record":
        tamper_field(led, seq, "actor", rec.actor)
    elif name == "same-rewrite":
        tamper_payload(led, seq, led.payload(seq))
    elif name == "type-swap":
        field = ("tick", "seq")[arg % 2]
        value = getattr(rec, field)
        tamper_field(led, seq, field, value == 1 if value in (0, 1) else float(value))
    elif name == "bad-stamp":
        tamper_field(led, seq, "attestation_stamp", _flip(rec.attestation_stamp))
    else:
        tamper_field(led, seq, "prev_digest", _flip(rec.prev_digest))


OPS = st.tuples(
    st.sampled_from(
        ["append", "append", "fork", "rewrite", "swap-payload", "same-payload", "same-record",
         "same-rewrite", "type-swap", "bad-stamp", "bad-link"]
    ),
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=0, max_value=10**6),
)


@settings(max_examples=400, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.lists(st.tuples(OPS, st.integers(0, 10**6), st.integers(0, 10**6)), max_size=20),
)
def test_sealed_verify_matches_a_full_recomputation(n, steps):
    ledgers = [build_ledger(n)]
    for op, a, b in steps:
        apply_op(ledgers, op)
        for led in ledgers:
            verdict = led.verify_chain()
            assert (verdict.ok, verdict.first_broken_seq) == recomputed_verdict(led)
            lo = a % len(led)
            hi = lo + b % (len(led) - lo)
            verdict = led.verify_chain(lo, hi)
            assert (verdict.ok, verdict.first_broken_seq) == recomputed_verdict(led, lo, hi)
