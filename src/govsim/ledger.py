"""Append-only, hash-chained audit ledger and provenance index.

Every state transition in a run lands here as an AuditRecord. Records chain
through SHA-256 digests (genesis uses an all-zero previous digest) and carry a
keyed attestation stamp standing in for a hardware signature: an HMAC-SHA256
(RFC 2104) under the run key, hashed on copies of an inner and an outer
SHA-256 state keyed once when the ledger is made and never updated after.
Payloads are stored alongside the chain and digested through a canonical JSON
encoding so replays are bit-stable: `canonical` runs the C encoder that
`json.dumps` builds per call, built once at import. The header and stamp
material have a fixed shape and are written directly in that encoding's key
order, byte for byte what `canonical` would produce; `append` writes both
from the digests it has just taken.

Storage is immutable: a record is a tuple of ints, strings, a kind and bytes,
and it keeps its payload as the canonical bytes its digest covers (`payload`
decodes a fresh copy, so readers never alias storage). The dump line and the
header digest cover the seven header fields, not the payload bytes. `append`
fills three columns per seq: the record, the record object it sealed, and the
header digest. `verify_chain` finds the replaced slots (a record that is not
the very object sealed) in one identity pass. A run of untouched slots passed
every check at append, so only its first link is checked and its last sealed
digest taken; a replaced slot has its seq, link, payload digest, stamp and
header digest re-derived. The verdict is the one a full recomputation gives.
The offline `verify_jsonl` trusts nothing: it accepts only the exact lines
govsim writes (a `DUMP_LINE` match whose stamp and payload digest are
lower-case hex) and checks each link against the header text as read, and,
given the run's head digest, the digest after the last line against it.

`candidates(kind, *needles)` is the one payload query, and it tests the
stored bytes before decoding anything. A payload whose top-level `key` holds
a string `value` encodes that item as exactly `pair_needle(key, value)` (an
int `value` as the start of that item), so `candidates` decodes only the
records of `kind` whose bytes contain every needle. It yields them lazily in
seq order: one pass tests the kind and the first needle with `bytes.find`
(cheaper per record than `in`), further needles filter the hits, and a hit is
decoded only when the caller reaches it. Do not append while iterating. A
needle is a necessary condition, never a sufficient one (the same text can
sit in a nested object): the caller still tests each decoded payload.
"""
from __future__ import annotations

import hashlib
import hmac
import json
import re
import secrets
from enum import Enum
from itertools import compress
from operator import is_not
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple

from .errors import ValidationError

DIGEST_SIZE = 32
GENESIS_DIGEST = b"\x00" * DIGEST_SIZE


class RecordKind(str, Enum):
    CONTRACT_DEPLOYED = "ContractDeployed"
    BID_ACCEPTED = "BidAccepted"
    NODE_STARTED = "NodeStarted"
    PROOF_OF_PROGRESS = "ProofOfProgress"
    FREEZE_EVENT = "FreezeEvent"
    ROLLBACK_EVENT = "RollbackEvent"
    SLASHING_EVENT = "SlashingEvent"
    DISPUTE_TRANSITION = "DisputeTransition"
    TOKEN_TRANSFER = "TokenTransfer"
    CHARTER_AMENDMENT = "CharterAmendment"
    ESCALATION = "Escalation"
    # Transition records emitted by registry, legislation, and adjudication
    # calls that the core kinds above cannot carry.
    AGENT_REGISTERED = "AgentRegistered"
    CERT_TRANSITION = "CertTransition"
    REPUTATION_UPDATE = "ReputationUpdate"
    MISSION_LEGISLATED = "MissionLegislated"
    PRESCREEN_DECISION = "PrescreenDecision"
    CORRECTION_STAGE = "CorrectionStage"
    NODE_FAILED = "NodeFailed"
    TOOL_CALL = "ToolCall"


# The options `json.dumps` would be given, and the C encoder `_ENCODER.encode`
# builds from them per call, built once. It keeps no circular-reference
# markers: a shared dict would keep the ids of any encode that failed.
# Without the `_json` accelerator the pure-Python encoder writes the same text.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_DECODER = json.JSONDecoder()
_quote = json.encoder.encode_basestring_ascii
if json.encoder.c_make_encoder is not None:
    _encode_c = json.encoder.c_make_encoder(None, _ENCODER.default, _quote, None, ":", ",", True, False, True)
else:
    _encode_c = lambda payload, _level: _ENCODER.iterencode(payload)
# The JSON text of each kind, as the header and dump line write it.
_KIND_TEXT = {kind: _quote(kind) for kind in RecordKind}


def canonical(payload: Mapping[str, Any]) -> bytes:
    """Deterministic field-ordered encoding; digests must be bit-stable.
    The bytes are `json.dumps(payload, sort_keys=True, separators=(",",
    ":")).encode()`. A value JSON cannot hold raises `TypeError`; a circular
    one raises `RecursionError` (`ValueError` without the `_json`
    accelerator, whose pure-Python encoder checks for cycles)."""
    return "".join(_encode_c(payload, 0)).encode()


class AuditRecord(NamedTuple):
    seq: int
    tick: int
    actor: str
    kind: RecordKind
    payload_digest: bytes
    prev_digest: bytes
    attestation_stamp: bytes
    payload_bytes: bytes

    def to_json_line(self) -> str:
        """`json.dumps` of the seven header fields with sorted keys, written
        directly; the payload bytes are not in the line."""
        return '{"actor":%s,"attestation_stamp":"%s",%s' % (
            _json(self.actor), self.attestation_stamp.hex(), _tail(self)
        )


def _json(value: Any) -> str:
    """`canonical`'s text for one value: ints and strings directly, anything
    else (a tampered field) through the shared encoder."""
    if type(value) is int:
        return "%d" % value
    if isinstance(value, str):
        return _quote(value)
    return _ENCODER.encode(value)


def key_needle(key: str) -> bytes:
    """Bytes inside the canonical encoding of every payload holding `key`."""
    return (_quote(key) + ":").encode()


def pair_needle(key: str, value: str | int) -> bytes:
    """Bytes inside the canonical encoding of every payload whose `key` holds a
    value with the same JSON text as `value`: an equal string, this bool, or
    this int (which is also how an equal float below 10**16 begins)."""
    return key_needle(key) + _json(value).encode()


def _tail(record: AuditRecord) -> str:
    """`"kind":…,"tick":N}`: the text after the actor in both the dump line and
    the chained header. A kind's text is looked up, an int seq or tick is
    written inline; anything else (a tampered field) goes through `_json`."""
    kind, seq, tick = record.kind, record.seq, record.tick
    return '"kind":%s,"payload_digest":"%s","prev_digest":"%s","seq":%s,"tick":%s}' % (
        _KIND_TEXT[kind] if type(kind) is RecordKind else _json(kind),
        record.payload_digest.hex(),
        record.prev_digest.hex(),
        "%d" % seq if type(seq) is int else _json(seq),
        "%d" % tick if type(tick) is int else _json(tick),
    )


def record_digest(record: AuditRecord) -> bytes:
    """Digest of the chained header. The stamp is excluded: it is verified
    against the run key, not re-chained. The header is `canonical` of its six
    fields, written out in sorted key order."""
    return hashlib.sha256(('{"actor":%s,%s' % (_json(record.actor), _tail(record))).encode()).digest()


# The line `to_json_line` writes for a record `append` made, with or without
# its "\n", but for its hex: the stamp and payload digest (groups 2 and 4)
# are any 64 characters here, and `verify_jsonl` tests them for lower-case
# hex with C string calls, cheaper than a class the regex engine tests one
# character at a time; the previous digest (group 5) must equal the link it
# expects. Each `.{64}` is fixed-width and followed by literal text, so the
# groups stay unambiguous. Groups 1 and 3 are the chained header. The actor
# is what `_quote` emits: printable ASCII but `"` and `\`, the short escapes
# \" \\ \b \f \n \r \t, and `\u` with lower-case hex for every other code
# unit below U+0020 or from U+007F up. A tick of 0 has no sign.
DUMP_LINE = re.compile(
    r'(\{"actor":"[ !#-\[\]-~]*(?:\\(?:["\\bfnrt]|u(?:00(?:0[0-7bef]|1[0-9a-f]|7f|[89a-f][0-9a-f])'
    r'|0[1-9a-f][0-9a-f]{2}|[1-9a-f][0-9a-f]{3}))[ !#-\[\]-~]*)*",)"attestation_stamp":"(.{64})",'
    rf'("kind":"(?:{"|".join(kind.value for kind in RecordKind)})","payload_digest":"(.{{64}})",'
    r'"prev_digest":"(.{64})","seq":(0|[1-9][0-9]*),"tick":(?:0|-?[1-9][0-9]*)\})\n?'
)


class ChainVerdict(NamedTuple):
    ok: bool
    first_broken_seq: int | None = None

    def __bool__(self) -> bool:
        return self.ok


class AuditLedger:
    """Single-writer in-process ledger. Owned by the event loop; records are
    immutable once appended and safe to hand out."""

    def __init__(
        self,
        attestation_key: bytes | None = None,
        clock: Callable[[], int] | None = None,
    ) -> None:
        self._key = attestation_key if attestation_key is not None else secrets.token_bytes(32)
        # RFC 2104's keyed states; a key longer than a block is hashed first.
        key = (self._key if len(self._key) <= 64 else hashlib.sha256(self._key).digest()).ljust(64, b"\0")
        self._inner = hashlib.sha256(bytes(b ^ 0x36 for b in key))
        self._outer = hashlib.sha256(bytes(b ^ 0x5C for b in key))
        self._clock = clock
        self._records: list[AuditRecord] = []
        self._head = GENESIS_DIGEST
        # The seal columns, written only by `append`: per seq, the record it
        # stored and the header digest.
        self._sealed: list[AuditRecord] = []
        self._digests: list[bytes] = []

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[AuditRecord]:
        return iter(self._records)

    @property
    def head_digest(self) -> bytes:
        return self._head

    def record(self, seq: int) -> AuditRecord:
        return self._records[seq]

    def payload(self, seq: int) -> dict[str, Any]:
        """A fresh decode of the stored canonical JSON (tuples come back as lists)."""
        return _DECODER.decode(self._records[seq].payload_bytes.decode())

    def candidates(self, kind: RecordKind, *needles: bytes) -> Iterator[tuple[AuditRecord, dict[str, Any]]]:
        """`(record, payload())` for each record of `kind` whose stored bytes
        contain every needle, lazily in seq order: nothing past the item the
        caller takes is scanned or decoded. Do not append while iterating."""
        records = self._records
        # `payload.find(needle) >= 0`, not `needle in payload`: CPython's
        # `bytes.__contains__` first tries the needle as an int and clears
        # the TypeError that raises, which makes it about 1.5 times the cost
        # of `find` on a ToolCall payload. The kind test and the first needle
        # (the empty one, in every payload, when none is given) share one
        # pass; each further needle filters the hits, bound as a default
        # because a closure would read the loop variable late.
        first, *rest = needles or (b"",)
        hits = (seq for seq, rec in enumerate(records) if rec.kind == kind and rec.payload_bytes.find(first) >= 0)
        for needle in rest:
            hits = filter(lambda seq, needle=needle: records[seq].payload_bytes.find(needle) >= 0, hits)
        return ((records[seq], self.payload(seq)) for seq in hits)

    def _stamp(self, seq: int, digest: bytes) -> bytes:
        """HMAC-SHA256 under the run key over `canonical({"payload_digest": …,
        "seq": seq})`: the material on a copy of the keyed inner state, its
        digest on a copy of the keyed outer state."""
        inner = self._inner.copy()
        inner.update(('{"payload_digest":"%s","seq":%s}' % (digest.hex(), _json(seq))).encode())
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def append(
        self,
        kind: RecordKind | str,
        actor: str,
        payload: Mapping[str, Any],
        *,
        tick: int | None = None,
    ) -> int:
        if type(kind) is not RecordKind:
            kind = RecordKind(kind)
        if tick is None:
            tick = self._clock() if self._clock is not None else 0
        # `canonical`, `_stamp` and `record_digest` written out, sharing the hex digests.
        blob = "".join(_encode_c(payload if type(payload) is dict else dict(payload), 0)).encode()
        digest = hashlib.sha256(blob).digest()
        hexdigest = digest.hex()
        seq = len(self._records)
        inner = self._inner.copy()
        inner.update(('{"payload_digest":"%s","seq":%d}' % (hexdigest, seq)).encode())
        outer = self._outer.copy()
        outer.update(inner.digest())
        record = tuple.__new__(AuditRecord, (seq, tick, actor, kind, digest, self._head, outer.digest(), blob))
        header = '{"actor":%s,"kind":%s,"payload_digest":"%s","prev_digest":"%s","seq":%d,"tick":%s}' % (
            _quote(actor) if isinstance(actor, str) else _json(actor),
            _KIND_TEXT[kind], hexdigest, self._head.hex(), seq,
            "%d" % tick if type(tick) is int else _json(tick),
        )
        self._head = hashlib.sha256(header.encode()).digest()
        self._records.append(record)
        self._sealed.append(record)
        self._digests.append(self._head)
        return seq

    def verify_chain(
        self, from_seq: int = 0, to_seq: int | None = None
    ) -> ChainVerdict:
        records = self._records
        last = len(records) - 1
        if to_seq is None:
            to_seq = last
        if not records:
            if from_seq == 0 and to_seq == -1:
                return ChainVerdict(True)
            raise ValidationError("empty ledger")
        if from_seq < 0 or to_seq > last or from_seq > to_seq:
            raise ValidationError(f"range [{from_seq}, {to_seq}] outside [0, {last}]")
        # Each digest is computed once: it is the next record's expected link
        # and, after the last record, the expected head.
        digest = GENESIS_DIGEST if from_seq == 0 else record_digest(records[from_seq - 1])
        # A replaced slot holds a record that is not the very object `append`
        # sealed; one identity pass finds them all.
        stop = to_seq + 1
        replaced = map(is_not, records[from_seq:stop], self._sealed[from_seq:stop])
        n = from_seq
        for bad in (*compress(range(from_seq, stop), replaced), stop):
            if n < bad:
                # Untouched slots hold immutable objects that passed every
                # check at append, and each one's link is the digest sealed
                # for the one before: only the run's first link can differ.
                if records[n].prev_digest != digest:
                    return ChainVerdict(False, n)
                digest = self._digests[bad - 1]
            if bad == stop:
                break
            n = bad + 1
            rec = records[bad]
            if rec.seq != bad or rec.prev_digest != digest:
                return ChainVerdict(False, bad)
            if hashlib.sha256(rec.payload_bytes).digest() != rec.payload_digest:
                return ChainVerdict(False, bad)
            if not hmac.compare_digest(
                self._stamp(rec.seq, rec.payload_digest), rec.attestation_stamp
            ):
                return ChainVerdict(False, bad)
            digest = record_digest(rec)
        if to_seq == last and digest != self._head:
            return ChainVerdict(False, last)
        return ChainVerdict(True)

    def dump_jsonl(self) -> str:
        return "".join([rec.to_json_line() + "\n" for rec in self._records])

    def fork(self) -> "AuditLedger":
        """Independent copy sharing nothing mutable; used by tamper tests."""
        twin = AuditLedger(attestation_key=self._key, clock=self._clock)
        for column in ("_records", "_sealed", "_digests"):
            setattr(twin, column, list(getattr(self, column)))
        twin._head = self._head
        return twin


def verify_jsonl(lines: Iterable[str], head: bytes | None = None) -> ChainVerdict:
    """Offline chain check over a ledger dump: form, continuity, genesis and
    links. Empty lines (no text, or a lone newline) are skipped. A line is in
    the written form when it matches `DUMP_LINE` and its stamp and payload
    digest are lower-case hex; a line that is not exactly what govsim writes
    (whitespace alone, an extra, repeated or reordered key, other spacing, a
    quoted or float seq, a bool or `-0` tick, an actor escape `_quote` does
    not write, upper-case or spaced hex, an empty stamp) breaks the chain at
    its seq. Each link is the SHA-256 of the header text as read. Payloads
    and the MAC key are not in the dump, so the self and stamp checks are
    unavailable here.

    Without `head` a dropped tail, or an edit to the last line, goes unseen.
    Given the run's head digest (the report's `ledger.head_digest`), the
    digest after the last line must equal it; if not, the dump is broken at
    its last seq (seq 0 when it holds none), as in `verify_chain`.
    """
    fullmatch, fromhex, sha256 = DUMP_LINE.fullmatch, bytes.fromhex, hashlib.sha256
    expected = GENESIS_DIGEST.hex()
    n = 0
    for line in lines:
        match = fullmatch(line)
        if match is None:
            if line == "" or line == "\n":
                continue
            return ChainVerdict(False, n)
        header, stamp, tail, digest, prev, seq = match.groups()
        # `prev` must equal a lower-case hexdigest. The other two are hex when
        # `fromhex` reads 64 bytes from their 128 characters: it takes only
        # ASCII hex digits and skips ASCII whitespace, so any other character
        # raises or leaves too few digits; `lower` rules out A-F.
        both = stamp + digest
        try:
            hexed = len(fromhex(both)) == 2 * DIGEST_SIZE and both.lower() == both
        except ValueError:
            hexed = False
        if not hexed or seq != str(n) or prev != expected:
            return ChainVerdict(False, n)
        expected = sha256((header + tail).encode()).hexdigest()
        n += 1
    if head is not None and head.hex() != expected:
        return ChainVerdict(False, max(n - 1, 0))
    return ChainVerdict(True)
