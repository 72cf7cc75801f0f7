"""Append-only, hash-chained audit ledger and provenance index.

Every state transition in a run lands here as an AuditRecord. Records chain
through SHA-256 digests (genesis uses an all-zero previous digest) and carry a
keyed attestation stamp standing in for a hardware signature: an HMAC-SHA256
under the run key, taken on a copy of one HMAC keyed when the ledger is made
(the keyed base is never updated, so every stamp starts from the key alone).
Payloads are stored alongside the chain and digested through a canonical JSON
encoding so replays are bit-stable. The header and stamp material have a
fixed shape and are written directly in that encoding's key order, byte for
byte what `canonical` would produce.

Storage is immutable: a record is a tuple of ints, strings, a kind and bytes,
and a payload is kept as its canonical bytes, exactly what its digest covers
(`payload` decodes a fresh copy, so readers never alias storage). `append`
seals each slot: it keeps the record object, the payload bytes object, the
header digest and the mission id. `verify_chain` checks every seq and link,
takes the sealed digest for a slot whose record and payload are still the
very objects sealed (neither can have changed since), and re-derives payload
digest, stamp and header digest for any slot that was replaced. The verdict
is the one a full recomputation gives.
`pedigree` reads mission ids and digests from the seals, so a pedigree taken
from an edited, unverified ledger still names the original chain; its caller
(`post_mortem`) verifies the whole chain against the head first. The offline
`verify_jsonl` trusts nothing: it accepts only the exact lines govsim writes
(`DUMP_LINE`) and checks each link against the header text as read, and, given
the run's head digest, the digest after the last line against it.

Payload searches test the stored bytes before decoding anything. A payload
whose top-level `key` holds a string `value` encodes that item as exactly
`pair_needle(key, value)`, so `candidates` decodes only the records whose
bytes contain every needle a search names. A needle is a necessary condition,
never a sufficient one (the same text can sit in a nested object): the
caller still tests each decoded payload.
"""
from __future__ import annotations

import hashlib
import hmac
import json
import re
import secrets
from enum import Enum
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple

from .errors import NotFound, ValidationError

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


# The options `json.dumps` would be given; one encoder skips building one per call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_DECODER = json.JSONDecoder()
_quote = json.encoder.encode_basestring_ascii


def canonical(payload: Mapping[str, Any]) -> bytes:
    """Deterministic field-ordered encoding; digests must be bit-stable."""
    return _ENCODER.encode(payload).encode("utf-8")


class AuditRecord(NamedTuple):
    seq: int
    tick: int
    actor: str
    kind: RecordKind
    payload_digest: bytes
    prev_digest: bytes
    attestation_stamp: bytes

    def to_json_line(self) -> str:
        """`json.dumps` of the seven fields with sorted keys, written directly."""
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


def pair_needle(key: str, value: str | bool) -> bytes:
    """Bytes inside the canonical encoding of every payload whose `key` holds a
    value with the same JSON text as `value`: an equal string, or this bool."""
    return key_needle(key) + _json(value).encode()


def _tail(record: AuditRecord) -> str:
    """`"kind":…,"tick":N}`: the text after the actor in both the dump line and
    the chained header. An int seq or tick and a str kind are written inline;
    anything else (a tampered field) goes through `_json`."""
    kind, seq, tick = record.kind, record.seq, record.tick
    return '"kind":%s,"payload_digest":"%s","prev_digest":"%s","seq":%s,"tick":%s}' % (
        _quote(kind) if isinstance(kind, str) else _json(kind),
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
# its "\n". Groups 1 and 2 are the chained header. The actor is what `_quote`
# emits: printable ASCII but `"` and `\`, and the escapes it writes for the rest.
_HEX = "[0-9a-f]{64}"
DUMP_LINE = re.compile(
    r'(\{"actor":"[ !#-\[\]-~]*(?:\\(?:["\\bfnrt]|u[0-9a-f]{4})[ !#-\[\]-~]*)*",)'
    rf'"attestation_stamp":"{_HEX}",'
    rf'("kind":"(?:{"|".join(kind.value for kind in RecordKind)})","payload_digest":"{_HEX}",'
    rf'"prev_digest":"({_HEX})","seq":(0|[1-9][0-9]*),"tick":-?(?:0|[1-9][0-9]*)\}})\n?'
)


class ChainVerdict(NamedTuple):
    ok: bool
    first_broken_seq: int | None = None

    def __bool__(self) -> bool:
        return self.ok


class LogicPedigree(NamedTuple):
    mission_id: str
    record_refs: tuple[int, ...]
    anchor_digest: bytes


class _Seal(NamedTuple):
    """What `append` stored and derived for one seq. Storage-level edits
    replace `_records`/`_payloads` slots and never touch the seal."""

    record: AuditRecord
    blob: bytes
    digest: bytes
    mission_id: Any


def _encode(payload: Mapping[str, Any]) -> tuple[bytes, bytes]:
    """A payload's canonical bytes and their digest."""
    blob = canonical(dict(payload))
    return blob, hashlib.sha256(blob).digest()


class AuditLedger:
    """Single-writer in-process ledger. Owned by the event loop; records are
    immutable once appended and safe to hand out."""

    def __init__(
        self,
        attestation_key: bytes | None = None,
        clock: Callable[[], int] | None = None,
    ) -> None:
        self._key = attestation_key if attestation_key is not None else secrets.token_bytes(32)
        # Keyed once; `_stamp` copies it and never updates it in place.
        self._mac = hmac.new(self._key, digestmod="sha256")
        self._clock = clock
        self._records: list[AuditRecord] = []
        self._payloads: list[bytes] = []
        self._head = GENESIS_DIGEST
        self._seals: list[_Seal] = []

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
        return _DECODER.decode(self._payloads[seq].decode())

    def candidates(
        self, seqs: Iterable[int], kinds: tuple[RecordKind, ...], needles: tuple[bytes, ...]
    ) -> list[tuple[AuditRecord, dict[str, Any]]]:
        """`(record, payload())` for each of `seqs`, in the order given, whose
        kind is in `kinds` (any kind when empty) and whose stored bytes
        contain every needle. No other payload is decoded."""
        records, payloads = self._records, self._payloads
        hits = [seq for seq in seqs if records[seq].kind in kinds] if kinds else list(seqs)
        # One pass per needle keeps each test a bare `in` on bytes.
        for needle in needles:
            hits = [seq for seq in hits if needle in payloads[seq]]
        return [(records[seq], self.payload(seq)) for seq in hits]

    def records_of_kind(self, kind: RecordKind) -> list[AuditRecord]:
        return [r for r in self._records if r.kind is kind]

    def _stamp(self, seq: int, digest: bytes) -> bytes:
        """HMAC-SHA256 under the run key over `canonical({"payload_digest": …,
        "seq": seq})`, taken on a copy of the keyed base HMAC."""
        mac = self._mac.copy()
        mac.update(('{"payload_digest":"%s","seq":%s}' % (digest.hex(), _json(seq))).encode())
        return mac.digest()

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
        blob, digest = _encode(payload)
        seq = len(self._records)
        record = AuditRecord(seq, tick, actor, kind, digest, self._head, self._stamp(seq, digest))
        self._records.append(record)
        self._payloads.append(blob)
        self._head = record_digest(record)
        self._seals.append(_Seal(record, blob, self._head, payload.get("mission_id")))
        return seq

    def verify_chain(
        self, from_seq: int = 0, to_seq: int | None = None
    ) -> ChainVerdict:
        records, payloads, seals = self._records, self._payloads, self._seals
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
        for n in range(from_seq, to_seq + 1):
            rec = records[n]
            if rec.seq != n:
                return ChainVerdict(False, n)
            if rec.prev_digest != digest:
                return ChainVerdict(False, n)
            seal = seals[n]
            if rec is seal.record and payloads[n] is seal.blob:
                # The sealed objects are immutable: re-deriving them would
                # give the self check, stamp and digest they passed at append.
                digest = seal.digest
                continue
            if hashlib.sha256(payloads[n]).digest() != rec.payload_digest:
                return ChainVerdict(False, n)
            if not hmac.compare_digest(
                self._stamp(rec.seq, rec.payload_digest), rec.attestation_stamp
            ):
                return ChainVerdict(False, n)
            digest = record_digest(rec)
        if to_seq == last and digest != self._head:
            return ChainVerdict(False, last)
        return ChainVerdict(True)

    def pedigree(self, mission_id: str) -> LogicPedigree:
        """The mission's records in seq order, anchored on the header digests
        sealed at append. Verify the chain first: mission ids and digests are
        read from the seals, not re-derived from storage, so an unverified
        edit goes unseen here."""
        refs = tuple(seq for seq, seal in enumerate(self._seals) if seal.mission_id == mission_id)
        if not refs:
            raise NotFound(f"no records for mission {mission_id!r}")
        anchor = hashlib.sha256(b"".join(self._seals[seq].digest for seq in refs)).digest()
        return LogicPedigree(mission_id=mission_id, record_refs=refs, anchor_digest=anchor)

    def dump_jsonl(self) -> str:
        return "".join([rec.to_json_line() + "\n" for rec in self._records])

    def fork(self) -> "AuditLedger":
        """Independent copy sharing nothing mutable; used by tamper tests."""
        twin = AuditLedger(attestation_key=self._key, clock=self._clock)
        twin._records = list(self._records)
        twin._payloads = list(self._payloads)
        twin._head = self._head
        twin._seals = list(self._seals)
        return twin


def verify_jsonl(lines: Iterable[str], head: bytes | None = None) -> ChainVerdict:
    """Offline chain check over a ledger dump: form, continuity, genesis and
    links. Blank lines are skipped. A line that is not exactly what govsim
    writes (an extra, repeated or reordered key, other spacing, a quoted or
    float seq, a bool tick, upper-case or spaced hex, an empty stamp) breaks
    the chain at its seq. Each link is the SHA-256 of the header text as
    read. Payloads and the MAC key are not in the dump, so the self and
    stamp checks are unavailable here.

    Without `head` a dropped tail, or an edit to the last line, goes unseen.
    Given the run's head digest (the report's `ledger.head_digest`), the
    digest after the last line must equal it; if not, the dump is broken at
    its last seq (seq 0 when it holds none), as in `verify_chain`.
    """
    expected = GENESIS_DIGEST.hex()
    n = -1
    for n, line in enumerate(l for l in lines if l.strip()):
        match = DUMP_LINE.fullmatch(line)
        if match is None:
            return ChainVerdict(False, n)
        header, tail, prev, seq = match.groups()
        if seq != "%d" % n or prev != expected:
            return ChainVerdict(False, n)
        expected = hashlib.sha256((header + tail).encode()).hexdigest()
    if head is not None and head.hex() != expected:
        return ChainVerdict(False, max(n, 0))
    return ChainVerdict(True)
