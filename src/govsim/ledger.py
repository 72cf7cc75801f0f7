"""Append-only, hash-chained audit ledger and provenance index.

Every state transition in a run lands here as an AuditRecord. Records chain
through SHA-256 digests (genesis uses an all-zero previous digest) and carry a
keyed attestation stamp standing in for a hardware signature. Payloads are
stored alongside the chain and digested through a canonical JSON encoding so
replays are bit-stable. The header and stamp material have a fixed shape and
are written directly in that encoding's key order, byte for byte what
`canonical` would produce.

`verify_chain` recomputes every digest and stamp from stored state on every
call and trusts no cached value. `append` also keeps each header digest; only
`pedigree` reads them, so a pedigree taken from an edited ledger still names
the original chain. Its caller (`post_mortem`) verifies the whole chain
against the head first.
"""
from __future__ import annotations

import hashlib
import hmac
import json
import secrets
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Iterable, Iterator, Mapping

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


class RangeError(ValueError):
    """verify_chain was asked about sequence numbers the ledger does not hold."""


class UnknownMission(KeyError):
    pass


# The options `json.dumps` would be given; one encoder skips building one per call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_quote = json.encoder.encode_basestring_ascii


def canonical(payload: Mapping[str, Any]) -> bytes:
    """Deterministic field-ordered encoding; digests must be bit-stable."""
    return _ENCODER.encode(payload).encode("utf-8")


def payload_digest(payload: Mapping[str, Any]) -> bytes:
    return hashlib.sha256(canonical(payload)).digest()


@dataclass(frozen=True)
class AuditRecord:
    seq: int
    tick: int
    actor: str
    kind: RecordKind
    payload_digest: bytes
    prev_digest: bytes
    attestation_stamp: bytes

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "seq": self.seq,
                "tick": self.tick,
                "actor": self.actor,
                "kind": self.kind.value,
                "payload_digest": self.payload_digest.hex(),
                "prev_digest": self.prev_digest.hex(),
                "attestation_stamp": self.attestation_stamp.hex(),
            },
            sort_keys=True,
            separators=(",", ":"),
        )


def _json(value: Any) -> str:
    """`canonical`'s text for one value: ints and strings directly, anything
    else (a tampered field) through the shared encoder."""
    if type(value) is int:
        return "%d" % value
    if isinstance(value, str):
        return _quote(value)
    return _ENCODER.encode(value)


def record_digest(record: AuditRecord) -> bytes:
    """Digest of the chained header. The stamp is excluded: it is verified
    against the run key, not re-chained. The header is `canonical` of its six
    fields, written out in sorted key order."""
    header = '{"actor":%s,"kind":%s,"payload_digest":"%s","prev_digest":"%s","seq":%s,"tick":%s}' % (
        _json(record.actor),
        _json(record.kind),
        record.payload_digest.hex(),
        record.prev_digest.hex(),
        _json(record.seq),
        _json(record.tick),
    )
    return hashlib.sha256(header.encode()).digest()


@dataclass(frozen=True)
class ChainVerdict:
    ok: bool
    first_broken_seq: int | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class LogicPedigree:
    mission_id: str
    record_refs: tuple[int, ...]
    anchor_digest: bytes


class AuditLedger:
    """Single-writer in-process ledger. Owned by the event loop; records are
    immutable once appended and safe to hand out."""

    def __init__(
        self,
        attestation_key: bytes | None = None,
        clock: Callable[[], int] | None = None,
    ) -> None:
        self._key = attestation_key if attestation_key is not None else secrets.token_bytes(32)
        self._clock = clock
        self._records: list[AuditRecord] = []
        self._payloads: list[dict[str, Any]] = []
        self._head = GENESIS_DIGEST
        # Read by `pedigree` only; `verify_chain` recomputes from the records.
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
        return dict(self._payloads[seq])

    def records_of_kind(self, kind: RecordKind) -> list[AuditRecord]:
        return [r for r in self._records if r.kind is kind]

    def _stamp(self, seq: int, digest: bytes) -> bytes:
        """HMAC over `canonical({"payload_digest": …, "seq": seq})`."""
        material = '{"payload_digest":"%s","seq":%s}' % (digest.hex(), _json(seq))
        return hmac.digest(self._key, material.encode(), "sha256")

    def append(
        self,
        kind: RecordKind | str,
        actor: str,
        payload: Mapping[str, Any],
        *,
        tick: int | None = None,
    ) -> int:
        kind = RecordKind(kind)
        if tick is None:
            tick = self._clock() if self._clock is not None else 0
        body = dict(payload)
        digest = payload_digest(body)
        seq = len(self._records)
        record = AuditRecord(
            seq=seq,
            tick=tick,
            actor=actor,
            kind=kind,
            payload_digest=digest,
            prev_digest=self._head,
            attestation_stamp=self._stamp(seq, digest),
        )
        self._records.append(record)
        self._payloads.append(body)
        self._head = record_digest(record)
        self._digests.append(self._head)
        return seq

    def verify_chain(
        self, from_seq: int = 0, to_seq: int | None = None
    ) -> ChainVerdict:
        last = len(self._records) - 1
        if to_seq is None:
            to_seq = last
        if not self._records:
            if from_seq == 0 and to_seq == -1:
                return ChainVerdict(True)
            raise RangeError("empty ledger")
        if from_seq < 0 or to_seq > last or from_seq > to_seq:
            raise RangeError(f"range [{from_seq}, {to_seq}] outside [0, {last}]")
        # Each digest is computed once: it is the next record's expected link
        # and, after the last record, the expected head.
        digest = GENESIS_DIGEST if from_seq == 0 else record_digest(self._records[from_seq - 1])
        for n in range(from_seq, to_seq + 1):
            rec = self._records[n]
            if rec.seq != n:
                return ChainVerdict(False, n)
            if rec.prev_digest != digest:
                return ChainVerdict(False, n)
            if payload_digest(self._payloads[n]) != rec.payload_digest:
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
        kept at append. Verify the chain first: those digests are not
        re-derived from the records, so an unverified edit goes unseen here."""
        refs = tuple(
            seq for seq, body in enumerate(self._payloads) if body.get("mission_id") == mission_id
        )
        if not refs:
            raise UnknownMission(mission_id)
        anchor = hashlib.sha256(b"".join(self._digests[seq] for seq in refs)).digest()
        return LogicPedigree(mission_id=mission_id, record_refs=refs, anchor_digest=anchor)

    def dump_jsonl(self) -> str:
        return "".join(rec.to_json_line() + "\n" for rec in self._records)

    def fork(self) -> "AuditLedger":
        """Independent copy sharing nothing mutable; used by tamper tests."""
        twin = AuditLedger(attestation_key=self._key, clock=self._clock)
        twin._records = list(self._records)
        twin._payloads = [dict(p) for p in self._payloads]
        twin._head = self._head
        twin._digests = list(self._digests)
        return twin

    # -- test hooks ---------------------------------------------------------
    # These simulate storage-level attacks; nothing in the package calls them.
    # Like an attacker on storage, they leave `_digests` as it was:
    # `verify_chain` must catch the edit without it.

    def _tamper_payload(self, seq: int, payload: Mapping[str, Any]) -> None:
        """Consistent rewrite: payload, digest, and stamp are all redone, so
        detection rests on the chain links (or the head check for the last
        record), not on the per-record self checks."""
        body = dict(payload)
        digest = payload_digest(body)
        old = self._records[seq]
        self._payloads[seq] = body
        self._records[seq] = AuditRecord(
            seq=old.seq,
            tick=old.tick,
            actor=old.actor,
            kind=old.kind,
            payload_digest=digest,
            prev_digest=old.prev_digest,
            attestation_stamp=self._stamp(old.seq, digest),
        )

    def _tamper_field(self, seq: int, field: str, value: Any) -> None:
        """Raw single-field mutation with no recomputation."""
        if field == "payload":
            self._payloads[seq] = dict(value)
            return
        old = self._records[seq]
        parts = {
            "seq": old.seq,
            "tick": old.tick,
            "actor": old.actor,
            "kind": old.kind,
            "payload_digest": old.payload_digest,
            "prev_digest": old.prev_digest,
            "attestation_stamp": old.attestation_stamp,
        }
        parts[field] = value
        self._records[seq] = AuditRecord(**parts)


def verify_jsonl(lines: Iterable[str]) -> ChainVerdict:
    """Offline chain check over a ledger dump: continuity, genesis, and links.

    Payloads and the MAC key are not part of the dump, so the self and stamp
    checks are unavailable here.
    """
    prev: AuditRecord | None = None
    for n, line in enumerate(l for l in lines if l.strip()):
        try:
            row = json.loads(line)
            rec = AuditRecord(
                seq=int(row["seq"]),
                tick=int(row["tick"]),
                actor=str(row["actor"]),
                kind=RecordKind(row["kind"]),
                payload_digest=bytes.fromhex(row["payload_digest"]),
                prev_digest=bytes.fromhex(row["prev_digest"]),
                attestation_stamp=bytes.fromhex(row["attestation_stamp"]),
            )
        except (KeyError, ValueError, TypeError):
            return ChainVerdict(False, n)
        if rec.seq != n:
            return ChainVerdict(False, n)
        expected_prev = GENESIS_DIGEST if n == 0 else record_digest(prev)
        if rec.prev_digest != expected_prev:
            return ChainVerdict(False, n)
        prev = rec
    return ChainVerdict(True)
