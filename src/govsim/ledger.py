"""Append-only, hash-chained audit ledger and provenance index.

Every state transition in a run lands here as an AuditRecord. Records chain
through SHA-256 digests (genesis uses an all-zero previous digest) and carry a
keyed attestation stamp standing in for a hardware signature. Payloads are
stored alongside the chain and digested through a canonical JSON encoding so
replays are bit-stable.
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


def canonical(payload: Mapping[str, Any]) -> bytes:
    """Deterministic field-ordered encoding; digests must be bit-stable."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


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


def record_digest(record: AuditRecord) -> bytes:
    """Digest of the chained header. The stamp is excluded: it is verified
    against the run key, not re-chained."""
    header = {
        "seq": record.seq,
        "tick": record.tick,
        "actor": record.actor,
        "kind": record.kind.value,
        "payload_digest": record.payload_digest.hex(),
        "prev_digest": record.prev_digest.hex(),
    }
    return hashlib.sha256(canonical(header)).digest()


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
        material = canonical({"seq": seq, "payload_digest": digest.hex()})
        return hmac.new(self._key, material, hashlib.sha256).digest()

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
        for n in range(from_seq, to_seq + 1):
            rec = self._records[n]
            if rec.seq != n:
                return ChainVerdict(False, n)
            expected_prev = (
                GENESIS_DIGEST if n == 0 else record_digest(self._records[n - 1])
            )
            if rec.prev_digest != expected_prev:
                return ChainVerdict(False, n)
            if payload_digest(self._payloads[n]) != rec.payload_digest:
                return ChainVerdict(False, n)
            if not hmac.compare_digest(
                self._stamp(rec.seq, rec.payload_digest), rec.attestation_stamp
            ):
                return ChainVerdict(False, n)
        if to_seq == last and record_digest(self._records[last]) != self._head:
            return ChainVerdict(False, last)
        return ChainVerdict(True)

    def pedigree(self, mission_id: str) -> LogicPedigree:
        refs = tuple(
            rec.seq
            for rec, body in zip(self._records, self._payloads)
            if body.get("mission_id") == mission_id
        )
        if not refs:
            raise UnknownMission(mission_id)
        anchor = hashlib.sha256(
            b"".join(record_digest(self._records[seq]) for seq in refs)
        ).digest()
        return LogicPedigree(mission_id=mission_id, record_refs=refs, anchor_digest=anchor)

    def dump_jsonl(self) -> str:
        return "".join(rec.to_json_line() + "\n" for rec in self._records)

    def fork(self) -> "AuditLedger":
        """Independent copy sharing nothing mutable; used by tamper tests."""
        twin = AuditLedger(attestation_key=self._key, clock=self._clock)
        twin._records = list(self._records)
        twin._payloads = [dict(p) for p in self._payloads]
        twin._head = self._head
        return twin

    # -- test hooks ---------------------------------------------------------
    # These simulate storage-level attacks; nothing in the package calls them.

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
