"""Builders shared across test modules: a nine-node settlement job, a
ceiling charter, a fresh ledger, and a small certified registry; `same`, an
equality that also compares types; and the storage-level ledger tampers."""
from decimal import Decimal

from govsim.identity import CertEvent, IdentityRegistry
from govsim.ledger import AuditLedger, _encode
from govsim.legislation import (
    Charter,
    JobSpec,
    MissionManifest,
    Predicate,
    Rule,
    SlashingCondition,
    TaskTemplate,
)


def same(actual, expected):
    """Equal and of one type: NamedTuples of two types compare equal when
    their fields do, so `ProviderFault("x") == InfrastructureFault("x")`."""
    return type(actual) is type(expected) and actual == expected


def template(tid, deps=(), **overrides):
    base = dict(
        template_id=tid,
        depends_on=tuple(deps),
        token_cap=1000,
        slashing_condition=SlashingCondition("rate_deviation_bps", "gt", "0.5"),
    )
    base.update(overrides)
    return TaskTemplate(**base)


def nine_node_job():
    templates = (
        template("TASK-001A"),
        template("TASK-001B", ["TASK-001A"], gate_check_id="fx-rate-lock"),
        template("TASK-002A", ["TASK-001B"]),
        template("TASK-002B", ["TASK-001B"]),
        template("TASK-002C", ["TASK-001B"]),
        template("TASK-003A", ["TASK-001B"]),
        template("TASK-003B", ["TASK-001B"]),
        template("TASK-004", ["TASK-002A", "TASK-002B", "TASK-002C"]),
        template("TASK-005", ["TASK-003A", "TASK-003B", "TASK-004"], seals_provenance=True),
    )
    return JobSpec(
        job_id="JOB-1",
        order_count=847,
        notional_value=Decimal("47300000"),
        currency="EUR",
        task_templates=templates,
    )


def ceiling_charter(extra=()):
    rules = (
        Rule(
            rule_id="ceiling",
            scope="manifest",
            predicate=Predicate("notional_value", "gt", "50000000"),
            action="Escalate",
        ),
    ) + tuple(extra)
    return Charter(version=1, rules=rules)


def manifest_for(job, charter, notional=None):
    if notional is not None:
        job = job._replace(notional_value=Decimal(str(notional)))
    return MissionManifest.for_job(
        job,
        charter,
        mission_id="MISSION-1",
        value_ceiling="50000000",
        reward_pool_total="4750.00",
        tax_rates={"protocol": "0.035", "infrastructure": "0.015"},
        authorized_principals=("ops-lead", "treasury-lead"),
    )


def new_ledger():
    return AuditLedger(attestation_key=b"k")


def certified_registry():
    registry = IdentityRegistry(new_ledger())
    roster = [
        ("did:test:fx-12", "98.7", "9100.00"),
        ("did:test:fx-14", "98.5", "8700.00"),
        ("did:test:low-stake", "99.9", "50.00"),
    ]
    for did, rep, stake in roster:
        registry.register_agent(did, "execution", "ops-lead", stake, reputation=rep)
        registry.transition_cert(did, CertEvent.BENCHMARK_PASS)
    registry.register_agent(
        "did:test:provisional", "execution", "ops-lead", "5000.00", reputation="99.0"
    )
    return registry


# Storage-level attacks on a ledger. Like an attacker on storage, they replace
# the record and payload slots and leave the seals as they were, so
# `verify_chain` re-derives every replaced slot.


def tamper_payload(ledger, seq, payload):
    """Consistent rewrite: payload, digest, and stamp are all redone, so
    detection rests on the chain links (or the head check for the last
    record), not on the per-record self checks."""
    blob, digest = _encode(payload)
    old = ledger._records[seq]
    ledger._payloads[seq] = blob
    ledger._records[seq] = old._replace(
        payload_digest=digest, attestation_stamp=ledger._stamp(old.seq, digest)
    )


def tamper_field(ledger, seq, field, value):
    """Raw single-field mutation with no recomputation."""
    if field == "payload":
        ledger._payloads[seq] = _encode(value)[0]
        return
    ledger._records[seq] = ledger._records[seq]._replace(**{field: value})
