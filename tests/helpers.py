"""Builders shared across test modules: a nine-node settlement job, a
ceiling charter, a fresh ledger, and a small certified registry; `same`, an
equality that also compares types; `ledger_accounts`, the treasury rebuilt
from a run's ledger; `mission_seqs`, a mission's records found by decoding
every payload; and the storage-level ledger tampers."""
import hashlib
from decimal import Decimal

from govsim.economy import ECOSYSTEM_FUND, INFRA_FUND, JUDICIAL_FUND
from govsim.identity import CertEvent, IdentityRegistry
from govsim.ledger import AuditLedger, RecordKind, canonical
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


def manifest_for(job, notional=None):
    if notional is not None:
        job = job._replace(notional_value=Decimal(str(notional)))
    return MissionManifest.for_job(
        job,
        mission_id="MISSION-1",
        value_ceiling="50000000",
        reward_pool_total="4750.00",
        tax_rates={"protocol": "0.035", "infrastructure": "0.015"},
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


def ledger_accounts(config, ledger):
    """Every account's `(balance, stake_locked)` as cent strings, rebuilt from
    the scenario's opening balances plus the ledger's TokenTransfer and
    SlashingEvent payloads. The pool's escrow is the account
    `escrow:<mission_id>`."""
    accounts = {fund: [Decimal(0), Decimal(0)] for fund in (JUDICIAL_FUND, INFRA_FUND, ECOSYSTEM_FUND)}

    def account(owner):
        return accounts.setdefault(owner, [Decimal(0), Decimal(0)])

    for agent in config.agents:
        account(agent.did)[0] += Decimal(agent.balance)
        account(agent.did)[1] += Decimal(agent.stake)
    account(config.economy.org_account)[0] += Decimal(config.economy.org_balance)
    for owner, balance in config.economy.partner_accounts:
        account(owner)[0] += Decimal(balance)
    for record in ledger:
        if record.kind is RecordKind.TOKEN_TRANSFER:
            body = ledger.payload(record.seq)
            account(body["from"])[0] -= Decimal(body["amount"])
            account(body["to"])[0] += Decimal(body["amount"])
        elif record.kind is RecordKind.SLASHING_EVENT:
            body = ledger.payload(record.seq)
            account(body["did"])[1] -= Decimal(body["amount"])
            account(JUDICIAL_FUND)[0] += Decimal(body["amount"])
    return {owner: (f"{balance:.2f}", f"{stake:.2f}") for owner, (balance, stake) in accounts.items()}


def mission_seqs(ledger, mission_id):
    """The seqs of the records whose decoded payload's `mission_id` is
    `mission_id`, in order: the reference for a search confined to one
    mission, with no needle and no index."""
    return [record.seq for record in ledger if ledger.payload(record.seq).get("mission_id") == mission_id]


def assert_ledger_rebuilds_the_treasury(config, report):
    """The accounts rebuilt from the ledger equal the treasury's to the cent,
    and the escrow holds the pool's net until it is distributed. A run that
    aborted while registering the roster never opened its later accounts."""
    derived = ledger_accounts(config, report.ledger)
    treasury = report.treasury
    actual = {owner: (f"{a.balance:.2f}", f"{a.stake_locked:.2f}") for owner, a in treasury._accounts.items()}
    assert {owner: derived[owner] for owner in actual} == actual
    escrow = f"escrow:{config.mission_id}"
    pool = treasury._pools.get(config.mission_id)
    if report.body["mission"]["outcome"] != "Aborted":
        assert set(derived) - set(actual) == ({escrow} if pool is not None else set())
    held = pool.net if pool is not None and pool.escrow_state == "Funded" else 0
    assert derived.get(escrow, ("0.00", "0.00")) == (f"{held:.2f}", "0.00")


# Storage-level attacks on a ledger. Like an attacker on storage, they replace
# one record slot (the record holds its payload bytes) and leave the seals as
# they were, so `verify_chain` re-derives every replaced slot.


def tamper_payload(ledger, seq, payload):
    """Consistent rewrite: payload, digest, and stamp are all redone, so
    detection rests on the chain links (or the head check for the last
    record), not on the per-record self checks."""
    blob = canonical(payload)
    digest = hashlib.sha256(blob).digest()
    old = ledger._records[seq]
    ledger._records[seq] = old._replace(
        payload_digest=digest, attestation_stamp=ledger._stamp(old.seq, digest), payload_bytes=blob
    )


def tamper_field(ledger, seq, field, value):
    """Raw single-field mutation with no recomputation."""
    if field == "payload":
        field, value = "payload_bytes", canonical(value)
    ledger._records[seq] = ledger._records[seq]._replace(**{field: value})
