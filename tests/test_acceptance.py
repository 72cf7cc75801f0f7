"""Release gate: ten criteria the package must clear before it ships.

One scoreboard line per criterion is printed at the end of the run (see
conftest). Tolerances are pinned here and nowhere else:

  money            exact to the cent (tolerance 0)
  utilization      +/- 0.0001
  replay wallclock under 10 seconds per scenario

Derived oracles, computed before the assertions:

  pool 4750.00 at 3.5% / 1.5%: 166.25 protocol, 71.25 infra, 4512.50 net
  reward rows 892.40 + 741.80 + 618.40 + 651.60 + 713.20 + 581.10 + 314.00
    = 4512.50 exactly
  cross-node 180.00 at 2%: 3.60 tax
  window 24400 / 30700 = 0.794788..., three decimals half-up -> 0.795
  incentive margins: see tests/oracles/*.json (hand-worked tables)
  certification ladder: Provisional -1-> Full; UnderReview -1-> Full;
    Suspended -2-> Full; Uncertified -2-> Full; nothing leaves Revoked
"""
import hashlib
import json
import random
import time
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from govsim.economy import (
    INFRA_FUND,
    IncentiveParams,
    check_incentive_compatibility,
)
from govsim.errors import BudgetExceeded, CapBreached, InvalidTransition, NotFound, ValidationError
from govsim.execution import (
    LEGAL_TRANSITIONS,
    BehaviorOutcome,
    NodeRun,
    NodeState,
    execute_node,
    transition,
)
from govsim.harness import (
    CASE_STUDY_FIXTURE,
    STRESS_WINDOW_FIXTURE,
    bundled_scenario_path,
    replay_case_study,
    replay_fault_drill,
    run,
    scenario_from_dict,
)
from govsim.identity import (
    TRANSITIONS,
    CertEvent,
    CertState,
    IdentityRegistry,
    shortest_certification_path,
)
from govsim.ledger import RecordKind, canonical
from govsim.legislation import (
    Assignment,
    Bid,
    JobSpec,
    decompose,
    generate_contract_stack,
    run_bidding,
)
from helpers import manifest_for, new_ledger, tamper_field, tamper_payload, template

MONEY_TOL = Decimal("0.00")
UTILIZATION_TOL = Decimal("0.0001")
REPLAY_BUDGET_SECONDS = 10.0

ORACLE_DIR = Path(__file__).parent / "oracles"

CRITERIA = {
    "test_c01_settlement_money_exact": (1, "settlement arithmetic exact to the cent"),
    "test_c02_freeze_is_surgical": (2, "freeze targets one node, rollback restores it, blame lands on the provider"),
    "test_c03_quarantine_partitions_the_batch": (3, "quarantine splits the batch and releases only on attested grounds"),
    "test_c04_dispute_ratifies_one_amendment": (4, "dispute runs to ratification and moves the rulebook exactly once"),
    "test_c05_correction_loops_stamp_in_order": (5, "correction loops stamp their four stages in ledger order"),
    "test_c06_fourth_freeze_trips_the_breaker": (6, "a fourth freeze in the window trips the breaker, a third does not"),
    "test_c07_budget_window_utilization": (7, "budget caps bind and window utilization matches the oracle"),
    "test_c07_budget_caps_are_inviolable": (7, "budget caps bind and window utilization matches the oracle"),
    "test_c08_incentive_grid_matches_hand_oracle": (8, "incentive checker agrees with the hand-worked margin tables"),
    "test_c09_revoked_agents_never_hold_contracts": (9, "revoked agents never pass contract generation; others recertify in three steps"),
    "test_c10_tamper_detection_and_determinism": (10, "every single-record tamper is detected; equal seeds replay byte-identical"),
}


def _timed(fn):
    start = time.perf_counter()
    report = fn()
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def case():
    return _timed(replay_case_study)


@pytest.fixture(scope="module")
def drill():
    return _timed(replay_fault_drill)


@pytest.fixture(scope="module")
def stress():
    def go():
        raw = json.loads(bundled_scenario_path(STRESS_WINDOW_FIXTURE).read_text())
        return run(scenario_from_dict(raw))

    return _timed(go)


def _payloads(ledger, kind):
    return [ledger.payload(rec.seq) for rec in ledger if rec.kind is kind]


# -- 1 -----------------------------------------------------------------------


def test_c01_settlement_money_exact(case):
    report, _ = case
    pool = Decimal("4750.00")
    protocol = (pool * Decimal("0.035")).quantize(Decimal("0.01"))
    infra = (pool * Decimal("0.015")).quantize(Decimal("0.01"))
    net = pool - protocol - infra
    assert (protocol, infra, net) == (Decimal("166.25"), Decimal("71.25"), Decimal("4512.50"))

    flows = report.body["token_flows"]
    assert abs(Decimal(flows["pool"]["protocol_tax"]) - protocol) <= MONEY_TOL
    assert abs(Decimal(flows["pool"]["infra_tax"]) - infra) <= MONEY_TOL
    assert abs(Decimal(flows["pool"]["net"]) - net) <= MONEY_TOL
    assert abs(Decimal(flows["distributed_total"]) - net) <= MONEY_TOL

    rows = {did: Decimal(v) for did, v in flows["rewards"].items()}
    assert len(rows) == 7
    assert abs(sum(rows.values()) - net) <= MONEY_TOL
    assert Decimal(flows.get("residual", "0.00")) == Decimal("0.00")

    cross = report.body["cross_node"]
    offer = Decimal("180.00")
    tax = (offer * Decimal("0.02")).quantize(Decimal("0.01"))
    assert tax == Decimal("3.60")
    assert abs(Decimal(cross["amount"]) - offer) <= MONEY_TOL
    assert abs(Decimal(cross["tax"]) - tax) <= MONEY_TOL

    # conservation: nothing minted, nothing burned across the whole replay
    config = scenario_from_dict(
        json.loads(bundled_scenario_path(CASE_STUDY_FIXTURE).read_text())
    )
    opening = (
        sum(Decimal(str(a.stake)) + Decimal(str(a.balance)) for a in config.agents)
        + Decimal(str(config.economy.org_balance))
        + sum(Decimal(str(b)) for _, b in config.economy.partner_accounts)
    )
    assert abs(report.treasury.total_value() - opening) <= MONEY_TOL


# -- 2 -----------------------------------------------------------------------


def test_c02_freeze_is_surgical(case):
    report, seconds = case
    assert seconds < REPLAY_BUDGET_SECONDS
    assert report.assertion_failures == []

    freezes = report.body["freezes"]
    assert len(freezes) == 1
    event = freezes[0]
    assert event["scope"] == "Targeted"
    assert event["node_id"] == "TASK-002B"
    assert event["z_value"] > 2.0

    rollbacks = _payloads(report.ledger, RecordKind.ROLLBACK_EVENT)
    assert len(rollbacks) == 1
    rollback_tick = next(
        rec.tick
        for rec in report.ledger if rec.kind is RecordKind.ROLLBACK_EVENT
    )

    # neither the sibling branch nor anything downstream moved while frozen
    quiet = {"TASK-002C", "TASK-004", "TASK-005"}
    touched = [
        t
        for t in report.body["transitions"]
        if t["node_id"] in quiet and event["tick"] <= t["tick"] <= rollback_tick
    ]
    assert touched == []

    # the rollback restored the attempt's entry checkpoint, recomputed here
    start = next(
        rec
        for rec in report.ledger if rec.kind is RecordKind.NODE_STARTED
        if report.ledger.payload(rec.seq)["node_id"] == "TASK-002B"
        and report.ledger.payload(rec.seq)["attempt"] == 1
    )
    entry_digest = "sha256:" + hashlib.sha256(
        canonical({"node_id": "TASK-002B", "entry": start.tick})
    ).hexdigest()[:24]
    assert rollbacks[0]["restored_to"] == entry_digest
    assert rollbacks[0]["resumed_state"] == "Running"
    assert rollbacks[0]["attempt"] == 1

    screen = report.body["screening"]["TASK-002B"]
    assert (screen["affected"], screen["cleared"], screen["flagged"]) == (47, 44, 3)
    assert report.body["budgets"]["per_node"]["TASK-002B"]["attempts"] == 2

    (loop,) = report.body["correction_loops"]
    assert loop["attribution"] == "ProviderFault"
    assert report.body["token_flows"]["slash_total"] == "0.00"
    stake = report.treasury.account("did:netx:gsc-fra:agent:compliance-eu-3").stake_locked
    assert abs(stake - Decimal("6200.00")) <= MONEY_TOL


# -- 3 -----------------------------------------------------------------------


def test_c03_quarantine_partitions_the_batch(case):
    report, _ = case
    block = report.body["quarantine"]
    assert report.body["mission"]["order_count"] == 847
    assert block["quarantined"] == 6
    assert block["proceeded"] == 841
    assert block["quarantined"] + block["proceeded"] == 847

    assert report.body["cross_node"]["remaining_after"] == 4
    assert block["remaining"] == 3

    transfers = _payloads(report.ledger, RecordKind.TOKEN_TRANSFER)
    payment = [
        t
        for t in transfers
        if t["to"] == "AE4E-STB-SGP-003" and t["amount"] == "180.00"
    ]
    tax = [
        t
        for t in transfers
        if t["to"] == INFRA_FUND and t["amount"] == "3.60"
    ]
    assert len(payment) == 1 and len(tax) == 1


# -- 4 -----------------------------------------------------------------------


def test_c04_dispute_ratifies_one_amendment(case):
    report, _ = case
    dispute = report.body["dispute"]
    states = [state for state, _ in dispute["trace"]]
    assert states == [
        "Filed", "EvidenceWindow", "Deliberation", "Verdict", "AmendmentPending", "Ratified",
    ]
    ratified_tick = dispute["trace"][-1][1]
    assert ratified_tick - dispute["filed_tick"] <= 72 * 3600
    assert dispute["within_deadline"] is True

    assert report.body["mission"]["charter_version"] == 2
    amendments = report.body["amendments"]
    assert len(amendments) == 1
    assert (amendments[0]["from_version"], amendments[0]["to_version"]) == (1, 2)
    assert amendments[0]["source"] == "dispute-verdict"

    represcreen = dispute["represcreen"]
    assert represcreen["before"] == "Rejected"
    assert "lookback-36m" in represcreen["before_rules"]
    assert represcreen["after"] == "Authorized"


# -- 5 -----------------------------------------------------------------------


def _stage_trace(report, incident_id):
    return [
        (report.ledger.payload(rec.seq)["stage"], rec.seq, rec.tick)
        for rec in report.ledger if rec.kind is RecordKind.CORRECTION_STAGE
        if report.ledger.payload(rec.seq)["incident_id"] == incident_id
    ]


def test_c05_correction_loops_stamp_in_order(case, drill):
    case_report, _ = case
    drill_report, seconds = drill
    assert seconds < REPLAY_BUDGET_SECONDS
    assert drill_report.assertion_failures == []

    for report, incident_id in (
        (case_report, "INC-20260311-FEED-0847"),
        (drill_report, "INC-DRILL-FX-0001"),
    ):
        trace = _stage_trace(report, incident_id)
        assert [stage for stage, _, _ in trace] == ["L", "I", "G", "A"]
        seqs = [seq for _, seq, _ in trace]
        ticks = [tick for _, _, tick in trace]
        assert all(a < b for a, b in zip(seqs, seqs[1:]))
        assert ticks == list(range(ticks[0], ticks[0] + 4))
        (loop,) = report.body["correction_loops"]
        assert loop["completed"] is True

    assert case_report.body["correction_loops"][0]["rules_action"] == "no amendment"
    assert drill_report.body["correction_loops"][0]["rules_action"] == "charter version 2"
    assert drill_report.body["mission"]["charter_version"] == 2


# -- 6 -----------------------------------------------------------------------


def test_c06_fourth_freeze_trips_the_breaker(stress):
    report, seconds = stress
    assert seconds < REPLAY_BUDGET_SECONDS
    assert report.assertion_failures == []
    assert len(report.body["freezes"]) == 4
    tiers = [e["tier"] for e in report.body["escalations"]]
    assert tiers.count("CircuitBreaker") == 1
    assert tiers[-1] == "CircuitBreaker"
    assert report.body["mission"]["outcome"] == "Frozen"
    mission_wide = [
        p
        for p in _payloads(report.ledger, RecordKind.FREEZE_EVENT)
        if p.get("scope") == "MissionWide"
    ]
    assert len(mission_wide) == 1

    raw = json.loads(bundled_scenario_path(STRESS_WINDOW_FIXTURE).read_text())
    raw["faults"][0]["deactivate_tick"] = 1700
    raw["expectations"] = {}
    shorter = run(scenario_from_dict(raw))
    assert len(shorter.body["freezes"]) == 3
    short_tiers = [e["tier"] for e in shorter.body["escalations"]]
    assert "CircuitBreaker" not in short_tiers
    assert max(short_tiers, key=("Advisory", "Restrictive").index) == "Restrictive"
    assert shorter.body["mission"]["outcome"] == "Completed"


# -- 7 -----------------------------------------------------------------------


def test_c07_budget_window_utilization(case, drill, stress):
    report, _ = case
    window = report.body["budgets"]["window"]
    assert (window["spent"], window["cap"]) == (24_400, 30_700)
    oracle = (Decimal(24_400) / Decimal(30_700)).quantize(
        Decimal("0.001"), rounding=ROUND_HALF_UP
    )
    assert oracle == Decimal("0.795")
    assert abs(Decimal(window["utilization"]) - oracle) <= UTILIZATION_TOL

    for bundled, _ in (case, drill, stress):
        for node_id, row in bundled.body["budgets"]["per_node"].items():
            if row["state"] != "Completed":
                continue
            assert row["spent"] <= row["cap"], node_id
            assert row["tool_calls"] <= 40, node_id
            assert row["messages"] <= 120, node_id


@settings(max_examples=200, deadline=None)
@given(
    token_cap=st.integers(40, 4000),
    tokens=st.integers(0, 8000),
    tools=st.integers(0, 80),
    messages=st.integers(0, 240),
)
def test_c07_budget_caps_are_inviolable(token_cap, tokens, tools, messages):
    node = NodeRun(
        node_id="TASK-P",
        template=template("TASK-P", token_cap=token_cap),
        assignee="did:test:prop",
    )
    transition(node, NodeState.READY)
    transition(node, NodeState.RUNNING)

    def behavior(run):
        return BehaviorOutcome(
            metrics={},
            tokens_spent=tokens,
            tool_calls=tools,
            messages=messages,
            output={"status": "done"},
            evidence=(),
        )

    over = tokens > token_cap or tools > 40 or messages > 120
    if over:
        with pytest.raises((BudgetExceeded, CapBreached)):
            execute_node(node, behavior, ledger=new_ledger(), mission_id="MISSION-P")
        assert node.state is NodeState.FROZEN
        # a frozen node cannot be declared complete; it must rerun first
        assert NodeState.COMPLETED not in LEGAL_TRANSITIONS[NodeState.FROZEN]
    else:
        execute_node(node, behavior, ledger=new_ledger(), mission_id="MISSION-P")
        assert node.telemetry is not None
        assert node.telemetry.tokens_spent <= token_cap
        assert node.telemetry.tool_calls <= 40
        assert node.telemetry.messages <= 120


# -- 8 -----------------------------------------------------------------------


def test_c08_incentive_grid_matches_hand_oracle():
    for name in ("incentive-baseline.json", "incentive-deviation.json"):
        oracle = json.loads((ORACLE_DIR / name).read_text())
        inputs = oracle["inputs"]

        # re-derive every margin from stake and fraction, then cross-check
        # the committed table before trusting it as the expected answer
        stake = Decimal(oracle["derivation"]["stake"])
        fraction = Decimal(oracle["derivation"]["slash_fraction"])
        rederived_violations = []
        for d, cell in sorted(
            oracle["derivation"]["per_point"].items(), key=lambda kv: Decimal(kv[0])
        ):
            penalty = (stake * fraction).quantize(Decimal("0.01"))
            gain = Decimal(inputs["reward"][d]) - Decimal(inputs["reward"]["0"])
            margin = Decimal(inputs["detection"][d]) * penalty - gain
            assert penalty == Decimal(cell["expected_penalty"])
            assert gain == Decimal(cell["deviation_gain"])
            assert margin == Decimal(cell["margin"])
            assert penalty == Decimal(inputs["slash"][d])
            if margin <= 0:
                rederived_violations.append(d)
        assert rederived_violations == oracle["expected"]["violations"]

        result = check_incentive_compatibility(
            IncentiveParams.from_tables(
                inputs["reward"], inputs["slash"], inputs["detection"]
            )
        )
        assert result.holds is oracle["expected"]["holds"]
        assert [str(d) for d in result.violations] == oracle["expected"]["violations"]


# -- 9 -----------------------------------------------------------------------


def test_c09_revoked_agents_never_hold_contracts():
    # liveness first: every live state recertifies within three events
    for state in CertState:
        distance = shortest_certification_path(state)
        if state is CertState.REVOKED:
            assert distance is None
        else:
            assert distance is not None and distance <= 3
    assert not any(src is CertState.REVOKED for src, _ in TRANSITIONS)

    sealer = template("TASK-X", seals_provenance=True)
    job = JobSpec(
        job_id="JOB-X",
        order_count=1,
        notional_value=Decimal("1000"),
        currency="EUR",
        task_templates=(sealer,),
    )
    manifest = manifest_for(job)
    dag = decompose(job, mission_id="MISSION-1", ledger=new_ledger())

    rng = random.Random(20260822)
    events = list(CertEvent)
    revoked_runs = 0
    for n in range(10_000):
        ledger = new_ledger()
        registry = IdentityRegistry(ledger)
        did = f"did:test:walk-{n}"
        registry.register_agent(did, "analyst", "OWNER-1", "500.00")
        for _ in range(rng.randrange(1, 13)):
            try:
                registry.transition_cert(did, rng.choice(events))
            except InvalidTransition:
                continue
            state = registry.get(did).cert_state
            if state is CertState.REVOKED:
                break
        if registry.get(did).cert_state is not CertState.REVOKED:
            continue
        revoked_runs += 1
        bid = Bid(did=did, node_id="TASK-X", accuracy_sla=Decimal("0.99"), completion_ticks=100)
        with pytest.raises(NotFound, match="no eligible bid"):
            run_bidding("TASK-X", [bid], registry, mission_id="MISSION-1", ledger=ledger)
        with pytest.raises(ValidationError, match="is revoked"):
            generate_contract_stack(
                manifest,
                dag,
                {
                    "TASK-X": Assignment(
                        node_id="TASK-X",
                        assignee=did,
                        standby=None,
                        accuracy_sla=Decimal("0.99"),
                        completion_ticks=100,
                        consensus_sig="sig-walk",
                    )
                },
                authorization_token="tok-walk",
                registry=registry,
                ledger=ledger,
            )
    # the walk has to actually visit the terminal state to mean anything
    assert revoked_runs > 5_000


# -- 10 ----------------------------------------------------------------------


def test_c10_tamper_detection_and_determinism(drill):
    base, _ = drill
    ledger = base.ledger
    size = len(ledger)
    assert size > 20
    other_kind = {RecordKind.TOKEN_TRANSFER: RecordKind.ESCALATION}

    def flipped(raw: bytes) -> bytes:
        return bytes([raw[0] ^ 1]) + raw[1:]

    rng = random.Random(4096)
    mutations = (
        "payload", "tick", "actor", "kind",
        "payload_digest", "prev_digest", "attestation_stamp", "seq",
    )
    for n in range(1_000):
        twin = ledger.fork()
        seq = rng.randrange(size)
        record = twin.record(seq)
        choice = mutations[rng.randrange(len(mutations))]
        if choice == "payload":
            tamper_payload(twin, seq, {**twin.payload(seq), "tampered": n})
        elif choice == "tick":
            tamper_field(twin, seq, "tick", record.tick + 1)
        elif choice == "actor":
            tamper_field(twin, seq, "actor", record.actor + "-x")
        elif choice == "kind":
            tamper_field(
                twin, seq, "kind", other_kind.get(record.kind, RecordKind.TOKEN_TRANSFER)
            )
        elif choice == "seq":
            tamper_field(twin, seq, "seq", record.seq + 1)
        else:
            tamper_field(twin, seq, choice, flipped(getattr(record, choice)))
        verdict = twin.verify_chain()
        assert not verdict, f"mutation {n}: {choice} at seq {seq} went undetected"
        assert verdict.first_broken_seq is not None

    first, first_seconds = _timed(replay_case_study)
    second, second_seconds = _timed(replay_case_study)
    assert first_seconds < REPLAY_BUDGET_SECONDS
    assert second_seconds < REPLAY_BUDGET_SECONDS
    assert first.fingerprint == second.fingerprint
    assert first.ledger_jsonl.encode() == second.ledger_jsonl.encode()
    assert json.dumps(first.body, sort_keys=True) == json.dumps(second.body, sort_keys=True)
