"""Forensics, attribution, dispute FSM, amendments, correction loop."""
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from govsim.adjudication import (
    AgentFault,
    BeginDeliberation,
    CloseCase,
    DisputeState,
    Incident,
    IncidentProbe,
    InfrastructureFault,
    IssueVerdict,
    OpenEvidence,
    ProviderFault,
    Ratify,
    SlashingRubric,
    Verdict,
    _DISPUTE_FLOW,
    _attribute,
    advance_dispute,
    amend_charter,
    attach_evidence,
    attribute_slashing,
    check_deadline,
    file_dispute,
    post_mortem,
    run_correction_loop,
)
from govsim.economy import JUDICIAL_FUND, Treasury
from govsim.errors import (
    AmendmentRejected,
    EvidenceIntegrityError,
    Inconclusive,
    InvalidTransition,
    NotFound,
    ValidationError,
)
from govsim.identity import CertEvent, CertState, IdentityRegistry
from govsim.ledger import AuditLedger, RecordKind
from govsim.legislation import Charter, Predicate, Rule
from govsim.money import nxc

from helpers import same, tamper_field, tamper_payload

MISSION = "MISSION-X"


def ingestion_record(ledger, seq_hint, *, endpoint, declared, observed, node="TASK-002B"):
    ledger.append(
        RecordKind.TOOL_CALL,
        "did:test:agent",
        {
            "mission_id": MISSION,
            "node_id": node,
            "did": "did:test:agent",
            "call_index": seq_hint,
            "endpoint_id": endpoint,
            "category": "data-ingestion",
            "declared_digest": declared,
            "observed_digest": observed,
            "contract_scope_ok": True,
        },
    )


def evidence_ledger():
    """13 clean ingestion calls, then a digest mismatch on the sanctions
    endpoint, then two more mismatches from the same faulty feed."""
    ledger = AuditLedger(attestation_key=b"adj-test")
    for i in range(1, 14):
        ingestion_record(
            ledger, i, endpoint="EP-MARKET-01", declared="sha256:aa", observed="sha256:aa"
        )
    ingestion_record(
        ledger, 14, endpoint="EP-SANCTIONS-EU-002",
        declared="sha256:good", observed="sha256:bad",
    )
    for i in (15, 16):
        ingestion_record(
            ledger, i, endpoint="EP-SANCTIONS-EU-002",
            declared="sha256:good", observed="sha256:bad",
        )
    return ledger


def feed_incident(probe=None):
    return Incident(
        incident_id="INC-1",
        mission_id=MISSION,
        cause="data-integrity",
        probe=probe
        or IncidentProbe(
            digest_mismatch=True,
            payload_equals={"endpoint_id": "EP-SANCTIONS-EU-002"},
        ),
    )


class TestPostMortem:
    def test_provider_attribution_at_first_mismatch(self):
        ledger = evidence_ledger()
        report = post_mortem(ledger, feed_incident())
        # seqs are 0-based: 13 clean records occupy 0..12, first mismatch is 13
        assert report.root_locus == ("TASK-002B", 13)
        assert same(report.attribution, ProviderFault(endpoint_id="EP-SANCTIONS-EU-002"))
        assert report.evidence_refs == (13, 14, 15)

    def test_agent_attribution_on_scope_violation(self):
        ledger = AuditLedger(attestation_key=b"adj-test")
        ledger.append(
            RecordKind.TOOL_CALL,
            "did:test:exec",
            {
                "mission_id": MISSION,
                "node_id": "TASK-FX",
                "did": "did:test:exec",
                "call_index": 1,
                "endpoint_id": "EP-CACHE-LOCAL",
                "category": "cache_read",
                "declared_digest": "sha256:x",
                "observed_digest": "sha256:x",
                "contract_scope_ok": False,
            },
        )
        incident = feed_incident(probe=IncidentProbe(scope_violation=True))
        report = post_mortem(ledger, incident)
        assert same(report.attribution, AgentFault(did="did:test:exec"))

    def test_infrastructure_fallback(self):
        ledger = AuditLedger(attestation_key=b"adj-test")
        ledger.append(
            RecordKind.TOOL_CALL,
            "did:test:exec",
            {
                "mission_id": MISSION,
                "node_id": "TASK-FX",
                "did": "did:test:exec",
                "call_index": 1,
                "endpoint_id": "EP-QUEUE-07",
                "category": "agent-action",
                "declared_digest": "sha256:x",
                "observed_digest": "sha256:y",
                "contract_scope_ok": True,
            },
        )
        incident = feed_incident(probe=IncidentProbe(digest_mismatch=True))
        report = post_mortem(ledger, incident)
        assert same(report.attribution, InfrastructureFault(component="EP-QUEUE-07"))

    def test_tampered_chain_is_inadmissible(self):
        ledger = evidence_ledger()
        tamper_field(ledger, 3, "actor", "someone-else")
        with pytest.raises(EvidenceIntegrityError):
            post_mortem(ledger, feed_incident())

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda ledger: tamper_field(ledger, 3, "actor", "someone-else"),
            lambda ledger: tamper_payload(ledger, 3, {"mission_id": MISSION, "call_index": 99}),
            lambda ledger: tamper_payload(ledger, 15, {"mission_id": MISSION, "call_index": 99}),
        ],
        ids=["field", "payload", "last-payload"],
    )
    def test_tamper_after_a_clean_post_mortem_is_caught(self, tamper):
        # The digests kept at append are no verification cache: the second
        # post-mortem re-verifies the edited chain.
        ledger = evidence_ledger()
        assert post_mortem(ledger, feed_incident()).root_locus == ("TASK-002B", 13)
        tamper(ledger)
        with pytest.raises(EvidenceIntegrityError):
            post_mortem(ledger, feed_incident())

    def test_no_matching_record(self):
        ledger = AuditLedger(attestation_key=b"adj-test")
        ingestion_record(
            ledger, 1, endpoint="EP-MARKET-01", declared="sha256:aa", observed="sha256:aa"
        )
        with pytest.raises(Inconclusive):
            post_mortem(ledger, feed_incident())

    def test_evidence_confined_to_mission_pedigree(self):
        ledger = evidence_ledger()
        ledger.append(
            RecordKind.TOOL_CALL,
            "did:test:other",
            {
                "mission_id": "MISSION-OTHER",
                "node_id": "TASK-Z",
                "did": "did:test:other",
                "call_index": 1,
                "endpoint_id": "EP-SANCTIONS-EU-002",
                "category": "data-ingestion",
                "declared_digest": "sha256:good",
                "observed_digest": "sha256:worse",
                "contract_scope_ok": True,
            },
        )
        report = post_mortem(ledger, feed_incident())
        pedigree = ledger.pedigree(MISSION)
        assert set(report.evidence_refs) <= set(pedigree.record_refs)


# Keys and values for the prefilter property: strings that need escaping, or
# that look like the encoding's own separators, and values that compare equal
# across types (`1 == True == 1.0`, and an absent key reads as `None`).
PROBE_KEYS = st.sampled_from(
    ["node_id", "call_index", "declared_digest", "observed_digest", "contract_scope_ok", "did",
     'q"k', "b\\k", "é键", '":"']
)
SCALARS = st.one_of(
    st.sampled_from(["", "x", 'q"u', "b\\s", '":"', '","', "é", "漢😀", "\ud800", "node_id", "false"]),
    st.sampled_from([0, 1, True, False, 1.0, 0.0, None]),
    st.text(max_size=4),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=2), st.dictionaries(PROBE_KEYS, inner, max_size=3)
    ),
    max_leaves=6,
)
PAYLOADS = st.dictionaries(PROBE_KEYS, st.one_of(SCALARS, VALUES), max_size=5)
KINDS = st.sampled_from([RecordKind.TOOL_CALL, RecordKind.NODE_STARTED, RecordKind.CORRECTION_STAGE])


def _twin(value):
    """An equal value of another type, where there is one."""
    if type(value) is bool:
        return float(value)
    if not isinstance(value, str) and value in (0, 1):
        return bool(value)
    return value


def _reference_matches(ledger, probe, seqs):
    """The scan before the prefilter: decode every record and test it."""
    return [seq for seq in seqs if probe.matches(ledger.record(seq), ledger.payload(seq))]


class TestPrefilter:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(KINDS, st.booleans(), PAYLOADS), min_size=1, max_size=12), st.data())
    def test_searches_agree_with_decoding_every_record(self, rows, data):
        ledger = AuditLedger(attestation_key=b"adj-test")
        for kind, ours, payload in rows:
            ledger.append(kind, "did:test:agent", {**payload, "mission_id": MISSION if ours else "M-2"})
        # Most probe items are copied from one stored payload, some with an
        # equal value of another type, so that matches are common.
        kind, _, payload = data.draw(st.sampled_from([row for row in rows if row[1]] or rows))
        stored = [(k, v) for k, v in payload.items() if not isinstance(v, (dict, list))]
        item = st.tuples(PROBE_KEYS, VALUES)
        if stored:
            item = st.one_of(
                st.sampled_from(stored), st.sampled_from(stored).map(lambda kv: (kv[0], _twin(kv[1]))), item
            )
        # A non-string key never matches a decoded payload's keys.
        equals = st.lists(st.one_of(item, st.tuples(st.just(1), SCALARS)), min_size=1, max_size=2)
        probe = data.draw(
            st.builds(
                IncidentProbe,
                kinds=st.one_of(st.just((kind,)), st.lists(KINDS, max_size=2).map(tuple)),
                digest_mismatch=st.sampled_from([False, False, True]),
                scope_violation=st.sampled_from([False, False, True]),
                payload_equals=equals.map(dict),
            )
        )
        incident = feed_incident(probe=probe)
        if not any(ours for _, ours, _ in rows):
            with pytest.raises(NotFound, match="no records for mission"):
                post_mortem(ledger, incident)
        else:
            expected = _reference_matches(ledger, probe, ledger.pedigree(MISSION).record_refs)
            if not expected:
                with pytest.raises(Inconclusive):
                    post_mortem(ledger, incident)
            else:
                first = ledger.payload(expected[0])
                report = post_mortem(ledger, incident)
                assert report.evidence_refs == tuple(expected)
                assert report.root_locus == (str(first.get("node_id", "")), expected[0])
                assert same(report.attribution, _attribute(first))
        # The dispute evidence query: every ToolCall whose payload holds the query.
        query = data.draw(st.lists(item, min_size=1, max_size=2).map(dict))
        dispute = IncidentProbe(kinds=(RecordKind.TOOL_CALL,), payload_equals=query)
        assert [r.seq for r, _ in dispute.search(ledger)] == [
            r.seq
            for r in ledger.records_of_kind(RecordKind.TOOL_CALL)
            if all(ledger.payload(r.seq).get(k) == v for k, v in query.items())
        ]


class TestAttributeSlashing:
    def provider_report(self):
        return post_mortem(evidence_ledger(), feed_incident())

    def test_provider_fault_keeps_collateral_intact(self):
        ledger = AuditLedger(attestation_key=b"adj-test")
        treasury = Treasury(ledger)
        treasury.open_account("did:test:agent", stake="6200.00")
        slashed = attribute_slashing(
            self.provider_report(), SlashingRubric(), treasury=treasury, ledger=ledger
        )
        assert slashed == nxc("0")
        assert treasury.account("did:test:agent").stake_locked == nxc("6200.00")
        assert not ledger.records_of_kind(RecordKind.SLASHING_EVENT)
        incident_reports = [
            r for r in ledger.records_of_kind(RecordKind.ESCALATION)
            if ledger.payload(r.seq).get("action") == "incident-report"
        ]
        assert len(incident_reports) == 1

    def test_agent_fault_slashes_five_percent(self):
        ledger = AuditLedger(attestation_key=b"adj-test")
        treasury = Treasury(ledger)
        treasury.open_account("did:test:exec", stake="100.00")
        report = self.provider_report()
        agent_report = type(report)(
            incident_id=report.incident_id,
            mission_id=report.mission_id,
            root_locus=report.root_locus,
            attribution=AgentFault(did="did:test:exec"),
            evidence_refs=report.evidence_refs,
            narrative=report.narrative,
        )
        slashed = attribute_slashing(
            agent_report, SlashingRubric(fraction=Decimal("0.05")),
            treasury=treasury, ledger=ledger,
        )
        assert slashed == nxc("5.00")
        assert treasury.account(JUDICIAL_FUND).balance == nxc("5.00")
        assert ledger.records_of_kind(RecordKind.SLASHING_EVENT)

    def test_zero_stake_floor(self):
        ledger = AuditLedger(attestation_key=b"adj-test")
        treasury = Treasury(ledger)
        treasury.open_account("did:test:exec", stake="0")
        report = self.provider_report()
        agent_report = type(report)(
            incident_id=report.incident_id,
            mission_id=report.mission_id,
            root_locus=report.root_locus,
            attribution=AgentFault(did="did:test:exec"),
            evidence_refs=report.evidence_refs,
            narrative=report.narrative,
        )
        slashed = attribute_slashing(
            agent_report, SlashingRubric(), treasury=treasury, ledger=ledger
        )
        assert slashed == nxc("0")


def filed_case(ledger, treasury=None, complainant=None):
    return file_dispute(
        MISSION,
        ("juror-1", "juror-2", "juror-3"),
        1000,
        case_id="DISPUTE-TEST-1",
        treasury=treasury,
        complainant=complainant,
        ledger=ledger,
    )


def approve_verdict(recommend=True):
    return Verdict(
        votes_for=3,
        votes_against=0,
        recommendation="add remediation-verified exception" if recommend else None,
        proposed_rules=(
            Rule(
                "lookback-36m",
                "order",
                Predicate(
                    "adverse_media_age_months", "lte", 36,
                    unless=Predicate("remediation_verified", "eq", True),
                ),
            ),
        )
        if recommend
        else (),
    )


class TestDisputeLifecycle:
    def test_filing_sets_deadline_72_hours_out(self):
        ledger = AuditLedger(attestation_key=b"adj-test")
        case = filed_case(ledger)
        assert case.state is DisputeState.FILED
        assert case.deadline_tick == 1000 + 259_200
        assert len(ledger.records_of_kind(RecordKind.DISPUTE_TRANSITION)) == 1

    @pytest.mark.parametrize("panel", [("a", "b"), ("a", "b", "c", "d"), ()])
    def test_panel_must_be_three(self, panel):
        with pytest.raises(ValidationError, match="panel needs exactly 3"):
            file_dispute(MISSION, panel, 0, ledger=AuditLedger(attestation_key=b"adj-test"))

    def test_filing_fee_charged(self):
        ledger = AuditLedger(attestation_key=b"adj-test")
        treasury = Treasury(ledger)
        treasury.open_account("did:test:complainant", balance="50.00")
        filed_case(ledger, treasury=treasury, complainant="did:test:complainant")
        assert treasury.account("did:test:complainant").balance == nxc("40.00")
        assert treasury.account(JUDICIAL_FUND).balance == nxc("10.00")

    def test_recommended_amendment_lands_pending(self):
        ledger = AuditLedger(attestation_key=b"adj-test")
        case = filed_case(ledger)
        advance_dispute(case, OpenEvidence(), tick=2000, ledger=ledger)
        attach_evidence(case, [14, 15, 16])
        advance_dispute(case, BeginDeliberation(), tick=3000, ledger=ledger)
        advance_dispute(case, IssueVerdict(approve_verdict()), tick=172_800, ledger=ledger)
        assert case.state is DisputeState.AMENDMENT_PENDING
        assert case.verdict.votes_for == 3
        states = [s for s, _ in case.history]
        assert states == [
            "Filed", "EvidenceWindow", "Deliberation", "Verdict", "AmendmentPending"
        ]
        # the verdict call lands two transition records: Verdict, then landing
        assert len(ledger.records_of_kind(RecordKind.DISPUTE_TRANSITION)) == 5

    def test_verdict_without_recommendation_closes(self):
        ledger = AuditLedger(attestation_key=b"adj-test")
        case = filed_case(ledger)
        advance_dispute(case, OpenEvidence(), tick=1, ledger=ledger)
        advance_dispute(case, BeginDeliberation(), tick=2, ledger=ledger)
        advance_dispute(
            case, IssueVerdict(approve_verdict(recommend=False)), tick=3, ledger=ledger
        )
        assert case.state is DisputeState.CLOSED

    def test_ratification_is_terminal(self):
        ledger = AuditLedger(attestation_key=b"adj-test")
        case = filed_case(ledger)
        advance_dispute(case, OpenEvidence(), tick=1, ledger=ledger)
        advance_dispute(case, BeginDeliberation(), tick=2, ledger=ledger)
        advance_dispute(case, IssueVerdict(approve_verdict()), tick=3, ledger=ledger)
        advance_dispute(case, Ratify(), tick=4, ledger=ledger)
        assert case.state is DisputeState.RATIFIED
        with pytest.raises(InvalidTransition):
            advance_dispute(case, CloseCase(), tick=5, ledger=ledger)

    def test_illegal_events(self):
        ledger = AuditLedger(attestation_key=b"adj-test")
        case = filed_case(ledger)
        with pytest.raises(InvalidTransition):
            advance_dispute(case, IssueVerdict(approve_verdict()), tick=1, ledger=ledger)
        with pytest.raises(InvalidTransition):
            advance_dispute(case, Ratify(), tick=1, ledger=ledger)
        advance_dispute(case, OpenEvidence(), tick=1, ledger=ledger)
        with pytest.raises(InvalidTransition):
            advance_dispute(case, OpenEvidence(), tick=2, ledger=ledger)
        with pytest.raises(InvalidTransition):
            attach_evidence(filed_case(ledger), [1])

    def test_every_nonterminal_state_has_an_exit(self):
        # deadlock-freedom by construction: drive one case through each state
        # and show some event always applies until Ratified/Closed
        events = [
            OpenEvidence(), BeginDeliberation(),
            IssueVerdict(approve_verdict()), Ratify(),
        ]
        ledger = AuditLedger(attestation_key=b"adj-test")
        case = filed_case(ledger)
        for event in events:
            advance_dispute(case, event, tick=1, ledger=ledger)
        assert case.state is DisputeState.RATIFIED
        for event in (OpenEvidence(), BeginDeliberation(), Ratify(), CloseCase()):
            with pytest.raises(InvalidTransition):
                advance_dispute(case, event, tick=2, ledger=ledger)

    def test_every_flow_edge_points_forward(self):
        # `_move` checks only membership in the table; the table itself keeps
        # a case from ever returning to an earlier state
        order = list(DisputeState)
        assert set(_DISPUTE_FLOW) == set(DisputeState)
        for src, targets in _DISPUTE_FLOW.items():
            for dst in targets:
                assert order.index(dst) > order.index(src), (src, dst)

    def test_jurors_paid_on_verdict(self):
        ledger = AuditLedger(attestation_key=b"adj-test")
        treasury = Treasury(ledger)
        treasury.open_account(JUDICIAL_FUND, balance="166.25")
        case = filed_case(ledger)
        advance_dispute(case, OpenEvidence(), tick=1, ledger=ledger)
        advance_dispute(case, BeginDeliberation(), tick=2, ledger=ledger)
        advance_dispute(
            case, IssueVerdict(approve_verdict()), tick=3, ledger=ledger, treasury=treasury
        )
        assert treasury.account("juror-2").balance == nxc("5.00")
        assert treasury.account(JUDICIAL_FUND).balance == nxc("151.25")

    def test_deadline_breach_escalates_once(self):
        ledger = AuditLedger(attestation_key=b"adj-test")
        case = filed_case(ledger)
        assert not check_deadline(case, case.deadline_tick, ledger=ledger)
        assert check_deadline(case, case.deadline_tick + 1, ledger=ledger)
        assert not check_deadline(case, case.deadline_tick + 2, ledger=ledger)
        breaches = [
            r for r in ledger.records_of_kind(RecordKind.ESCALATION)
            if ledger.payload(r.seq).get("action") == "deadline-breach"
        ]
        assert len(breaches) == 1


class TestAmendCharter:
    def base_charter(self):
        return Charter(
            1,
            (
                Rule(
                    "ceiling", "manifest",
                    Predicate("notional_value", "gt", "50000000"), "Escalate",
                ),
                Rule(
                    "lookback-36m", "order",
                    Predicate("adverse_media_age_months", "lte", 36),
                ),
            ),
        )

    def exception_amendment(self):
        return [
            Rule(
                "lookback-36m", "order",
                Predicate(
                    "adverse_media_age_months", "lte", 36,
                    unless=Predicate("remediation_verified", "eq", True),
                ),
            )
        ]

    def test_empty_amendment_is_identity(self):
        ledger = AuditLedger(attestation_key=b"adj-test")
        charter = self.base_charter()
        assert amend_charter(charter, [], ledger=ledger, mission_id=MISSION) is charter
        assert not ledger.records_of_kind(RecordKind.CHARTER_AMENDMENT)

    def test_exception_pathway_bumps_version(self):
        ledger = AuditLedger(attestation_key=b"adj-test")
        charter = self.base_charter()
        amended = amend_charter(
            charter, self.exception_amendment(), ledger=ledger, mission_id=MISSION
        )
        assert amended.version == 2
        assert amended.rule("lookback-36m").predicate.unless is not None
        assert len(ledger.records_of_kind(RecordKind.CHARTER_AMENDMENT)) == 1

    def test_contradiction_rejected(self):
        charter = self.base_charter()
        negation = Rule(
            "uncapped", "manifest", Predicate("notional_value", "lte", "50000000")
        )
        with pytest.raises(AmendmentRejected) as excinfo:
            amend_charter(
                charter, [negation],
                ledger=AuditLedger(attestation_key=b"adj-test"), mission_id=MISSION,
            )
        assert set(excinfo.value.rule_ids) == {"ceiling", "uncapped"}

    def test_regression_failure_rejected(self):
        ledger = AuditLedger(attestation_key=b"adj-test")
        charter = self.base_charter()
        clean_order = {"order_id": "ORD-CLEAN", "jurisdiction": "FR"}
        assert amend_charter(
            charter, self.exception_amendment(), regression_orders=[clean_order],
            ledger=ledger, mission_id=MISSION,
        ).version == 2
        overreach = [Rule("no-france", "order", Predicate("jurisdiction", "eq", "FR"))]
        with pytest.raises(AmendmentRejected):
            amend_charter(
                charter, overreach, regression_orders=[clean_order],
                ledger=ledger, mission_id=MISSION,
            )

    def test_versions_strictly_increase(self):
        ledger = AuditLedger(attestation_key=b"adj-test")
        charter = self.base_charter()
        v2 = amend_charter(charter, self.exception_amendment(), ledger=ledger, mission_id=MISSION)
        v3 = amend_charter(
            v2, [Rule("extra", "order", Predicate("x", "present"))],
            ledger=ledger, mission_id=MISSION,
        )
        assert (charter.version, v2.version, v3.version) == (1, 2, 3)


class TestCorrectionLoop:
    def incident_charter(self):
        return Charter(
            1,
            (
                Rule(
                    "data-integrity-deviation", "incident",
                    Predicate("cause", "eq", "data-integrity"),
                ),
                Rule(
                    "rate-variance-deviation", "incident",
                    Predicate("cause", "eq", "rate-variance"),
                ),
            ),
        )

    def test_provider_incident_completes_without_amendment(self):
        ledger = evidence_ledger()
        treasury = Treasury(ledger)
        treasury.open_account("did:test:agent", stake="6200.00")
        registry = IdentityRegistry(ledger)
        incident = feed_incident()
        report = post_mortem(ledger, incident)
        loop = run_correction_loop(
            incident,
            report,
            self.incident_charter(),
            treasury=treasury,
            registry=registry,
            ledger=ledger,
            start_tick=5000,
        )
        assert loop.completed
        assert loop.step_l == "data-integrity-deviation"
        assert loop.step_g == "no amendment"
        assert loop.step_a["slash"] == "0.00"
        assert loop.charter.version == 1
        assert treasury.account("did:test:agent").stake_locked == nxc("6200.00")
        stages = [
            (ledger.payload(r.seq)["stage"], r.seq)
            for r in ledger.records_of_kind(RecordKind.CORRECTION_STAGE)
        ]
        assert [s for s, _ in stages] == ["L", "I", "G", "A"]
        seqs = [seq for _, seq in stages]
        assert seqs == sorted(seqs) and len(set(seqs)) == 4

    def test_agent_incident_enforces_amends_and_slashes(self):
        ledger = AuditLedger(attestation_key=b"adj-test")
        ledger.append(
            RecordKind.TOOL_CALL,
            "did:test:exec",
            {
                "mission_id": MISSION,
                "node_id": "TASK-FX",
                "did": "did:test:exec",
                "call_index": 9,
                "endpoint_id": "EP-CACHE-LOCAL",
                "category": "cache_read",
                "declared_digest": "sha256:x",
                "observed_digest": "sha256:x",
                "contract_scope_ok": False,
            },
        )
        treasury = Treasury(ledger)
        treasury.open_account("did:test:exec", stake="3800.00")
        registry = IdentityRegistry(ledger)
        registry.register_agent(
            "did:test:exec", "execution", "ops-lead", "3800.00", reputation="97.5"
        )
        registry.transition_cert("did:test:exec", CertEvent.BENCHMARK_PASS)
        incident = Incident(
            incident_id="INC-FX",
            mission_id=MISSION,
            cause="rate-variance",
            probe=IncidentProbe(scope_violation=True),
        )
        report = post_mortem(ledger, incident)
        floor_rule = Rule(
            "variance-floor", "incident",
            Predicate("variance_excess", "gt", 0),
        )
        loop = run_correction_loop(
            incident,
            report,
            self.incident_charter(),
            treasury=treasury,
            registry=registry,
            rubric=SlashingRubric(fraction=Decimal("0.05"), reputation_penalty=Decimal("0.5")),
            amendment=[floor_rule],
            ledger=ledger,
            start_tick=700,
        )
        assert loop.step_l == "rate-variance-deviation"
        assert loop.step_g == "charter version 2"
        assert loop.step_a["slash"] == "190.00"
        assert loop.charter.version == 2
        profile = registry.get("did:test:exec")
        assert profile.cert_state is CertState.UNDER_REVIEW
        assert profile.reputation == Decimal("97.0")
        assert treasury.account("did:test:exec").stake_locked == nxc("3610.00")

    def test_unclassified_incident_stops_after_l(self):
        ledger = evidence_ledger()
        treasury = Treasury(ledger)
        incident = feed_incident()
        report = post_mortem(ledger, incident)
        loop = run_correction_loop(
            incident,
            report,
            Charter(1, ()),
            treasury=treasury,
            registry=IdentityRegistry(ledger),
            ledger=ledger,
            start_tick=10,
        )
        assert not loop.completed
        assert loop.step_l == "unclassified"
        assert loop.step_g == "not reached"
        records = ledger.records_of_kind(RecordKind.CORRECTION_STAGE)
        assert len(records) == 1
        assert ledger.payload(records[0].seq)["open_question"] is True
