"""Node lifecycle, metering, gates, guardian, escalation, rollback,
quarantine, and the last-mile filter.

Derived oracles, computed before the assertions:

  z for clearance 0.94 on baseline (0.892, 0.02): (0.94-0.892)/0.02 = 2.4
  utilization 24400/30700 = 0.794788..., three decimals half-up -> 0.795
"""
import pytest
from decimal import Decimal
from hypothesis import given, settings
from hypothesis import strategies as st

from govsim.errors import BudgetExceeded, CapBreached, InvalidTransition, NotFound
from govsim.execution import (
    Baseline,
    BehaviorOutcome,
    Blocked,
    BudgetMeter,
    EscalationTier,
    FreezeEvent,
    GateFailure,
    NodeRun,
    NodeState,
    Ok,
    Pass,
    ProofOfProgress,
    ToolCallEvidence,
    budget_utilization,
    escalate,
    execute_node,
    freeze_mission,
    gate_contract_filter,
    gate_verify,
    guardian_check,
    make_runs,
    quarantine,
    release_quarantined,
    rollback,
    states_snapshot,
    transition,
)
from govsim.ledger import AuditLedger, RecordKind
from govsim.legislation import (
    Charter,
    Predicate,
    Rule,
    SlashingCondition,
    decompose,
)
from helpers import new_ledger, nine_node_job, same, template


def run_for(tid="TASK-X", state=NodeState.RUNNING, **template_overrides):
    node = NodeRun(
        node_id=tid, template=template(tid, **template_overrides), assignee="did:test:a"
    )
    node.state = state
    return node


def outcome(metrics=None, tokens=100, tool_calls=1, messages=1, output=None, evidence=()):
    return BehaviorOutcome(
        metrics=metrics or {},
        tokens_spent=tokens,
        tool_calls=tool_calls,
        messages=messages,
        output=output or {"status": "done"},
        evidence=tuple(evidence),
    )


class TestLifecycle:
    def test_happy_path_transitions(self):
        node = run_for(state=NodeState.PENDING)
        for nxt in (
            NodeState.READY, NodeState.RUNNING, NodeState.VERIFIED, NodeState.COMPLETED
        ):
            transition(node, nxt)
        assert node.state is NodeState.COMPLETED

    @pytest.mark.parametrize(
        "src,dst",
        [
            (NodeState.PENDING, NodeState.RUNNING),
            (NodeState.VERIFIED, NodeState.RUNNING),
            (NodeState.COMPLETED, NodeState.READY),
            (NodeState.FAILED, NodeState.RUNNING),
            (NodeState.READY, NodeState.VERIFIED),
        ],
    )
    def test_illegal_transitions_refused(self, src, dst):
        node = run_for(state=src)
        with pytest.raises(InvalidTransition, match=" -> "):
            transition(node, dst)

    def test_journal_keeps_each_nodes_first_from_state(self):
        journal = {}
        a = run_for("TASK-A", state=NodeState.PENDING)
        b = run_for("TASK-B", state=NodeState.RUNNING)
        a.journal = b.journal = journal
        transition(a, NodeState.READY)
        transition(a, NodeState.RUNNING)
        transition(b, NodeState.FROZEN)
        assert journal == {"TASK-A": NodeState.PENDING, "TASK-B": NodeState.RUNNING}
        with pytest.raises(InvalidTransition, match=" -> "):
            transition(a, NodeState.COMPLETED)
        assert journal == {"TASK-A": NodeState.PENDING, "TASK-B": NodeState.RUNNING}


class TestExecuteNode:
    def test_telemetry_reflects_meter_and_digest(self):
        node = run_for()
        telemetry = execute_node(
            node, lambda r: outcome(metrics={"rate_deviation_bps": 0.31}),
            ledger=new_ledger(), mission_id="M",
        )
        assert telemetry.tokens_spent == 100
        assert telemetry.metrics == {"rate_deviation_bps": 0.31}
        assert telemetry.output_digest.startswith("sha256:")
        assert node.telemetry is telemetry

    def test_empty_metric_map_is_valid(self):
        node = run_for()
        telemetry = execute_node(
            node, lambda r: outcome(metrics={}), ledger=new_ledger(), mission_id="M"
        )
        assert telemetry.metrics == {}

    def test_token_overrun_freezes_and_raises(self):
        ledger = AuditLedger(attestation_key=b"k")
        node = run_for(token_cap=500)
        with pytest.raises(BudgetExceeded):
            execute_node(node, lambda r: outcome(tokens=501), ledger=ledger, mission_id="M")
        assert node.state is NodeState.FROZEN
        assert node.freeze_events[-1].trigger == "budget-exceeded"
        assert ledger.records_of_kind(RecordKind.FREEZE_EVENT)

    def test_forty_first_tool_call_breaches_cap(self):
        node = run_for()
        node.meter.charge(tool_calls=40)
        with pytest.raises(CapBreached):
            execute_node(
                node, lambda r: outcome(tool_calls=1), ledger=new_ledger(), mission_id="M"
            )
        assert node.state is NodeState.FROZEN
        assert node.freeze_events[-1].trigger == "cap-breached"

    def test_message_cap(self):
        node = run_for()
        with pytest.raises(CapBreached):
            execute_node(
                node, lambda r: outcome(messages=121), ledger=new_ledger(), mission_id="M"
            )

    def test_requires_running_state(self):
        node = run_for(state=NodeState.READY)
        with pytest.raises(InvalidTransition, match="must be Running"):
            execute_node(node, lambda r: outcome(), ledger=new_ledger(), mission_id="M")

    def test_evidence_lands_on_ledger(self):
        ledger = AuditLedger(attestation_key=b"k")
        evidence = [
            ToolCallEvidence(1, "EP-MARKET-01", "data-ingestion", "sha256:aa", "sha256:aa"),
            ToolCallEvidence(
                2, "EP-CACHE-01", "cache_read", "sha256:bb", "sha256:cc",
                contract_scope_ok=False,
            ),
        ]
        node = run_for()
        execute_node(node, lambda r: outcome(evidence=evidence), ledger=ledger, mission_id="M")
        recs = ledger.records_of_kind(RecordKind.TOOL_CALL)
        assert len(recs) == 2

    def test_meter_counters_monotone(self):
        meter = BudgetMeter(token_cap=1000)
        meter.charge(tokens=100, tool_calls=2)
        meter.charge(tokens=50, messages=3)
        assert (meter.tokens_spent, meter.tool_calls, meter.messages) == (150, 2, 3)
        with pytest.raises(ValueError):
            meter.charge(tokens=-1)

    def test_restrictive_sanction_halves_remaining_tools(self):
        meter = BudgetMeter(token_cap=1000, tool_call_cap=40)
        meter.charge(tool_calls=10)
        assert meter.restrict_tool_budget() == 25
        assert meter.restrict_tool_budget() == 18

    def test_utilization_rounding(self):
        assert budget_utilization(24_400, 30_700) == Decimal("0.795")
        assert budget_utilization(0, 100) == Decimal("0.000")
        with pytest.raises(ValueError):
            budget_utilization(1, 0)


class TestGateVerify:
    def verified_node(self, metrics, **overrides):
        node = run_for(gate_check_id="fx-rate-lock", **overrides)
        telemetry = execute_node(
            node, lambda r: outcome(metrics=metrics), ledger=new_ledger(), mission_id="M"
        )
        return node, telemetry

    def test_within_threshold_verifies_and_checkpoints(self):
        ledger = AuditLedger(attestation_key=b"k")
        node, telemetry = self.verified_node({"rate_deviation_bps": 0.31})
        proof = gate_verify(
            node, telemetry, cosigner="verifier-1", tick=7, ledger=ledger, mission_id="M"
        )
        assert isinstance(proof, ProofOfProgress)
        assert node.state is NodeState.VERIFIED
        assert node.checkpoint is not None and node.checkpoint.tick == 7
        records = ledger.records_of_kind(RecordKind.PROOF_OF_PROGRESS)
        assert len(records) == 1

    def test_ledger_variance_zero_within_band(self):
        node = run_for(
            slashing_condition=SlashingCondition(
                "ledger_variance_eur", "abs_gt", "500"
            ),
        )
        ledger = new_ledger()
        telemetry = execute_node(
            node, lambda r: outcome(metrics={"ledger_variance_eur": 0.0}),
            ledger=ledger, mission_id="M",
        )
        assert isinstance(
            gate_verify(node, telemetry, cosigner="v", ledger=ledger, mission_id="M"),
            ProofOfProgress,
        )

    def test_breach_freezes_with_check_id(self):
        node, telemetry = self.verified_node({"rate_deviation_bps": 0.6})
        result = gate_verify(
            node, telemetry, cosigner="verifier-1", ledger=new_ledger(), mission_id="M"
        )
        assert same(result, GateFailure(check_ids=("fx-rate-lock",)))
        assert node.state is NodeState.FROZEN
        assert node.freeze_events[-1].trigger == "slashing-condition"

    def test_gate_requires_running(self):
        node, telemetry = self.verified_node({"rate_deviation_bps": 0.31})
        ledger = new_ledger()
        gate_verify(node, telemetry, cosigner="v", ledger=ledger, mission_id="M")
        with pytest.raises(InvalidTransition, match="must be Running to gate"):
            gate_verify(node, telemetry, cosigner="v", ledger=ledger, mission_id="M")


class TestGuardian:
    def telemetry(self, **metrics):
        node = run_for()
        telemetry = execute_node(
            node, lambda r: outcome(metrics=metrics), ledger=new_ledger(), mission_id="M"
        )
        return telemetry, node

    def test_deviation_beyond_two_sigma_freezes(self):
        telemetry, node = self.telemetry(clearance_rate=0.94)
        baseline = Baseline("clearance_rate", 0.892, 0.02)
        event = guardian_check(telemetry, baseline, run=node, tick=1680, ledger=new_ledger())
        assert isinstance(event, FreezeEvent)
        assert event.z_value == pytest.approx(2.4)
        assert event.scope == "Targeted" and event.node_id == "TASK-X"
        assert node.state is NodeState.FROZEN

    def test_at_mean_and_at_boundary_pass(self):
        ledger = new_ledger()
        telemetry, node = self.telemetry(clearance_rate=0.892)
        baseline = Baseline("clearance_rate", 0.892, 0.02)
        assert same(guardian_check(telemetry, baseline, run=node, ledger=ledger), Ok(0.0))
        telemetry, node = self.telemetry(clearance_rate=0.932)
        verdict = guardian_check(telemetry, baseline, run=node, ledger=ledger)
        assert isinstance(verdict, Ok)
        assert verdict.z_value == pytest.approx(2.0)

    def test_negative_deviation_also_counts(self):
        telemetry, node = self.telemetry(clearance_rate=0.84)
        event = guardian_check(
            telemetry, Baseline("clearance_rate", 0.892, 0.02), run=node, ledger=new_ledger()
        )
        assert isinstance(event, FreezeEvent)
        assert event.z_value == pytest.approx(-2.6)

    def test_zero_std_rejected(self):
        telemetry, node = self.telemetry(clearance_rate=0.9)
        with pytest.raises(ValueError):
            guardian_check(
                telemetry, Baseline("clearance_rate", 0.9, 0.0), run=node, ledger=new_ledger()
            )

    def test_unobserved_metric_is_ok(self):
        telemetry, node = self.telemetry(other=1.0)
        assert isinstance(
            guardian_check(
                telemetry, Baseline("clearance_rate", 0.9, 0.1), run=node, ledger=new_ledger()
            ),
            Ok,
        )


class TestEscalation:
    def freezes(self, *ticks):
        return [
            FreezeEvent(scope="Targeted", node_id="N", trigger="z-score", tick=t)
            for t in ticks
        ]

    def test_tier_ladder_within_one_window(self):
        history = self.freezes(0, 300, 600, 900)
        ladder = [escalate(history[: i + 1], 1200) for i in range(4)]
        assert ladder == [
            (EscalationTier.ADVISORY, 1),
            (EscalationTier.RESTRICTIVE, 2),
            (EscalationTier.RESTRICTIVE, 3),
            (EscalationTier.CIRCUIT_BREAKER, 4),
        ]

    def test_spread_freezes_stay_advisory(self):
        history = self.freezes(0, 1300, 2600)
        for i in range(3):
            assert escalate(history[: i + 1], 1200) == (EscalationTier.ADVISORY, 1)

    def test_window_boundary_is_exclusive(self):
        assert escalate(self.freezes(0, 1200), 1200) == (EscalationTier.ADVISORY, 1)
        assert escalate(self.freezes(1, 1200), 1200) == (EscalationTier.RESTRICTIVE, 2)

    def test_empty_history(self):
        assert escalate([], 1200) is None

    def test_tiers_strictly_ordered(self):
        assert (
            EscalationTier.ADVISORY
            < EscalationTier.RESTRICTIVE
            < EscalationTier.CIRCUIT_BREAKER
        )


class TestRollback:
    def test_restores_to_checkpoint_and_resets_meter(self):
        ledger = new_ledger()
        node = run_for()
        telemetry = execute_node(
            node, lambda r: outcome(metrics={"rate_deviation_bps": 0.1}),
            ledger=ledger, mission_id="M",
        )
        gate_verify(node, telemetry, cosigner="v", tick=100, ledger=ledger, mission_id="M")
        # a later rerun of the same node: freeze mid-flight, then roll back
        node.state = NodeState.RUNNING
        node.meter.charge(tokens=300)
        from govsim.execution import _freeze

        _freeze(node, "z-score", 150, ledger=ledger)
        state = rollback(node, tick=160, ledger=ledger, mission_id="M")
        assert state is NodeState.RUNNING
        assert node.meter.tokens_spent == 0
        assert node.attempts == 1
        assert node.telemetry is None
        recs = ledger.records_of_kind(RecordKind.ROLLBACK_EVENT)
        assert len(recs) == 1

    def test_no_checkpoint_restarts_from_ready(self):
        node = run_for()
        from govsim.execution import _freeze

        ledger = new_ledger()
        _freeze(node, "budget-exceeded", 10, ledger=ledger)
        assert rollback(node, tick=12, ledger=ledger, mission_id="M") is NodeState.READY

    def test_requires_frozen(self):
        node = run_for()
        with pytest.raises(InvalidTransition, match="must be Frozen"):
            rollback(node, ledger=new_ledger(), mission_id="M")

    def test_checkpoint_never_newer_than_rollback(self):
        ledger = new_ledger()
        node = run_for()
        telemetry = execute_node(
            node, lambda r: outcome(metrics={"rate_deviation_bps": 0.1}),
            ledger=ledger, mission_id="M",
        )
        gate_verify(node, telemetry, cosigner="v", tick=500, ledger=ledger, mission_id="M")
        node.state = NodeState.RUNNING
        from govsim.execution import _freeze

        _freeze(node, "timeout", 499, ledger=ledger)
        with pytest.raises(InvalidTransition, match="checkpoint is newer"):
            rollback(node, tick=499, ledger=ledger, mission_id="M")

    def test_downstream_states_untouched(self):
        ledger = new_ledger()
        dag = decompose(nine_node_job(), mission_id="M", ledger=ledger)

        class A:
            def __init__(self, assignee):
                self.assignee = assignee

        runs = make_runs(dag, {n: A("did:test:a") for n in dag.nodes})
        target = runs["TASK-002B"]
        target.state = NodeState.RUNNING
        before = states_snapshot(runs)
        from govsim.execution import _freeze

        _freeze(target, "z-score", 1680, ledger=ledger)
        rollback(target, tick=2046, ledger=ledger, mission_id="M")
        after = states_snapshot(runs)
        diff = {n for n in before if before[n] != after[n]}
        assert diff <= {"TASK-002B"}


class TestQuarantine:
    def batch_node(self, count=847, state=NodeState.VERIFIED):
        node = run_for(state=state)
        node.items = {f"ORD-{i:04d}" for i in range(count)}
        return node

    def test_six_of_847_flagged(self):
        ledger = new_ledger()
        node = self.batch_node()
        flagged = {f"ORD-{i:04d}" for i in range(6)}
        state = quarantine(node, flagged, ledger=ledger, mission_id="M")
        assert state is NodeState.VERIFIED
        assert len(node.items) == 841
        assert len(node.quarantined_items) == 6
        assert ledger.records_of_kind(RecordKind.ESCALATION)

    def test_zero_items_is_noop(self):
        ledger = new_ledger()
        node = self.batch_node()
        n = len(ledger)
        assert quarantine(node, [], ledger=ledger, mission_id="M") is NodeState.VERIFIED
        assert len(ledger) == n

    def test_unknown_items(self):
        node = self.batch_node(count=3)
        with pytest.raises(NotFound, match="unknown items"):
            quarantine(node, ["ORD-9999"], ledger=new_ledger(), mission_id="M")

    def test_release_two_of_six(self):
        node = self.batch_node()
        flagged = sorted(node.items)[:6]
        ledger = new_ledger()
        quarantine(node, flagged, ledger=ledger, mission_id="M")
        release_quarantined(
            node, flagged[:2], resolution="cross-node attestation", ledger=ledger, mission_id="M"
        )
        assert len(node.quarantined_items) == 4
        assert len(node.items) == 843
        with pytest.raises(NotFound, match="not quarantined"):
            release_quarantined(node, ["ORD-0777"], resolution="x", ledger=ledger, mission_id="M")

    def test_running_node_parks_and_resumes(self):
        node = self.batch_node(count=5, state=NodeState.RUNNING)
        ledger = new_ledger()
        quarantine(node, sorted(node.items)[:2], ledger=ledger, mission_id="M")
        assert node.state is NodeState.QUARANTINED
        release_quarantined(
            node, sorted(node.quarantined_items), resolution="human review",
            ledger=ledger, mission_id="M",
        )
        assert node.state is NodeState.RUNNING


class TestMissionFreeze:
    def test_only_running_nodes_change(self):
        ledger = new_ledger()
        dag = decompose(nine_node_job(), mission_id="M", ledger=ledger)

        class A:
            def __init__(self, assignee):
                self.assignee = assignee

        runs = make_runs(dag, {n: A("did:test:a") for n in dag.nodes})
        runs["TASK-001A"].state = NodeState.COMPLETED
        runs["TASK-001B"].state = NodeState.RUNNING
        runs["TASK-002A"].state = NodeState.RUNNING
        event = freeze_mission(runs, "circuit-breaker", 900, ledger=ledger)
        assert event.scope == "MissionWide"
        assert runs["TASK-001B"].state is NodeState.FROZEN
        assert runs["TASK-002A"].state is NodeState.FROZEN
        assert runs["TASK-001A"].state is NodeState.COMPLETED
        assert runs["TASK-004"].state is NodeState.PENDING


class TestGateContractFilter:
    def charter(self):
        return Charter(
            1,
            (
                Rule("no-raw-data", "output", Predicate("raw_account_data", "present")),
                Rule("ceiling", "manifest", Predicate("notional_value", "gt", 1), "Escalate"),
            ),
        )

    def test_clean_output_passes(self):
        assert isinstance(gate_contract_filter({"summary_digest": "sha256:ab"}, self.charter()), Pass)

    def test_raw_field_blocked(self):
        verdict = gate_contract_filter(
            {"raw_account_data": ["IBAN..."]}, self.charter()
        )
        assert same(verdict, Blocked(rule_ids=("no-raw-data",)))

    def test_empty_output_no_rules(self):
        assert isinstance(gate_contract_filter({}, Charter(1, ())), Pass)


class TestBudgetProperty:
    @given(
        charges=st.lists(st.integers(min_value=0, max_value=400), max_size=12),
        cap=st.integers(min_value=1, max_value=2000),
    )
    @settings(max_examples=120)
    def test_meter_total_never_exceeds_cap_without_raising(self, charges, cap):
        meter = BudgetMeter(token_cap=cap, tool_call_cap=10**6, message_cap=10**6)
        try:
            for c in charges:
                meter.charge(tokens=c)
        except BudgetExceeded:
            assert meter.tokens_spent > cap
        else:
            assert meter.tokens_spent <= cap
