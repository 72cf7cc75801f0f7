"""Charter evaluation, decomposition, prescreening, bidding, contract stack."""
import json
from decimal import Decimal
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from govsim.economy import split_pool
from govsim.errors import ConfigError, NotFound, ValidationError
from govsim.harness import FAULT_DRILL_FIXTURE, GuardianPlan, bundled_scenario_path, scenario_from_dict
from govsim.identity import CertEvent, IdentityRegistry
from govsim.ledger import AuditLedger, RecordKind
from govsim.legislation import (
    Bid,
    Charter,
    JobSpec,
    Predicate,
    Rejected,
    Rule,
    TaskDAG,
    Authorized,
    Escalated,
    apply_amendment,
    decompose,
    find_conflicts,
    generate_contract_stack,
    prescreen,
    run_bidding,
)
from govsim.money import nxc
from helpers import (
    ceiling_charter,
    certified_registry,
    manifest_for,
    new_ledger,
    nine_node_job,
    same,
    template,
)


class TestPredicate:
    def test_numeric_threshold(self):
        p = Predicate("notional_value", "gt", "50000000")
        assert p.triggered({"notional_value": "51000000"})
        assert not p.triggered({"notional_value": "47300000"})
        assert not p.triggered({"notional_value": "50000000"})

    def test_absent_and_present(self):
        assert Predicate("beneficiary_bic", "absent").triggered({})
        assert not Predicate("beneficiary_bic", "absent").triggered({"beneficiary_bic": "X"})
        assert Predicate("raw_account_data", "present").triggered({"raw_account_data": []})

    def test_missing_field_defuses_numeric_ops(self):
        assert not Predicate("age", "lte", 36).triggered({})

    def test_unless_exception(self):
        p = Predicate(
            "adverse_media_age_months",
            "lte",
            36,
            unless=Predicate("remediation_verified", "eq", True),
        )
        assert p.triggered({"adverse_media_age_months": 14})
        assert not p.triggered(
            {"adverse_media_age_months": 14, "remediation_verified": True}
        )
        assert p.triggered(
            {"adverse_media_age_months": 14, "remediation_verified": False}
        )

    def test_eq_compares_numerically_when_possible(self):
        assert Predicate("count", "eq", "3").triggered({"count": 3})
        assert Predicate("flag", "ne", "settled").triggered({"flag": "pending"})

    @staticmethod
    def load_with_rule(predicate):
        """Load fault-drill with one order rule over `predicate` as its charter."""
        raw = json.loads(bundled_scenario_path(FAULT_DRILL_FIXTURE).read_text())
        raw["charter"]["rules"] = [Rule("r", "order", predicate).to_payload()]
        return scenario_from_dict(raw)

    def test_unknown_op_rejected(self):
        with pytest.raises(ConfigError) as err:
            self.load_with_rule(Predicate("x", "between", 1))
        assert err.value.field_path == "charter.rules[0].predicate.op"
        assert str(err.value) == "charter.rules[0].predicate.op: unknown predicate op 'between'"

    def test_payload_roundtrip(self):
        p = Predicate("a", "lte", 36, unless=Predicate("b", "eq", True))
        loaded = self.load_with_rule(p).charter.rules[0].predicate
        assert same(loaded, p) and same(loaded.unless, p.unless)


class TestCharter:
    def test_digest_ignores_rule_order(self):
        r1 = Rule("a", "order", Predicate("x", "gt", 1))
        r2 = Rule("b", "order", Predicate("y", "lt", 2))
        assert Charter(1, (r1, r2)).digest() == Charter(1, (r2, r1)).digest()

    def test_digest_tracks_version(self):
        r = Rule("a", "order", Predicate("x", "gt", 1))
        assert Charter(1, (r,)).digest() != Charter(2, (r,)).digest()

    def test_amendment_bumps_version_and_replaces_by_id(self):
        charter = ceiling_charter()
        relaxed = Rule(
            "ceiling", "manifest", Predicate("notional_value", "gt", "60000000"), "Escalate"
        )
        extra = Rule("new-rule", "order", Predicate("z", "present"))
        amended = apply_amendment(charter, [relaxed, extra])
        assert amended.version == 2
        assert amended.rule("ceiling").predicate.value == "60000000"
        assert amended.rule("new-rule")
        assert len(amended.rules) == 2

    def test_conflict_on_complementary_predicates(self):
        charter = ceiling_charter()
        contradiction = Rule(
            "floor", "manifest", Predicate("notional_value", "lte", "50000000")
        )
        assert find_conflicts(charter, [contradiction]) == [("ceiling", "floor")]

    def test_no_conflict_on_different_threshold_or_scope(self):
        charter = ceiling_charter()
        assert not find_conflicts(
            charter, [Rule("f1", "manifest", Predicate("notional_value", "lte", "40000000"))]
        )
        assert not find_conflicts(
            charter, [Rule("f2", "order", Predicate("notional_value", "lte", "50000000"))]
        )

    def test_rule_with_exception_never_conflicts(self):
        charter = ceiling_charter()
        softened = Rule(
            "soft",
            "manifest",
            Predicate(
                "notional_value", "lte", "50000000",
                unless=Predicate("waiver", "eq", True),
            ),
        )
        assert not find_conflicts(charter, [softened])

    def test_gate_filter_keeps_output_scope_only(self):
        rules = (
            Rule("no-raw-data", "output", Predicate("raw_account_data", "present")),
            Rule("ceiling", "manifest", Predicate("notional_value", "gt", 1), "Escalate"),
        )
        filtered = Charter(1, rules).rules_for_scope("output")
        assert [r.rule_id for r in filtered] == ["no-raw-data"]


def _reachable(dag, node_id):
    """Transitive closure of `dag.dependents` from `node_id`."""
    seen, frontier = set(), [node_id]
    while frontier:
        for nxt in dag.dependents(frontier.pop()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


class TestDecompose:
    def test_nine_node_shape(self):
        dag = decompose(nine_node_job(), mission_id="MISSION-1", ledger=new_ledger())
        assert len(dag) == 9
        assert dag.topological_order() == (
            "TASK-001A", "TASK-001B", "TASK-002A", "TASK-002B", "TASK-002C",
            "TASK-003A", "TASK-003B", "TASK-004", "TASK-005",
        )
        assert dag.sink_id() == "TASK-005"
        assert _reachable(dag, "TASK-002B") == {"TASK-004", "TASK-005"}
        assert _reachable(dag, "TASK-005") == set()
        assert len(dag.edges) == 12

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n),
        )
    ))
    def test_cached_queries_match_an_edge_scan(self, shape):
        # Reference: the per-call edge scans and Kahn's algorithm that the
        # cached adjacency replaced. Node ids are shuffled against seq order.
        n, pairs = shape
        ids = [f"N{(i * 7) % n:02d}-{i}" for i in range(n)]
        edges = tuple((ids[min(a, b)], ids[max(a, b)]) for a, b in pairs if a != b)
        dag = TaskDAG(mission_id="M", nodes={i: None for i in ids}, edges=edges)
        for node in ids + ["GHOST"]:
            assert dag.dependents(node) == tuple(sorted(d for s, d in edges if s == node))
            assert dag.dependencies(node) == tuple(sorted(s for s, d in edges if d == node))
        indegree = {i: sum(1 for _, d in edges if d == i) for i in ids}
        ready, order = sorted(i for i in ids if indegree[i] == 0), []
        while ready:
            order.append(ready.pop(0))
            for nxt in sorted(d for s, d in edges if s == order[-1]):
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    ready.append(nxt)
            ready.sort()
        assert dag.topological_order() == dag.topological_order() == tuple(order)
        assert dag == TaskDAG(mission_id="M", nodes={i: None for i in ids}, edges=edges)

    def test_emits_legislated_record(self):
        ledger = AuditLedger(attestation_key=b"k")
        decompose(nine_node_job(), mission_id="MISSION-1", ledger=ledger)
        recs = [r for r in ledger if r.kind is RecordKind.MISSION_LEGISLATED]
        assert len(recs) == 1

    def test_self_dependency_is_a_cycle(self):
        job = nine_node_job()
        bad = job.task_templates[:1] + (template("TASK-LOOP", ["TASK-LOOP"]),)
        with pytest.raises(ValidationError, match="depends on itself"):
            decompose(
                JobSpec(
                    "J", 1, Decimal(1), "EUR", bad
                ),
                mission_id="M",
                ledger=new_ledger(),
            )

    # Explicit ids keep each case's name stable when cases are added or
    # deleted (the timeout and whitelist cases went with their fields).
    @pytest.mark.parametrize(
        "mutation, exc",
        [
            pytest.param(
                dict(token_cap=0), ValidationError,
                id="mutation0-ValidationError",
            ),
            pytest.param(
                dict(message_cap=0), ValidationError,
                id="mutation3-ValidationError",
            ),
        ],
    )
    def test_missing_caps_rejected(self, mutation, exc):
        bad_sink = template(
            "TASK-005",
            ["TASK-003A", "TASK-003B", "TASK-004"],
            seals_provenance=True,
            **mutation,
        )
        job = nine_node_job()
        templates = job.task_templates[:-1] + (bad_sink,)
        with pytest.raises(exc):
            decompose(
                JobSpec("J", 1, Decimal(1), "EUR", templates),
                mission_id="M",
                ledger=new_ledger(),
            )

    def test_unknown_or_forward_dependency(self):
        with pytest.raises(ValidationError, match="not an earlier template"):
            decompose(
                JobSpec(
                    "J", 1, Decimal(1), "EUR",
                    (template("A", ["GHOST"]),),
                ),
                mission_id="M",
                ledger=new_ledger(),
            )
        with pytest.raises(ValidationError, match="not an earlier template"):
            decompose(
                JobSpec(
                    "J", 1, Decimal(1), "EUR",
                    (template("A", ["B"]), template("B", seals_provenance=True)),
                ),
                mission_id="M",
                ledger=new_ledger(),
            )

    def test_sink_discipline(self):
        # two sinks
        with pytest.raises(ValidationError):
            decompose(
                JobSpec(
                    "J", 1, Decimal(1), "EUR",
                    (template("A", seals_provenance=True), template("B", seals_provenance=True)),
                ),
                mission_id="M",
                ledger=new_ledger(),
            )
        # single sink that does not seal
        with pytest.raises(ValidationError):
            decompose(
                JobSpec("J", 1, Decimal(1), "EUR", (template("A"),)),
                mission_id="M",
                ledger=new_ledger(),
            )

    def test_empty_job(self):
        with pytest.raises(ValidationError):
            decompose(
                JobSpec("J", 1, Decimal(1), "EUR", ()),
                mission_id="M",
                ledger=new_ledger(),
            )

    def test_duplicate_template_ids(self):
        with pytest.raises(ValidationError):
            decompose(
                JobSpec(
                    "J", 1, Decimal(1), "EUR",
                    (template("A"), template("A", seals_provenance=True)),
                ),
                mission_id="M",
                ledger=new_ledger(),
            )


class TestPrescreen:
    def test_under_ceiling_authorizes_with_token(self):
        charter = ceiling_charter()
        decision = prescreen(manifest_for(nine_node_job()), charter)
        assert isinstance(decision, Authorized)
        assert decision.token.startswith("auth:")

    def test_over_ceiling_escalates_with_rule_id(self):
        charter = ceiling_charter()
        decision = prescreen(manifest_for(nine_node_job(), notional="51000000"), charter)
        assert same(decision, Escalated(reason="ceiling"))

    def test_empty_charter_authorizes(self):
        charter = Charter(version=1, rules=())
        decision = prescreen(manifest_for(nine_node_job()), charter)
        assert isinstance(decision, Authorized)

    def test_order_rejection_lists_every_triggered_rule(self):
        charter = ceiling_charter(
            extra=(
                Rule("lookback-36m", "order", Predicate("adverse_media_age_months", "lte", 36)),
                Rule("bic-complete", "order", Predicate("beneficiary_bic", "absent")),
            )
        )
        order = {"order_id": "ORD-X", "adverse_media_age_months": 14}
        decision = prescreen(None, charter, order=order)
        assert same(decision, Rejected(rule_ids=("lookback-36m", "bic-complete")))

    def test_amended_lookback_passes_remediated_order(self):
        base = Rule("lookback-36m", "order", Predicate("adverse_media_age_months", "lte", 36))
        charter = ceiling_charter(extra=(base,))
        order = {
            "order_id": "ORD-X",
            "adverse_media_age_months": 14,
            "remediation_verified": True,
            "beneficiary_bic": "BANKBRRJ",
        }
        assert isinstance(prescreen(None, charter, order=order), Rejected)
        amended = apply_amendment(
            charter,
            [
                Rule(
                    "lookback-36m",
                    "order",
                    Predicate(
                        "adverse_media_age_months", "lte", 36,
                        unless=Predicate("remediation_verified", "eq", True),
                    ),
                )
            ],
        )
        assert isinstance(prescreen(None, amended, order=order), Authorized)

    def test_escalation_outranks_rejection(self):
        charter = ceiling_charter(
            extra=(Rule("bic-complete", "order", Predicate("beneficiary_bic", "absent")),)
        )
        decision = prescreen(
            manifest_for(nine_node_job(), notional="51000000"),
            charter,
            order={"order_id": "ORD-X"},
        )
        assert isinstance(decision, Escalated)

    def test_token_is_deterministic_and_version_sensitive(self):
        charter = ceiling_charter()
        manifest = manifest_for(nine_node_job())
        t1 = prescreen(manifest, charter).token
        t2 = prescreen(manifest, charter).token
        assert t1 == t2
        bumped = Charter(version=2, rules=charter.rules)
        assert prescreen(manifest, bumped).token != t1

    def test_decision_recorded(self):
        ledger = AuditLedger(attestation_key=b"k")
        charter = ceiling_charter()
        prescreen(manifest_for(nine_node_job()), charter, ledger=ledger)
        recs = [r for r in ledger if r.kind is RecordKind.PRESCREEN_DECISION]
        assert len(recs) == 1


class TestBidding:
    def test_accuracy_beats_speed_and_reputation(self):
        registry = certified_registry()
        bids = [
            Bid("did:test:fx-14", "TASK-001A", Decimal("0.9995"), 540),
            Bid("did:test:fx-12", "TASK-001A", Decimal("0.9997"), 480),
        ]
        assignment = run_bidding(
            "TASK-001A", bids, registry, mission_id="MISSION-1", ledger=new_ledger()
        )
        assert assignment.assignee == "did:test:fx-12"
        assert assignment.standby == "did:test:fx-14"
        assert assignment.consensus_sig == "sig:consensus-01:task-001a:t0"

    def test_completion_then_reputation_break_accuracy_ties(self):
        registry = certified_registry()
        same_acc = Decimal("0.999")
        faster = run_bidding(
            "N",
            [Bid("did:test:fx-14", "N", same_acc, 400), Bid("did:test:fx-12", "N", same_acc, 500)],
            registry,
            mission_id="MISSION-1",
            ledger=new_ledger(),
        )
        assert faster.assignee == "did:test:fx-14"
        higher_rep = run_bidding(
            "N",
            [Bid("did:test:fx-14", "N", same_acc, 400), Bid("did:test:fx-12", "N", same_acc, 400)],
            registry,
            mission_id="MISSION-1",
            ledger=new_ledger(),
        )
        assert higher_rep.assignee == "did:test:fx-12"

    def test_full_tie_falls_to_lower_did(self):
        registry = IdentityRegistry(new_ledger())
        for did in ("did:test:bbb", "did:test:aaa"):
            registry.register_agent(did, "execution", "ops", "500.00", reputation="98.0")
            registry.transition_cert(did, CertEvent.BENCHMARK_PASS)
        won = run_bidding(
            "N",
            [
                Bid("did:test:bbb", "N", Decimal("0.99"), 100),
                Bid("did:test:aaa", "N", Decimal("0.99"), 100),
            ],
            registry,
            mission_id="MISSION-1",
            ledger=new_ledger(),
        )
        assert won.assignee == "did:test:aaa"

    def test_eligibility_filters(self):
        registry = certified_registry()
        # provisional certification and sub-floor stake are both filtered out
        bids = [
            Bid("did:test:provisional", "N", Decimal("1.0"), 1),
            Bid("did:test:low-stake", "N", Decimal("1.0"), 1),
            Bid("did:test:fx-14", "N", Decimal("0.9"), 999),
        ]
        ledger = new_ledger()
        assert (
            run_bidding("N", bids, registry, mission_id="MISSION-1", ledger=ledger).assignee
            == "did:test:fx-14"
        )
        with pytest.raises(NotFound, match="no eligible bid"):
            run_bidding("N", bids[:2], registry, mission_id="MISSION-1", ledger=ledger)

    def test_single_eligible_bid_has_no_standby(self):
        registry = certified_registry()
        assignment = run_bidding(
            "N", [Bid("did:test:fx-12", "N", Decimal("0.99"), 10)], registry,
            mission_id="MISSION-1", ledger=new_ledger(),
        )
        assert assignment.standby is None

    def test_accepted_bid_recorded(self):
        registry = certified_registry()
        ledger = AuditLedger(attestation_key=b"k")
        run_bidding(
            "N",
            [Bid("did:test:fx-12", "N", Decimal("0.99"), 10)],
            registry,
            ledger=ledger,
            mission_id="MISSION-1",
        )
        rec = [r for r in ledger if r.kind is RecordKind.BID_ACCEPTED]
        assert len(rec) == 1


class TestContractStack:
    def build(self, registry=None, token="auth:abc", ledger=None, charter=None):
        charter = charter or ceiling_charter(
            extra=(Rule("no-raw-data", "output", Predicate("raw_account_data", "present")),)
        )
        job = nine_node_job()
        ledger = ledger if ledger is not None else new_ledger()
        dag = decompose(job, mission_id="MISSION-1", ledger=ledger)
        registry = registry or certified_registry()
        assignments = {}
        for node_id in dag.topological_order():
            assignments[node_id] = run_bidding(
                node_id,
                [
                    Bid("did:test:fx-12", node_id, Decimal("0.9997"), 480),
                    Bid("did:test:fx-14", node_id, Decimal("0.9995"), 540),
                ],
                registry,
                mission_id="MISSION-1",
                ledger=ledger,
            )
        manifest = manifest_for(job)
        addresses = generate_contract_stack(
            manifest,
            dag,
            assignments,
            authorization_token=token,
            registry=registry,
            ledger=ledger,
        )
        deployed = {
            payload["contract"]: payload
            for payload in (
                ledger.payload(r.seq) for r in ledger if r.kind is RecordKind.CONTRACT_DEPLOYED
            )
        }
        return SimpleNamespace(
            addresses=addresses,
            deployed=deployed,
            manifest=manifest,
            dag=dag,
            assignments=assignments,
            charter=charter,
        )

    def test_payment_contract_carries_exact_split(self):
        built = self.build()
        manifest = built.manifest
        assert manifest.reward_pool_total == nxc("4750.00")
        protocol_tax, infra_tax, net = split_pool(
            manifest.reward_pool_total,
            manifest.tax_rates["protocol"],
            manifest.tax_rates["infrastructure"],
        )
        assert protocol_tax == nxc("166.25")
        assert infra_tax == nxc("71.25")
        assert net == nxc("4512.50")
        assert built.deployed["payment"]["net_escrow"] == "4512.50"

    def test_addresses_are_deterministic_and_distinct(self):
        first = self.build()
        a1, a2 = first.addresses, self.build().addresses
        assert list(a1) == [
            "master", "task", "payment", "collaboration",
            "guardian", "verification", "gate", "manager",
        ]
        assert len(set(a1.values())) == 8
        assert all(a.startswith("0x") and len(a) == 42 for a in a1.values())
        assert a1["master"] == a2["master"]
        assert {name: p["address"] for name, p in first.deployed.items()} == a1

    def test_sheet_and_gate_wiring(self):
        built = self.build()
        dag, assignments = built.dag, built.assignments
        assert set(assignments) == set(dag.nodes)
        assert dag.node("TASK-001B").token_cap == 1000
        assert {
            node_id: node.gate_check_id for node_id, node in dag.nodes.items() if node.gate_check_id
        } == {"TASK-001B": "fx-rate-lock"}
        assert tuple(r.rule_id for r in built.charter.rules_for_scope("output")) == ("no-raw-data",)
        assert {a.assignee for a in assignments.values()} == {"did:test:fx-12"}
        assert built.deployed["collaboration"]["participants"] == ["did:test:fx-12"]
        assert GuardianPlan().z_threshold == 2.0
        assert GuardianPlan().window_ticks == 1200

    def test_empty_token_refused(self):
        with pytest.raises(ValidationError):
            self.build(token="")

    def test_incomplete_assignment(self):
        job = nine_node_job()
        ledger = new_ledger()
        dag = decompose(job, mission_id="MISSION-1", ledger=ledger)
        with pytest.raises(ValidationError, match="unassigned nodes"):
            generate_contract_stack(
                manifest_for(job),
                dag,
                {},
                authorization_token="auth:abc",
                registry=certified_registry(),
                ledger=ledger,
            )

    def test_revoked_assignee_refused(self):
        from govsim.identity import CertEvent as E

        registry = certified_registry()
        built = self.build(registry=registry)
        dag, assignments = built.dag, built.assignments
        registry.transition_cert("did:test:fx-12", E.REVOKE_ORDER)
        job = nine_node_job()
        with pytest.raises(ValidationError, match="is revoked"):
            generate_contract_stack(
                manifest_for(job),
                dag,
                assignments,
                authorization_token="auth:abc",
                registry=registry,
                ledger=new_ledger(),
            )

    def test_deployment_recorded_per_contract(self):
        ledger = AuditLedger(attestation_key=b"k")
        self.build(ledger=ledger)
        recs = [r for r in ledger if r.kind is RecordKind.CONTRACT_DEPLOYED]
        assert len(recs) == 8
