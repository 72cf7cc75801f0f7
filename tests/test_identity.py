from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from govsim.errors import InvalidTransition, NotFound, ValidationError
from govsim.identity import (
    TRANSITIONS,
    CertEvent,
    CertState,
    IdentityRegistry,
    shortest_certification_path,
)
from govsim.ledger import AuditLedger, RecordKind

DID = "did:netx:gsc-fra:agent:strategy-fx-7"


@pytest.fixture
def registry():
    return IdentityRegistry(AuditLedger(attestation_key=b"k"))


def test_register_stores_profile(registry):
    p = registry.register_agent(DID, "Mission Architect", "GlobalSettle Consortium", "8500")
    assert p.stake == Decimal("8500.00")
    assert p.cert_state is CertState.PROVISIONALLY_CERTIFIED


def test_register_zero_stake_allowed(registry):
    p = registry.register_agent(DID, "r", "owner", 0)
    assert p.stake == Decimal("0.00")


def test_register_duplicate(registry):
    registry.register_agent(DID, "r", "owner", 1)
    with pytest.raises(ValidationError, match="duplicate identity"):
        registry.register_agent(DID, "r", "owner", 1)


def test_register_empty_owner(registry):
    with pytest.raises(ValidationError, match="named principal"):
        registry.register_agent(DID, "r", "", 1)


def test_register_emits_record():
    led = AuditLedger(attestation_key=b"t" * 32)
    reg = IdentityRegistry(ledger=led)
    reg.register_agent(DID, "r", "owner", "100")
    kinds = [r.kind for r in led]
    assert kinds == [RecordKind.AGENT_REGISTERED]


def certify(registry, did=DID):
    registry.register_agent(did, "r", "owner", "100")
    registry.transition_cert(did, CertEvent.BENCHMARK_PASS)


def test_benchmark_pass_certifies(registry):
    certify(registry)
    assert registry.get(DID).cert_state is CertState.FULLY_CERTIFIED


def test_deviation_review_remediation_cycle(registry):
    certify(registry)
    assert registry.transition_cert(DID, "TelemetryDeviation") is CertState.UNDER_REVIEW
    assert registry.transition_cert(DID, "Remediated") is CertState.FULLY_CERTIFIED


def test_review_benchmark_fail_suspends(registry):
    certify(registry)
    registry.transition_cert(DID, CertEvent.TELEMETRY_DEVIATION)
    assert registry.transition_cert(DID, CertEvent.BENCHMARK_FAIL) is CertState.SUSPENDED
    assert registry.transition_cert(DID, CertEvent.REINSTATE_ORDER) is CertState.UNDER_REVIEW


def test_revoked_is_terminal(registry):
    certify(registry)
    registry.transition_cert(DID, CertEvent.REVOKE_ORDER)
    with pytest.raises(InvalidTransition):
        registry.transition_cert(DID, CertEvent.BENCHMARK_PASS)


def test_suspend_order_has_no_legal_source(registry):
    certify(registry)
    with pytest.raises(InvalidTransition):
        registry.transition_cert(DID, CertEvent.SUSPEND_ORDER)


def test_unknown_did(registry):
    with pytest.raises(NotFound, match="unknown agent"):
        registry.transition_cert("did:netx:x:agent:ghost", CertEvent.BENCHMARK_PASS)
    with pytest.raises(NotFound, match="unknown agent"):
        registry.update_reputation("did:netx:x:agent:ghost", "0.1")


def test_reputation_updates(registry):
    registry.register_agent(DID, "r", "owner", 1, reputation="97.8")
    assert registry.update_reputation(DID, "0.3") == Decimal("98.1")

    other = "did:netx:gsc-fra:agent:compliance-eu-3"
    registry.register_agent(other, "r", "owner", 1, reputation="95.9")
    assert registry.update_reputation(other, "0.1") == Decimal("96.0")


def test_reputation_clamps(registry):
    registry.register_agent(DID, "r", "owner", 1, reputation="99.95")
    assert registry.update_reputation(DID, "0.3") == Decimal("100.0")


def test_baseline_lookup(registry):
    registry.register_agent(
        DID, "r", "owner", 1, baselines={"uae-clearance-rate": (0.892, 0.02)}
    )
    assert registry.baseline(DID, "uae-clearance-rate") == (0.892, 0.02)
    with pytest.raises(NotFound, match="no baseline"):
        registry.baseline(DID, "unheard-of")


def test_baseline_zero_std_rejected(registry):
    with pytest.raises(ValueError):
        registry.register_agent(DID, "r", "owner", 1, baselines={"m": (0.5, 0.0)})


def test_liveness_every_nonrevoked_state_reaches_full_within_three():
    for state in CertState:
        if state is CertState.REVOKED:
            continue
        dist = shortest_certification_path(state)
        assert dist is not None and dist <= 3, state


def test_exhaustive_pairs_well_defined():
    # Every (state, event) pair either maps to a state or is rejected; the
    # table never moves out of Revoked.
    for state in CertState:
        for event in CertEvent:
            dst = TRANSITIONS.get((state, event))
            if state is CertState.REVOKED:
                assert dst is None
            if dst is not None:
                assert isinstance(dst, CertState)


@given(
    st.lists(st.sampled_from(list(CertEvent)), min_size=0, max_size=40),
    st.lists(st.decimals(min_value=-50, max_value=50, allow_nan=False, places=1), max_size=20),
)
def test_random_walks_keep_invariants(events, deltas):
    reg = IdentityRegistry(AuditLedger(attestation_key=b"k"))
    reg.register_agent(DID, "r", "owner", "100", reputation="50.0")
    for ev in events:
        try:
            reg.transition_cert(DID, ev)
        except InvalidTransition:
            pass
    p = reg.get(DID)
    assert p.cert_state in set(CertState)
    for d in deltas:
        reg.update_reputation(DID, d)
    assert Decimal(0) <= reg.get(DID).reputation <= Decimal(100)
