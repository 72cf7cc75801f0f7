"""Agent registry: DIDs, stakes, reputation, baselines, certification FSM."""
from __future__ import annotations

from decimal import Decimal
from enum import Enum
from typing import Iterator, Mapping

from .ledger import AuditLedger, RecordKind
from .money import clamp_score, fmt, nxc, round1


class CertState(str, Enum):
    UNCERTIFIED = "Uncertified"
    PROVISIONALLY_CERTIFIED = "ProvisionallyCertified"
    FULLY_CERTIFIED = "FullyCertified"
    UNDER_REVIEW = "UnderReview"
    SUSPENDED = "Suspended"
    REVOKED = "Revoked"


class CertEvent(str, Enum):
    BENCHMARK_PASS = "BenchmarkPass"
    BENCHMARK_FAIL = "BenchmarkFail"
    TELEMETRY_DEVIATION = "TelemetryDeviation"
    REMEDIATED = "Remediated"
    REVOKE_ORDER = "RevokeOrder"
    SUSPEND_ORDER = "SuspendOrder"
    REINSTATE_ORDER = "ReinstateOrder"


# Minimal table: SuspendOrder has no legal source state here; Suspended is
# reached through UnderReview + BenchmarkFail. RevokeOrder rows are added for
# every non-Revoked state below.
TRANSITIONS: dict[tuple[CertState, CertEvent], CertState] = {
    (CertState.PROVISIONALLY_CERTIFIED, CertEvent.BENCHMARK_PASS): CertState.FULLY_CERTIFIED,
    (CertState.PROVISIONALLY_CERTIFIED, CertEvent.BENCHMARK_FAIL): CertState.UNCERTIFIED,
    (CertState.FULLY_CERTIFIED, CertEvent.TELEMETRY_DEVIATION): CertState.UNDER_REVIEW,
    (CertState.UNDER_REVIEW, CertEvent.REMEDIATED): CertState.FULLY_CERTIFIED,
    (CertState.UNDER_REVIEW, CertEvent.BENCHMARK_FAIL): CertState.SUSPENDED,
    (CertState.SUSPENDED, CertEvent.REINSTATE_ORDER): CertState.UNDER_REVIEW,
}
for _state in CertState:
    if _state is not CertState.REVOKED:
        TRANSITIONS[(_state, CertEvent.REVOKE_ORDER)] = CertState.REVOKED


class DuplicateIdentity(ValueError):
    pass


class OwnershipViolation(ValueError):
    """Every agent must map to a named human principal."""


class InvalidTransition(ValueError):
    pass


class UnknownAgent(KeyError):
    pass


class UnknownBaseline(KeyError):
    pass


class AgentProfile:
    """One registered agent; the registry mutates its reputation and state."""

    __slots__ = ("did", "role", "owner", "stake", "reputation", "cert_state", "baselines", "standby")

    def __init__(
        self, did: str, role: str, owner: str, stake: Decimal, reputation: Decimal, standby: str | None
    ) -> None:
        self.did, self.role, self.owner, self.stake = did, role, owner, stake
        self.reputation = reputation
        self.cert_state = CertState.PROVISIONALLY_CERTIFIED
        self.baselines: dict[str, tuple[float, float]] = {}
        self.standby = standby


class IdentityRegistry:
    def __init__(self, ledger: AuditLedger) -> None:
        self._ledger = ledger
        self._profiles: dict[str, AgentProfile] = {}

    def __contains__(self, did: str) -> bool:
        return did in self._profiles

    def __iter__(self) -> Iterator[AgentProfile]:
        return iter(self._profiles.values())

    def get(self, did: str) -> AgentProfile:
        try:
            return self._profiles[did]
        except KeyError:
            raise UnknownAgent(did) from None

    def register_agent(
        self,
        did: str,
        role: str,
        owner: str,
        stake,
        *,
        reputation="50.0",
        standby: str | None = None,
        baselines: Mapping[str, tuple[float, float]] | None = None,
    ) -> AgentProfile:
        if did in self._profiles:
            raise DuplicateIdentity(did)
        if not owner:
            raise OwnershipViolation(f"{did}: owner must be a named principal")
        stake = nxc(stake)
        if stake < 0:
            raise ValueError(f"{did}: stake must be non-negative")
        profile = AgentProfile(
            did=did,
            role=role,
            owner=owner,
            stake=stake,
            reputation=round1(Decimal(str(reputation))),
            standby=standby,
        )
        for label, (mean, std) in (baselines or {}).items():
            if std <= 0:
                raise ValueError(f"baseline {label}: std must be > 0")
            profile.baselines[label] = (float(mean), float(std))
        self._profiles[did] = profile
        self._ledger.append(
            RecordKind.AGENT_REGISTERED,
            did,
            {
                "did": did,
                "role": role,
                "owner": owner,
                "stake": fmt(stake),
                "cert_state": profile.cert_state.value,
            },
        )
        return profile

    def transition_cert(self, did: str, event: CertEvent | str) -> CertState:
        profile = self.get(did)
        event = CertEvent(event)
        key = (profile.cert_state, event)
        if key not in TRANSITIONS:
            raise InvalidTransition(f"{profile.cert_state.value} + {event.value}")
        before = profile.cert_state
        profile.cert_state = TRANSITIONS[key]
        self._ledger.append(
            RecordKind.CERT_TRANSITION,
            did,
            {
                "did": did,
                "event": event.value,
                "from": before.value,
                "to": profile.cert_state.value,
            },
        )
        return profile.cert_state

    def update_reputation(self, did: str, delta) -> Decimal:
        profile = self.get(did)
        before = profile.reputation
        profile.reputation = clamp_score(before + Decimal(str(delta)))
        self._ledger.append(
            RecordKind.REPUTATION_UPDATE,
            did,
            {
                "did": did,
                "delta": str(delta),
                "from": str(before),
                "to": str(profile.reputation),
            },
        )
        return profile.reputation

    def baseline(self, did: str, behavior_class: str) -> tuple[float, float]:
        profile = self.get(did)
        try:
            return profile.baselines[behavior_class]
        except KeyError:
            raise UnknownBaseline(f"{did}: {behavior_class}") from None


def shortest_certification_path(start: CertState) -> int | None:
    """BFS distance (in events) from a state to FullyCertified. Registration
    counts as one step out of Uncertified."""
    if start is CertState.UNCERTIFIED:
        tail = shortest_certification_path(CertState.PROVISIONALLY_CERTIFIED)
        return None if tail is None else tail + 1
    frontier = [(start, 0)]
    seen = {start}
    while frontier:
        state, depth = frontier.pop(0)
        if state is CertState.FULLY_CERTIFIED:
            return depth
        for (src, _event), dst in TRANSITIONS.items():
            if src is state and dst not in seen:
                seen.add(dst)
                frontier.append((dst, depth + 1))
    return None
