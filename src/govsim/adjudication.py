"""Forensics over the audit chain, fault attribution, the dispute FSM,
charter amendment with conflict and regression review, and the four-stage
correction loop (classify, enforce, re-legislate, sanction).

Attribution is a procedure over ledger evidence alone: the first deviant
record decides. A data-ingestion record whose observed digest departs from
the declared one indicts the provider; an agent action outside its own
contract scope indicts the agent; anything else is infrastructure.
"""
from __future__ import annotations

from decimal import Decimal
from enum import Enum
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Sequence

from .economy import Treasury
from .errors import (
    AmendmentRejected,
    EvidenceIntegrityError,
    Inconclusive,
    InvalidTransition,
    ValidationError,
)
from .identity import CertEvent, CertState, IdentityRegistry
from .ledger import AuditLedger, AuditRecord, RecordKind, key_needle, pair_needle
from .legislation import (
    Authorized,
    Charter,
    Rule,
    apply_amendment,
    find_conflicts,
    prescreen,
)
from .money import ZERO, fmt, round2


# -- attribution ------------------------------------------------------------


class AgentFault(NamedTuple):
    did: str


class ProviderFault(NamedTuple):
    endpoint_id: str


class InfrastructureFault(NamedTuple):
    component: str


Attribution = AgentFault | ProviderFault | InfrastructureFault


class IncidentProbe(NamedTuple):
    """Data-driven deviance predicate over the payloads of `ToolCall`
    records."""

    digest_mismatch: bool = False
    scope_violation: bool = False
    payload_equals: Mapping[str, object] = MappingProxyType({})

    def needles(self) -> tuple[bytes, ...]:
        """Bytes that the stored payload of every matching record contains.
        A string value adds one, and so does an int `v` other than 0 and 1
        with `abs(v) < 10**16`: a JSON value equal to it, `v` or the float
        `v.0`, starts with its digits. `1 == True == 1.0` encode apart,
        larger floats take an exponent, and an absent key equals `None`."""
        found = [
            pair_needle(key, value)
            for key, value in self.payload_equals.items()
            if type(key) is str
            and (type(value) is str or type(value) is int and value not in (0, 1) and abs(value) < 10**16)
        ]
        if self.scope_violation:
            found.append(pair_needle("contract_scope_ok", False))
        if self.digest_mismatch:
            found.append(key_needle("declared_digest"))
        return tuple(found)

    def search(self, ledger: AuditLedger) -> Iterator[tuple[AuditRecord, dict]]:
        """The matching `(record, payload)` pairs of the ledger's `ToolCall`
        records, lazily in seq order: only records holding every needle are
        decoded, up to the pair taken. Do not append while iterating."""
        hits = ledger.candidates(RecordKind.TOOL_CALL, *self.needles())
        return ((record, payload) for record, payload in hits if self.matches(payload))

    def matches(self, payload: Mapping[str, object]) -> bool:
        if self.digest_mismatch:
            declared = payload.get("declared_digest")
            observed = payload.get("observed_digest")
            if declared is None or declared == observed:
                return False
        if self.scope_violation and payload.get("contract_scope_ok") is not False:
            return False
        for key, expected in self.payload_equals.items():
            if payload.get(key) != expected:
                return False
        return True


class Incident(NamedTuple):
    incident_id: str
    mission_id: str
    cause: str
    probe: IncidentProbe

    def to_subject(self) -> dict:
        return {
            "incident_id": self.incident_id,
            "mission_id": self.mission_id,
            "cause": self.cause,
        }


class ForensicReport(NamedTuple):
    incident_id: str
    mission_id: str
    root_locus: tuple[str, int]
    attribution: Attribution


def _attribute(payload: Mapping[str, object]) -> Attribution:
    category = payload.get("category")
    declared = payload.get("declared_digest")
    observed = payload.get("observed_digest")
    if category == "data-ingestion" and declared is not None and declared != observed:
        return ProviderFault(endpoint_id=str(payload.get("endpoint_id", "unknown")))
    if payload.get("contract_scope_ok") is False and "did" in payload:
        return AgentFault(did=str(payload["did"]))
    return InfrastructureFault(component=str(payload.get("endpoint_id", "unknown")))


def post_mortem(ledger: AuditLedger, incident: Incident) -> ForensicReport:
    """Verify the whole chain, then attribute the first record, in seq order,
    that matches the incident's deviance probe and whose decoded `mission_id`
    is the incident's (a verified chain holds the sealed payloads); nothing
    after it is scanned or decoded. When no record matches, a mission with no
    records included, the result is `Inconclusive`."""
    verdict = ledger.verify_chain()
    if not verdict.ok:
        raise EvidenceIntegrityError(
            f"chain breaks at seq {verdict.first_broken_seq}; evidence is inadmissible"
        )
    for record, payload in incident.probe.search(ledger):
        if payload.get("mission_id") == incident.mission_id:
            return ForensicReport(
                incident_id=incident.incident_id,
                mission_id=incident.mission_id,
                root_locus=(str(payload.get("node_id", "")), record.seq),
                attribution=_attribute(payload),
            )
    raise Inconclusive(f"no ledger record matches incident {incident.incident_id}")


# -- slashing decision ------------------------------------------------------


class SlashingRubric(NamedTuple):
    fraction: Decimal = Decimal("0.05")
    reputation_penalty: Decimal = Decimal("0.5")


def attribute_slashing(
    report: ForensicReport,
    rubric: SlashingRubric,
    *,
    treasury: Treasury,
    ledger: AuditLedger,
    tick: int | None = None,
) -> Decimal:
    """The amount slashed. Agent fault slashes per rubric; provider or
    infrastructure fault leaves every stake intact and files an incident
    report instead."""
    if isinstance(report.attribution, AgentFault):
        return treasury.slash(
            report.attribution.did,
            rubric.fraction,
            f"forensic attribution for {report.incident_id}",
            mission_id=report.mission_id,
        )
    ledger.append(
        RecordKind.ESCALATION,
        "adjudication",
        {
            "action": "incident-report",
            "incident_id": report.incident_id,
            "mission_id": report.mission_id,
            "attribution": type(report.attribution).__name__,
            "slash": fmt(ZERO),
        },
        tick=tick,
    )
    return ZERO


# -- dispute FSM ------------------------------------------------------------


class DisputeState(str, Enum):
    FILED = "Filed"
    EVIDENCE_WINDOW = "EvidenceWindow"
    DELIBERATION = "Deliberation"
    VERDICT = "Verdict"
    AMENDMENT_PENDING = "AmendmentPending"
    RATIFIED = "Ratified"
    CLOSED = "Closed"


_DISPUTE_FLOW: dict[DisputeState, frozenset[DisputeState]] = {
    DisputeState.FILED: frozenset({DisputeState.EVIDENCE_WINDOW}),
    DisputeState.EVIDENCE_WINDOW: frozenset({DisputeState.DELIBERATION}),
    DisputeState.DELIBERATION: frozenset({DisputeState.VERDICT}),
    DisputeState.VERDICT: frozenset({DisputeState.AMENDMENT_PENDING, DisputeState.CLOSED}),
    DisputeState.AMENDMENT_PENDING: frozenset({DisputeState.RATIFIED, DisputeState.CLOSED}),
    DisputeState.RATIFIED: frozenset(),
    DisputeState.CLOSED: frozenset(),
}

class Verdict(NamedTuple):
    votes_for: int
    votes_against: int
    recommendation: str | None = None
    proposed_rules: tuple[Rule, ...] = ()


# An event without data is a plain class: an empty NamedTuple would be falsy
# and equal to `()` and to every other empty event.


class OpenEvidence:
    __slots__ = ()


class BeginDeliberation:
    __slots__ = ()


class IssueVerdict(NamedTuple):
    verdict: Verdict


class Ratify:
    __slots__ = ()


class CloseCase(NamedTuple):
    reason: str = ""


DisputeEvent = OpenEvidence | BeginDeliberation | IssueVerdict | Ratify | CloseCase


class DisputeCase:
    """One case's mutable state; `history` lists each `(state, tick)` entered."""

    __slots__ = (
        "case_id", "mission_id", "state", "filed_tick", "deadline_tick", "panel",
        "verdict", "precedent_ref", "auto_escalated", "history",
    )

    def __init__(
        self, case_id: str, mission_id: str, filed_tick: int, deadline_tick: int, panel: tuple[str, ...]
    ) -> None:
        self.case_id, self.mission_id, self.panel = case_id, mission_id, panel
        self.state = DisputeState.FILED
        self.filed_tick, self.deadline_tick = filed_tick, deadline_tick
        self.verdict: Verdict | None = None
        self.precedent_ref: str | None = None
        self.auto_escalated = False
        self.history = [(DisputeState.FILED.value, filed_tick)]


def file_dispute(
    mission_id: str,
    panel: Sequence[str],
    now_tick: int,
    *,
    ledger: AuditLedger,
    case_id: str | None = None,
    deadline_ticks: int = 259_200,
    complainant: str | None = None,
    filing_fee="10.00",
    treasury: Treasury | None = None,
) -> DisputeCase:
    if len(panel) != 3:
        raise ValidationError(f"review panel needs exactly 3 members, got {len(panel)}")
    case = DisputeCase(
        case_id=case_id or f"DISPUTE-{mission_id}-{now_tick}",
        mission_id=mission_id,
        filed_tick=now_tick,
        deadline_tick=now_tick + deadline_ticks,
        panel=tuple(panel),
    )
    if treasury is not None and complainant is not None:
        treasury.transfer(
            complainant, "JudicialFund", filing_fee,
            memo="dispute filing fee", mission_id=mission_id,
        )
    ledger.append(
        RecordKind.DISPUTE_TRANSITION,
        "judicial-panel",
        {
            "case_id": case.case_id,
            "mission_id": mission_id,
            "state": case.state.value,
            "deadline_tick": case.deadline_tick,
            "panel": list(case.panel),
        },
        tick=now_tick,
    )
    return case


def _move(case: DisputeCase, to: DisputeState, tick: int, ledger: AuditLedger) -> None:
    if to not in _DISPUTE_FLOW[case.state]:
        raise InvalidTransition(f"{case.case_id}: {case.state.value} -> {to.value}")
    case.state = to
    case.history.append((to.value, tick))
    payload: dict[str, object] = {
        "case_id": case.case_id,
        "mission_id": case.mission_id,
        "state": to.value,
    }
    if case.verdict is not None and to in (
        DisputeState.VERDICT, DisputeState.AMENDMENT_PENDING, DisputeState.CLOSED
    ):
        payload["votes"] = [case.verdict.votes_for, case.verdict.votes_against]
    ledger.append(RecordKind.DISPUTE_TRANSITION, "judicial-panel", payload, tick=tick)


def advance_dispute(
    case: DisputeCase,
    event: DisputeEvent,
    *,
    tick: int,
    ledger: AuditLedger,
    treasury: Treasury | None = None,
    juror_reward="5.00",
) -> DisputeCase:
    """Apply one scripted event. A verdict never rests: it lands in
    AmendmentPending when it carries a recommendation, Closed otherwise."""
    if isinstance(event, OpenEvidence):
        _move(case, DisputeState.EVIDENCE_WINDOW, tick, ledger)
    elif isinstance(event, BeginDeliberation):
        _move(case, DisputeState.DELIBERATION, tick, ledger)
    elif isinstance(event, IssueVerdict):
        if case.state is not DisputeState.DELIBERATION:
            raise InvalidTransition(f"{case.case_id}: verdict outside deliberation")
        case.verdict = event.verdict
        _move(case, DisputeState.VERDICT, tick, ledger)
        if treasury is not None:
            for juror in case.panel:
                treasury.transfer(
                    "JudicialFund", juror, juror_reward,
                    memo="juror reward", mission_id=case.mission_id,
                )
        if event.verdict.recommendation:
            _move(case, DisputeState.AMENDMENT_PENDING, tick, ledger)
        else:
            _move(case, DisputeState.CLOSED, tick, ledger)
    elif isinstance(event, Ratify):
        _move(case, DisputeState.RATIFIED, tick, ledger)
    elif isinstance(event, CloseCase):
        _move(case, DisputeState.CLOSED, tick, ledger)
    else:
        raise InvalidTransition(f"unknown dispute event {event!r}")
    return case


def check_deadline(case: DisputeCase, now_tick: int, *, ledger: AuditLedger) -> bool:
    """Past-deadline cases without a resting verdict escalate automatically."""
    terminal = case.state in (DisputeState.RATIFIED, DisputeState.CLOSED)
    if terminal or now_tick <= case.deadline_tick or case.auto_escalated:
        return False
    case.auto_escalated = True
    ledger.append(
        RecordKind.ESCALATION,
        "judicial-panel",
        {
            "action": "deadline-breach",
            "case_id": case.case_id,
            "mission_id": case.mission_id,
            "deadline_tick": case.deadline_tick,
        },
        tick=now_tick,
    )
    return True


# -- charter amendment ------------------------------------------------------


def amend_charter(
    charter: Charter,
    amendment: Sequence[Rule],
    *,
    ledger: AuditLedger,
    mission_id: str,
    regression_orders: Sequence[Mapping] = (),
    tick: int | None = None,
) -> Charter:
    """Amendment review (pairwise predicate compatibility) then compliance
    regression (previously passing order fixtures must still pass) before the
    version increments."""
    if not amendment:
        return charter
    conflicts = find_conflicts(charter, amendment)
    if conflicts:
        raise AmendmentRejected([rid for pair in conflicts for rid in pair])
    candidate = apply_amendment(charter, amendment)
    broken = []
    for order in regression_orders:
        if not isinstance(prescreen(None, candidate, order=order), Authorized):
            broken.append(str(order.get("order_id", "?")))
    if broken:
        raise AmendmentRejected([r.rule_id for r in amendment])
    ledger.append(
        RecordKind.CHARTER_AMENDMENT,
        "judicial-panel",
        {
            "from_version": charter.version,
            "to_version": candidate.version,
            "rule_ids": sorted(r.rule_id for r in amendment),
            "charter_digest": candidate.digest(),
            "mission_id": mission_id,
        },
        tick=tick,
    )
    return candidate


# -- correction loop --------------------------------------------------------


class CorrectionLoopRun(NamedTuple):
    step_l: str
    step_i: tuple[str, ...]
    step_g: str
    step_a: Mapping[str, str]
    completed: bool
    charter: Charter
    stage_seqs: tuple[int, ...]


def run_correction_loop(
    incident: Incident,
    report: ForensicReport,
    charter: Charter,
    *,
    treasury: Treasury,
    registry: IdentityRegistry,
    ledger: AuditLedger,
    rubric: SlashingRubric | None = None,
    amendment: Sequence[Rule] = (),
    regression_orders: Sequence[Mapping] = (),
    start_tick: int = 0,
) -> CorrectionLoopRun:
    """Classify, enforce, re-legislate, sanction: one ledger stamp per stage,
    in order, and `stage_seqs` lists their seqs. An unclassifiable incident
    stops after the first stage with an open-question flag."""
    rubric = rubric or SlashingRubric()
    tick = start_tick
    stage_seqs: list[int] = []

    def stamp(stage: str, detail: Mapping[str, object]) -> None:
        nonlocal tick
        stage_seqs.append(ledger.append(
            RecordKind.CORRECTION_STAGE,
            "adjudication",
            {
                "stage": stage,
                "incident_id": incident.incident_id,
                "mission_id": incident.mission_id,
                **detail,
            },
            tick=tick,
        ))
        tick += 1

    subject = incident.to_subject()
    matched = next(
        (
            rule.rule_id
            for rule in charter.rules_for_scope("incident")
            if rule.predicate.triggered(subject)
        ),
        None,
    )
    if matched is None:
        stamp("L", {"classification": "unclassified", "open_question": True})
        return CorrectionLoopRun(
            step_l="unclassified",
            step_i=(),
            step_g="not reached",
            step_a={},
            completed=False,
            charter=charter,
            stage_seqs=tuple(stage_seqs),
        )
    stamp("L", {"classification": matched})

    actions: list[str] = []
    if isinstance(report.attribution, AgentFault):
        did = report.attribution.did
        profile = registry.get(did)
        if profile.cert_state is CertState.FULLY_CERTIFIED:
            registry.transition_cert(did, CertEvent.TELEMETRY_DEVIATION)
            actions.append(f"certification of {did} moved to UnderReview")
        if rubric.reputation_penalty > 0:
            registry.update_reputation(did, -rubric.reputation_penalty)
            actions.append(f"reputation of {did} reduced by {round2(rubric.reputation_penalty)}")
    elif isinstance(report.attribution, ProviderFault):
        actions.append(f"endpoint {report.attribution.endpoint_id} suspended from feed roster")
    else:
        actions.append(f"component {report.attribution.component} flagged for maintenance")
    stamp("I", {"actions": actions})

    next_charter = charter
    if amendment:
        next_charter = amend_charter(
            charter,
            amendment,
            regression_orders=regression_orders,
            ledger=ledger,
            tick=tick,
            mission_id=incident.mission_id,
        )
        step_g = f"charter version {next_charter.version}"
    else:
        step_g = "no amendment"
    stamp("G", {"outcome": step_g})

    slashed = attribute_slashing(report, rubric, treasury=treasury, ledger=ledger, tick=tick)
    step_a = {
        "slash": fmt(slashed),
        "attribution": type(report.attribution).__name__,
    }
    stamp("A", step_a)

    return CorrectionLoopRun(
        step_l=matched,
        step_i=tuple(actions),
        step_g=step_g,
        step_a=step_a,
        completed=True,
        charter=next_charter,
        stage_seqs=tuple(stage_seqs),
    )
