"""Scenario loading, fault injection, the event driver, and report emission.

A scenario file is one reproducible run: roster, job, charter, economy,
per-node execution scripts, timeline events, and fault windows. The driver
walks legislation, execution, adjudication, and economy in that order. Node
events run from one queue: each handler schedules what follows the outcome it
saw, and no event past `mission.global_timeout_ticks` runs. The report's
fingerprint is stable across replays of the same file.
"""
from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import random
from datetime import datetime, timedelta
from decimal import Decimal, InvalidOperation
from importlib import resources
from typing import Any, Callable, Container, Mapping, NamedTuple

from .adjudication import (
    BeginDeliberation,
    DisputeCase,
    DisputeState,
    Incident,
    IncidentProbe,
    IssueVerdict,
    OpenEvidence,
    Ratify,
    SlashingRubric,
    Verdict,
    advance_dispute,
    amend_charter,
    attach_evidence,
    check_deadline,
    file_dispute,
    post_mortem,
    run_correction_loop,
)
from .economy import Treasury
from .errors import (
    BudgetExceeded,
    CapBreached,
    ConfigError,
    GovsimError,
    Inconclusive,
    NotFound,
    ValidationError,
)
from .execution import (
    Baseline,
    BehaviorOutcome,
    Checkpoint,
    EscalationTier,
    FreezeEvent,
    GateFailure,
    NodeRun,
    NodeState,
    Ok,
    Pass,
    Telemetry,
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
from .identity import CertEvent, IdentityRegistry
from .ledger import AuditLedger, RecordKind, canonical
from .legislation import (
    _ACTIONS,
    _ALL_OPS,
    _COMPARATORS,
    _SCOPES,
    Authorized,
    Bid,
    Charter,
    JobSpec,
    MissionManifest,
    Predicate,
    Rule,
    SlashingCondition,
    TaskTemplate,
    _as_decimal,
    decompose,
    generate_contract_stack,
    prescreen,
    run_bidding,
)
from .money import fmt, nxc


# -- fault injection ---------------------------------------------------------


# fault kind -> the document key that names its target
_FAULT_TARGETS = {"CorruptedFeed": "endpoint_id", "StaleCache": "did", "BehaviorOverride": "node_id"}


class FaultInjection(NamedTuple):
    """A fault window. `target` is the corrupted feed's endpoint id, the
    stale cache's agent did or the overridden node id."""

    kind: str
    target: str
    activate_tick: int
    deactivate_tick: int
    behavior_name: str = ""

    def active(self, tick: int) -> bool:
        return self.activate_tick <= tick < self.deactivate_tick


# -- scenario schema ---------------------------------------------------------


class AgentSpec(NamedTuple):
    did: str
    role: str
    owner: str
    stake: str
    reputation: Decimal
    balance: str
    baselines: Mapping[str, tuple[float, float]]
    bids: tuple[Bid, ...]


class EvidenceSpec(NamedTuple):
    call_index: int
    endpoint_id: str
    category: str
    contract_scope_ok: bool


class AttemptSpec(NamedTuple):
    duration_ticks: int
    tokens: int
    tool_calls: int
    messages: int
    evidence_offset: int
    metrics: Mapping[str, float]
    evidence: tuple[EvidenceSpec, ...]
    output: Mapping[str, Any]


class ProbePlan(NamedTuple):
    metric: str
    period_ticks: int
    clean_value: float
    corrupt_value: float
    fault_ref: str | None


class Screen(NamedTuple):
    affected: int
    flagged: tuple[str, ...]


class NodePlan(NamedTuple):
    node_id: str
    first: AttemptSpec
    retry: AttemptSpec | None
    probe: ProbePlan | None
    rollback_delay_ticks: int
    max_cycles: int
    screen: Screen | None
    items: tuple[str, ...]
    quarantine_items: tuple[str, ...]

    def attempt(self, attempt: int) -> AttemptSpec:
        """The script of attempt `attempt`: `first`, then `retry` if given."""
        return self.first if attempt == 0 or self.retry is None else self.retry


class EconomyPlan(NamedTuple):
    pool_total: str
    protocol_rate: Decimal
    infra_rate: Decimal
    cross_tax_rate: Decimal
    stake_floor: str
    org_account: str
    org_balance: str
    partner_accounts: tuple[tuple[str, str], ...]
    reward_weights: Mapping[str, str]
    reputation_bonus: Mapping[str, Decimal]


class Release(NamedTuple):
    """Quarantined items a timeline event releases from one node."""

    node_id: str
    items: tuple[str, ...]
    resolution: str


class TimelineEvent(NamedTuple):
    tick: int
    kind: str
    params: Mapping[str, Any]
    release: Release | None


_TIMELINE_KINDS = ("correction_loop", "dispute", "cross_node_attestation")


class GuardianPlan(NamedTuple):
    z_threshold: float = 2.0
    window_ticks: int = 1200
    cosigner: str = "verifier-quorum-01"
    mediator: str = "consensus-01"
    escalation_panel: tuple[str, ...] = ()


class ScenarioConfig(NamedTuple):
    seed: int
    tick_scale: int
    clock_origin: datetime
    mission_id: str
    value_ceiling: Decimal
    global_timeout_ticks: int
    exec_start_tick: int
    settlement_delay_ticks: int
    budget_window_nodes: tuple[str, ...]
    agents: tuple[AgentSpec, ...]
    job: JobSpec
    charter: Charter
    economy: EconomyPlan
    plans: Mapping[str, NodePlan]
    regression_orders: tuple[Mapping[str, Any], ...]
    timeline: tuple[TimelineEvent, ...]
    faults: tuple[FaultInjection, ...]
    guardian: GuardianPlan
    expectations: Mapping[str, Any]


def _require(mapping: Mapping, key: str, path: str) -> Any:
    if key not in mapping:
        raise ConfigError(f"{path}.{key}" if path else key, "missing")
    return mapping[key]


def _as_int(value: Any, path: str, *, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum}")
    return value


def _as_section(value: Any, path: str, shape: type) -> Any:
    """A section, or an element inside one, must be a JSON object (`dict`) or
    array (`list`)."""
    if not isinstance(value, shape):
        expected = "an object" if shape is dict else "a list"
        raise ConfigError(path, f"expected {expected}, got {type(value).__name__}")
    return value


def _as_money(value: Any, path: str) -> str:
    try:
        return fmt(nxc(value))
    except (InvalidOperation, ValueError, TypeError):
        raise ConfigError(path, f"not a token amount: {value!r}") from None


def _as_finite_decimal(value: Any, path: str) -> Decimal:
    number = _as_decimal(value)
    if number is None or not number.is_finite():
        raise ConfigError(path, f"not a decimal number: {value!r}")
    return number


def _as_float(value: Any, path: str) -> float:
    number = float(_as_finite_decimal(value, path))
    if abs(number) == float("inf"):
        raise ConfigError(path, f"out of float range: {value!r}")
    return number


def _known(value: Any, known: Container[str], path: str, what: str) -> str:
    """`value` if it names one of `known`."""
    if not isinstance(value, str) or value not in known:
        raise ConfigError(path, f"unknown {what} {value!r}")
    return value


def _as_name(value: Any, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(path, f"expected a non-empty string, got {value!r}")
    return value


def _names(value: Any, path: str) -> tuple[str, ...]:
    return tuple(_as_name(name, f"{path}[{k}]") for k, name in enumerate(_as_section(value, path, list)))


def _optional_name(raw: Mapping, key: str, path: str) -> str | None:
    """`raw[key]`, a name, or None when it is absent or null."""
    return None if raw.get(key) is None else _as_name(raw[key], f"{path}.{key}")


def _parse_predicate(raw: Any, path: str) -> Predicate:
    raw = _as_section(raw, path, dict)
    unless = raw.get("unless")
    return Predicate(
        field=_as_name(_require(raw, "field", path), f"{path}.field"),
        op=_known(_require(raw, "op", path), _ALL_OPS, f"{path}.op", "predicate op"),
        value=raw.get("value"),
        unless=_parse_predicate(unless, f"{path}.unless") if unless else None,
    )


def _parse_rules(raw: Any, path: str) -> tuple[Rule, ...]:
    rules = []
    for k, rule in enumerate(_as_section(raw, path, list)):
        rpath = f"{path}[{k}]"
        rule = _as_section(rule, rpath, dict)
        rules.append(
            Rule(
                rule_id=_as_name(_require(rule, "rule_id", rpath), f"{rpath}.rule_id"),
                scope=_known(_require(rule, "scope", rpath), _SCOPES, f"{rpath}.scope", "rule scope"),
                predicate=_parse_predicate(_require(rule, "predicate", rpath), f"{rpath}.predicate"),
                action=_known(rule.get("action", "Reject"), _ACTIONS, f"{rpath}.action", "rule action"),
                description=rule.get("description", ""),
            )
        )
    return tuple(rules)


def _parse_template(raw: Any, path: str) -> TaskTemplate:
    raw = _as_section(raw, path, dict)
    cpath = f"{path}.slashing_condition"
    condition = _as_section(_require(raw, "slashing_condition", path), cpath, dict)
    return TaskTemplate(
        template_id=_as_name(_require(raw, "template_id", path), f"{path}.template_id"),
        depends_on=_names(raw.get("depends_on", []), f"{path}.depends_on"),
        token_cap=_as_int(_require(raw, "token_cap", path), f"{path}.token_cap"),
        slashing_condition=SlashingCondition(
            metric=_as_name(_require(condition, "metric", cpath), f"{cpath}.metric"),
            comparator=_known(_require(condition, "comparator", cpath), _COMPARATORS, f"{cpath}.comparator", "comparator"),
            threshold=condition.get("threshold"),
        ),
        tool_call_cap=_as_int(raw.get("tool_call_cap", 40), f"{path}.tool_call_cap"),
        message_cap=_as_int(raw.get("message_cap", 120), f"{path}.message_cap"),
        gate_check_id=_optional_name(raw, "gate_check_id", path),
        seals_provenance=bool(raw.get("seals_provenance", False)),
    )


def _parse_bid(raw: Any, did: str, path: str) -> Bid:
    raw = _as_section(raw, path, dict)
    return Bid(
        did=did,
        node_id=_as_name(_require(raw, "node_id", path), f"{path}.node_id"),
        accuracy_sla=_as_finite_decimal(_require(raw, "accuracy_sla", path), f"{path}.accuracy_sla"),
        completion_ticks=_as_int(_require(raw, "completion_ticks", path), f"{path}.completion_ticks", minimum=0),
    )


def _parse_evidence(raw: Any, path: str) -> EvidenceSpec:
    raw = _as_section(raw, path, dict)
    return EvidenceSpec(
        call_index=_as_int(_require(raw, "call_index", path), f"{path}.call_index"),
        endpoint_id=_as_name(_require(raw, "endpoint_id", path), f"{path}.endpoint_id"),
        category=_as_name(raw.get("category", "agent-action"), f"{path}.category"),
        contract_scope_ok=bool(raw.get("contract_scope_ok", True)),
    )


def _parse_attempt(raw: Mapping, path: str, base: Mapping | None = None) -> AttemptSpec:
    merged = dict(base or {})
    merged.update(_as_section(raw, path, dict))
    duration = _as_int(_require(merged, "duration_ticks", path), f"{path}.duration_ticks", minimum=1)
    return AttemptSpec(
        duration_ticks=duration,
        tokens=_as_int(merged.get("tokens", 0), f"{path}.tokens", minimum=0),
        tool_calls=_as_int(merged.get("tool_calls", 0), f"{path}.tool_calls", minimum=0),
        messages=_as_int(merged.get("messages", 0), f"{path}.messages", minimum=0),
        evidence_offset=_as_int(
            merged.get("evidence_offset", max(1, duration // 2)),
            f"{path}.evidence_offset",
            minimum=1,
        ),
        metrics=dict(_as_section(merged.get("metrics", {}), f"{path}.metrics", dict)),
        evidence=tuple(
            _parse_evidence(entry, f"{path}.evidence[{k}]")
            for k, entry in enumerate(_as_section(merged.get("evidence", []), f"{path}.evidence", list))
        ),
        output=dict(_as_section(merged.get("output", {}), f"{path}.output", dict)),
    )


def _parse_plan(node_id: str, raw: Mapping, path: str) -> NodePlan:
    first = _parse_attempt(raw, path)
    retry = None
    if "retry" in raw:
        retry = _parse_attempt(raw["retry"], f"{path}.retry", base=raw)
    probe = None
    if "probe" in raw:
        ppath = f"{path}.probe"
        praw = _as_section(raw["probe"], ppath, dict)
        probe = ProbePlan(
            metric=_as_name(_require(praw, "metric", ppath), f"{ppath}.metric"),
            period_ticks=_as_int(_require(praw, "period_ticks", ppath), f"{ppath}.period_ticks", minimum=1),
            clean_value=_as_float(_require(praw, "clean_value", ppath), f"{ppath}.clean_value"),
            corrupt_value=_as_float(_require(praw, "corrupt_value", ppath), f"{ppath}.corrupt_value"),
            fault_ref=_optional_name(praw, "fault_ref", ppath),
        )
    screen = None
    if raw.get("screen") is not None:
        spath = f"{path}.screen"
        sraw = _as_section(raw["screen"], spath, dict)
        screen = Screen(
            affected=_as_int(_require(sraw, "affected", spath), f"{spath}.affected", minimum=0),
            flagged=_names(sraw.get("flagged", []), f"{spath}.flagged"),
        )
    return NodePlan(
        node_id=node_id,
        first=first,
        retry=retry,
        probe=probe,
        rollback_delay_ticks=_as_int(raw.get("rollback_delay_ticks", 300), f"{path}.rollback_delay_ticks", minimum=1),
        max_cycles=_as_int(raw.get("max_cycles", 3), f"{path}.max_cycles", minimum=1),
        screen=screen,
        items=_names(raw.get("items", []), f"{path}.items"),
        quarantine_items=_names(raw.get("quarantine", []), f"{path}.quarantine"),
    )


def _parse_partner(raw: Any, path: str) -> tuple[str, str]:
    raw = _as_section(raw, path, dict)
    return _as_name(_require(raw, "id", path), f"{path}.id"), _as_money(raw.get("balance", "0"), f"{path}.balance")


def _parse_params(
    kind: str,
    raw: Any,
    path: str,
    mission_id: str,
    payer: str,
    node_ids: set[str],
    orders: Mapping[str, Mapping[str, Any]],
) -> tuple[dict[str, Any], Release | None]:
    """A timeline event's params, each value replaced by the one its handler
    passes on and every default filled in, and the release the event makes.
    `mission_id` goes into the incident, `payer` is the default cross-node
    payer, and a dispute's `order_ref` becomes the order in `orders`."""
    params = dict(_as_section(raw, path, dict))
    if kind == "correction_loop":
        ipath = f"{path}.incident"
        incident = _as_section(_require(params, "incident", path), ipath, dict)
        probe = _as_section(incident.get("probe", {}), f"{ipath}.probe", dict)
        params["incident"] = Incident(
            incident_id=_as_name(_require(incident, "incident_id", ipath), f"{ipath}.incident_id"),
            mission_id=mission_id,
            cause=_as_name(_require(incident, "cause", ipath), f"{ipath}.cause"),
            probe=IncidentProbe(
                digest_mismatch=bool(probe.get("digest_mismatch", False)),
                scope_violation=bool(probe.get("scope_violation", False)),
                payload_equals=dict(_as_section(probe.get("payload_equals", {}), f"{ipath}.probe.payload_equals", dict)),
            ),
        )
        rpath = f"{path}.rubric"
        rubric = _as_section(params.get("rubric", {}), rpath, dict)
        params["rubric"] = SlashingRubric(
            fraction=_as_finite_decimal(rubric.get("fraction", "0.05"), f"{rpath}.fraction"),
            reputation_penalty=_as_finite_decimal(
                rubric.get("reputation_penalty", "0.5"), f"{rpath}.reputation_penalty"
            ),
        )
        params["amendment"] = _parse_rules(params.get("amendment", []), f"{path}.amendment")
        return params, None
    if kind == "cross_node_attestation":
        params["payer"] = _as_name(params.get("payer", payer), f"{path}.payer")
        params["provider_account"] = _as_name(_require(params, "provider_account", path), f"{path}.provider_account")
        params["amount"] = _as_money(_require(params, "amount", path), f"{path}.amount")
        params["provider_did"] = _optional_name(params, "provider_did", path)
        params["beneficiary_refs"] = _names(params.get("beneficiary_refs", []), f"{path}.beneficiary_refs")
        items = _names(params.get("release", []), f"{path}.release")
        if not items:
            return params, None
        return params, Release(
            node_id=_known(_require(params, "node_id", path), node_ids, f"{path}.node_id", "node"),
            items=items,
            resolution=_as_name(params.get("resolution", "cross-node-attestation"), f"{path}.resolution"),
        )
    params["evidence_query"] = dict(_as_section(params.get("evidence_query", {}), f"{path}.evidence_query", dict))
    params["order"] = orders[_known(params["order_ref"], orders, f"{path}.order_ref", "order")] if "order_ref" in params else None
    release = None
    if params.get("release"):
        rpath = f"{path}.release"
        rraw = _as_section(params["release"], rpath, dict)
        release = Release(
            node_id=_known(_require(rraw, "node_id", rpath), node_ids, f"{rpath}.node_id", "node"),
            items=_names(_require(rraw, "items", rpath), f"{rpath}.items"),
            resolution=_as_name(rraw.get("resolution", "dispute-verdict"), f"{rpath}.resolution"),
        )
    params["panel"] = _names(_require(params, "panel", path), f"{path}.panel")
    vpath = f"{path}.verdict"
    verdict = _as_section(_require(params, "verdict", path), vpath, dict)
    params["verdict"] = Verdict(
        votes_for=_as_int(_require(verdict, "votes_for", vpath), f"{vpath}.votes_for", minimum=0),
        votes_against=_as_int(_require(verdict, "votes_against", vpath), f"{vpath}.votes_against", minimum=0),
        recommendation=verdict.get("recommendation"),
        proposed_rules=_parse_rules(verdict.get("proposed_rules", []), f"{vpath}.proposed_rules"),
    )
    params["open_offset"] = _as_int(params.get("open_offset", 600), f"{path}.open_offset", minimum=0)
    params["deliberate_offset"] = _as_int(params.get("deliberate_offset", 86_400), f"{path}.deliberate_offset", minimum=0)
    params["verdict_offset"] = _as_int(params.get("verdict_offset", 172_800), f"{path}.verdict_offset", minimum=0)
    params["ratify_offset"] = _as_int(params.get("ratify_offset", 244_800), f"{path}.ratify_offset", minimum=0)
    for key in ("case_id", "complainant", "precedent_id"):
        params[key] = _optional_name(params, key, path)
    return params, release


def _parse_fault(raw: Mapping, path: str) -> FaultInjection:
    raw = _as_section(raw, path, dict)
    kind = _known(_require(raw, "kind", path), _FAULT_TARGETS, f"{path}.kind", "fault kind")
    target = _as_name(_require(raw, _FAULT_TARGETS[kind], path), f"{path}.{_FAULT_TARGETS[kind]}")
    behavior = ""
    if kind == "BehaviorOverride":
        behavior = _known(_require(raw, "behavior_name", path), _OVERRIDES, f"{path}.behavior_name", "behavior")
    activate = _as_int(_require(raw, "activate_tick", path), f"{path}.activate_tick", minimum=0)
    deactivate = _as_int(_require(raw, "deactivate_tick", path), f"{path}.deactivate_tick", minimum=0)
    if activate >= deactivate:
        raise ConfigError(f"{path}.deactivate_tick", "must be after activate_tick")
    return FaultInjection(kind, target, activate, deactivate, behavior)


def scenario_from_dict(data: Mapping[str, Any]) -> ScenarioConfig:
    """Validate a parsed scenario document and parse every value into the
    type the driver reads. Every rejection names the field."""
    seed = _require(data, "seed", "")
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise ConfigError("seed", "must be a 64-bit unsigned integer")
    tick_scale = _as_int(data.get("tick_scale", 1), "tick_scale", minimum=1)

    mission_raw = _as_section(_require(data, "mission", ""), "mission", dict)
    mission_id = _as_name(_require(mission_raw, "mission_id", "mission"), "mission.mission_id")
    try:
        origin = datetime.fromisoformat(mission_raw.get("clock_origin", "2026-01-01T00:00:00+00:00"))
    except (TypeError, ValueError):
        raise ConfigError("mission.clock_origin", "not an ISO-8601 timestamp") from None
    horizon = _as_int(mission_raw.get("global_timeout_ticks", 600_000), "mission.global_timeout_ticks", minimum=1)
    exec_start = _as_int(mission_raw.get("exec_start_tick", 900), "mission.exec_start_tick", minimum=0)
    if exec_start > horizon:
        raise ConfigError("mission.exec_start_tick", f"is past global_timeout_ticks {horizon}")
    # the last clock label is the completion tick, 10 after the last verify
    try:
        origin + timedelta(seconds=tick_scale * (horizon + 10))
    except OverflowError:
        raise ConfigError("tick_scale", f"tick {horizon + 10} leaves the calendar") from None

    agents: list[AgentSpec] = []
    dids: set[str] = set()
    for i, araw in enumerate(_as_section(_require(data, "agents", ""), "agents", list)):
        path = f"agents[{i}]"
        araw = _as_section(araw, path, dict)
        did = _as_name(_require(araw, "did", path), f"{path}.did")
        baselines = {}
        for label, braw in sorted(_as_section(araw.get("baselines", {}), f"{path}.baselines", dict).items()):
            lpath = f"{path}.baselines.{label}"
            braw = _as_section(braw, lpath, dict)
            std = _as_float(_require(braw, "std", lpath), f"{lpath}.std")
            if std <= 0:
                raise ConfigError(f"{lpath}.std", "must be positive")
            baselines[label] = (_as_float(_require(braw, "mean", lpath), f"{lpath}.mean"), std)
        agents.append(
            AgentSpec(
                did=did,
                role=_as_name(_require(araw, "role", path), f"{path}.role"),
                owner=_require(araw, "owner", path),
                stake=_as_money(_require(araw, "stake", path), f"{path}.stake"),
                reputation=_as_finite_decimal(araw.get("reputation", "50.0"), f"{path}.reputation"),
                balance=_as_money(araw.get("balance", "0"), f"{path}.balance"),
                baselines=baselines,
                bids=tuple(
                    _parse_bid(braw, did, f"{path}.bids[{j}]")
                    for j, braw in enumerate(_as_section(araw.get("bids", []), f"{path}.bids", list))
                ),
            )
        )
        dids.add(did)
    if not agents:
        raise ConfigError("agents", "roster must not be empty")

    job_raw = _as_section(_require(data, "job", ""), "job", dict)
    job = JobSpec(
        job_id=_as_name(_require(job_raw, "job_id", "job"), "job.job_id"),
        order_count=_as_int(_require(job_raw, "order_count", "job"), "job.order_count", minimum=0),
        notional_value=_as_finite_decimal(_require(job_raw, "notional_value", "job"), "job.notional_value"),
        currency=_as_name(_require(job_raw, "currency", "job"), "job.currency"),
        task_templates=tuple(
            _parse_template(t, f"job.task_templates[{k}]")
            for k, t in enumerate(_as_section(_require(job_raw, "task_templates", "job"), "job.task_templates", list))
        ),
    )
    node_ids = {t.template_id for t in job.task_templates}

    charter_raw = _as_section(_require(data, "charter", ""), "charter", dict)
    charter = Charter(
        version=_as_int(_require(charter_raw, "version", "charter"), "charter.version"),
        rules=_parse_rules(_require(charter_raw, "rules", "charter"), "charter.rules"),
    )

    eraw = _as_section(_require(data, "economy", ""), "economy", dict)
    weights = {
        did: _as_money(amount, f"economy.reward_weights.{did}")
        for did, amount in _as_section(
            _require(eraw, "reward_weights", "economy"), "economy.reward_weights", dict
        ).items()
    }
    for did in weights:
        if did not in dids:
            raise ConfigError(f"economy.reward_weights.{did}", "not a registered agent")
    economy = EconomyPlan(
        pool_total=_as_money(_require(eraw, "pool_total", "economy"), "economy.pool_total"),
        protocol_rate=_as_finite_decimal(_require(eraw, "protocol_rate", "economy"), "economy.protocol_rate"),
        infra_rate=_as_finite_decimal(_require(eraw, "infra_rate", "economy"), "economy.infra_rate"),
        cross_tax_rate=_as_finite_decimal(eraw.get("cross_tax_rate", "0.02"), "economy.cross_tax_rate"),
        stake_floor=_as_money(eraw.get("stake_floor", "100.00"), "economy.stake_floor"),
        org_account=_as_name(_require(eraw, "org_account", "economy"), "economy.org_account"),
        org_balance=_as_money(_require(eraw, "org_balance", "economy"), "economy.org_balance"),
        partner_accounts=tuple(
            _parse_partner(p, f"economy.partner_accounts[{k}]")
            for k, p in enumerate(_as_section(eraw.get("partner_accounts", []), "economy.partner_accounts", list))
        ),
        reward_weights=weights,
        reputation_bonus={
            did: _as_finite_decimal(bonus, f"economy.reputation_bonus.{did}")
            for did, bonus in _as_section(eraw.get("reputation_bonus", {}), "economy.reputation_bonus", dict).items()
        },
    )

    plans: dict[str, NodePlan] = {}
    praw_all = _as_section(_require(data, "execution_plan", ""), "execution_plan", dict)
    for key in praw_all:
        if key not in node_ids:
            raise ConfigError(f"execution_plan.{key}", "not a node in the job")
    for node_id in sorted(node_ids):
        if node_id not in praw_all:
            raise ConfigError(f"execution_plan.{node_id}", "missing")
        plans[node_id] = _parse_plan(node_id, praw_all[node_id], f"execution_plan.{node_id}")
    # A gate check on a metric its node never reports would never fire.
    for k, template in enumerate(job.task_templates):
        condition = template.slashing_condition
        plan = plans[template.template_id]
        reported = {m for attempt in (plan.first, plan.retry) if attempt is not None for m in attempt.metrics}
        if condition.comparator != "missing_field" and condition.metric not in reported:
            raise ConfigError(
                f"job.task_templates[{k}].slashing_condition.metric",
                f"no attempt of {template.template_id} reports {condition.metric!r}",
            )

    oraw = _as_section(data.get("orders", {}), "orders", dict)
    orders: dict[str, Mapping[str, Any]] = {}
    for k, order in enumerate(_as_section(oraw.get("items", []), "orders.items", list)):
        opath = f"orders.items[{k}]"
        order_id = _require(_as_section(order, opath, dict), "order_id", opath)
        orders.setdefault(_as_name(order_id, f"{opath}.order_id"), order)
    regression_orders = tuple(
        orders[_known(ref, orders, "orders.regression_refs", "order")]
        for ref in _as_section(oraw.get("regression_refs", []), "orders.regression_refs", list)
    )

    timeline: list[TimelineEvent] = []
    last_tick = -1
    for i, evraw in enumerate(_as_section(data.get("timeline", []), "timeline", list)):
        path = f"timeline[{i}]"
        evraw = _as_section(evraw, path, dict)
        tick = _as_int(_require(evraw, "tick", path), f"{path}.tick", minimum=0)
        if tick < last_tick:
            raise ConfigError(f"{path}.tick", "timeline must be ordered by tick")
        last_tick = tick
        kind = _known(_require(evraw, "kind", path), _TIMELINE_KINDS, f"{path}.kind", "timeline event kind")
        params, release = _parse_params(
            kind, evraw.get("params", {}), f"{path}.params", mission_id, economy.org_account, node_ids, orders
        )
        if tick > horizon:
            raise ConfigError(f"{path}.tick", f"is past mission.global_timeout_ticks {horizon}")
        timeline.append(TimelineEvent(tick=tick, kind=kind, params=params, release=release))

    known_endpoints = {
        spec.endpoint_id
        for plan in plans.values()
        for attempt in (plan.first, plan.retry)
        if attempt is not None
        for spec in attempt.evidence
    } | {plan.probe.fault_ref for plan in plans.values() if plan.probe}
    faults: list[FaultInjection] = []
    for i, fraw in enumerate(_as_section(data.get("faults", []), "faults", list)):
        path = f"faults[{i}]"
        fault = _parse_fault(fraw, path)
        if fault.kind == "CorruptedFeed" and fault.target not in known_endpoints:
            raise ConfigError(f"{path}.endpoint_id", f"no node touches {fault.target!r}")
        if fault.kind == "StaleCache":
            _known(fault.target, dids, f"{path}.did", "agent")
        if fault.kind == "BehaviorOverride":
            _known(fault.target, node_ids, f"{path}.node_id", "node")
        faults.append(fault)

    graw = _as_section(data.get("guardian", {}), "guardian", dict)
    guardian = GuardianPlan(
        z_threshold=_as_float(graw.get("z_threshold", 2.0), "guardian.z_threshold"),
        window_ticks=_as_int(graw.get("window_ticks", 1200), "guardian.window_ticks", minimum=1),
        cosigner=_as_name(graw.get("cosigner", "verifier-quorum-01"), "guardian.cosigner"),
        mediator=_as_name(graw.get("mediator", "consensus-01"), "guardian.mediator"),
        escalation_panel=_names(graw.get("escalation_panel", []), "guardian.escalation_panel"),
    )

    return ScenarioConfig(
        seed=seed,
        tick_scale=tick_scale,
        clock_origin=origin,
        mission_id=mission_id,
        value_ceiling=_as_finite_decimal(_require(mission_raw, "value_ceiling", "mission"), "mission.value_ceiling"),
        global_timeout_ticks=horizon,
        exec_start_tick=exec_start,
        settlement_delay_ticks=_as_int(mission_raw.get("settlement_delay_ticks", 300), "mission.settlement_delay_ticks", minimum=1),
        budget_window_nodes=_names(mission_raw.get("budget_window_nodes", []), "mission.budget_window_nodes"),
        agents=tuple(agents),
        job=job,
        charter=charter,
        economy=economy,
        plans=plans,
        regression_orders=regression_orders,
        timeline=tuple(timeline),
        faults=tuple(faults),
        guardian=guardian,
        expectations=dict(_as_section(data.get("expectations", {}), "expectations", dict)),
    )


def load_scenario(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        raise ConfigError("$file", f"no scenario at {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("$file", f"not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("$file", "scenario document must be a JSON object")
    return scenario_from_dict(data)


def bundled_scenario_path(name: str):
    return resources.files("govsim").joinpath("fixtures", name)


def load_bundled_scenario(name: str) -> ScenarioConfig:
    ref = bundled_scenario_path(name)
    with resources.as_file(ref) as path:
        return load_scenario(path)


# -- scripted behaviors ------------------------------------------------------


def _digest_of(seed_token: str) -> str:
    return "sha256:" + hashlib.sha256(seed_token.encode()).hexdigest()[:24]


# Library of adversarial behaviors, addressable from BehaviorOverride faults
# and tests. Each returns a transformed copy of the scripted outcome.
_OVERRIDES: dict[str, Callable[[BehaviorOutcome, NodeRun], BehaviorOutcome]] = {
    "token-overrun": lambda outcome, run: outcome._replace(tokens_spent=run.meter.token_cap + 1),
    "tool-storm": lambda outcome, run: outcome._replace(tool_calls=run.meter.tool_call_cap + 1),
    "message-flood": lambda outcome, run: outcome._replace(messages=run.meter.message_cap + 1),
    "scope-breach": lambda outcome, run: outcome._replace(
        evidence=tuple(ev._replace(contract_scope_ok=False) for ev in outcome.evidence)
    ),
}


# -- the driver --------------------------------------------------------------


class _Event(NamedTuple):
    """A queued node event; `start` is the tick its attempt began."""

    tick: int
    node_id: str
    order: int  # push order, the tie-break after tick and node id
    action: str
    attempt: int
    start: int


class RunReport:
    """Everything a replay produced. `body` is the JSON-native payload the
    fingerprint covers; the driver's live objects ride along for inspection."""

    __slots__ = ("body", "ledger_jsonl", "charter", "runs", "treasury", "registry", "ledger", "dispute_case")

    def __init__(self, body: dict, driver: _Driver) -> None:
        self.body = body
        self.ledger_jsonl = driver.ledger.dump_jsonl()
        self.charter, self.runs, self.dispute_case = driver.charter, driver.runs, driver.dispute_case
        self.treasury, self.registry, self.ledger = driver.treasury, driver.registry, driver.ledger

    @property
    def fingerprint(self) -> str:
        return self.body["fingerprint"]

    @property
    def assertion_failures(self) -> list[str]:
        return list(self.body["assertion_failures"])


def emit_report(report: RunReport, format: str = "json") -> bytes:
    if format == "json":
        return (json.dumps(report.body, sort_keys=True, indent=2) + "\n").encode()
    if format == "text-summary":
        body = report.body
        mission = body["mission"]
        lines = [
            f"mission {mission['mission_id']} outcome {mission['outcome']}",
            f"orders {mission['order_count']} notional {mission['notional_value']} {mission['currency']}",
            f"ledger records {body['ledger']['records']} head {body['ledger']['head_digest']}",
            f"freezes {len(body['freezes'])} escalations {[e['tier'] for e in body['escalations']]}",
            f"utilization {body['budgets']['window']['utilization']}"
            f" ({body['budgets']['window']['spent']}/{body['budgets']['window']['cap']})",
            f"distributed {body['token_flows']['distributed_total']}"
            f" slashed {body['token_flows']['slash_total']}",
        ]
        if body.get("dispute"):
            lines.append(f"dispute {body['dispute']['case_id']} -> {body['dispute']['final_state']}")
        failures = body["assertion_failures"]
        lines.append(f"assertion failures {len(failures)}")
        lines.extend(f"  FAIL {f}" for f in failures)
        lines.append(f"fingerprint {body['fingerprint']}")
        return ("\n".join(lines) + "\n").encode()
    raise ValidationError(f"unknown report format {format!r}")


class _Clock:
    """The driver's current tick, called by its ledger for the record tick. It
    refers to nothing else, so the ledger holds no path back to the driver and
    a run is freed by reference counting once its report is dropped."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def __call__(self) -> int:
        return self.value


class _Driver:
    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        self.clock = _Clock()
        self.rng = random.Random(config.seed)
        key = hashlib.sha256(f"attest:{config.seed}".encode()).digest()
        self.ledger = AuditLedger(attestation_key=key, clock=self.clock)
        self.registry = IdentityRegistry(self.ledger)
        self.treasury = Treasury(self.ledger)
        self.charter = config.charter
        self.runs: dict[str, NodeRun] = {}
        self.journal: dict[str, NodeState] = {}
        self.mission_frozen = False
        self.freeze_history: list[FreezeEvent] = []
        self.completed_tick: int | None = None
        self.dispute_case: DisputeCase | None = None
        self.node_outputs: dict[str, Mapping[str, Any]] = {}
        # report accumulators
        self.transitions: list[dict] = []
        self.freezes: list[dict] = []
        self.escalations: list[dict] = []
        self.gates: list[dict] = []
        self.screening: dict[str, dict] = {}
        self.quarantine_trace: list[dict] = []
        self.amendments: list[dict] = []
        self.loops: list[dict] = []
        self.reputation: dict[str, dict] = {}
        self.token_flows: dict[str, Any] = {}
        self.dispute_block: dict | None = None
        self.cross_node_block: dict | None = None
        self.failures: list[str] = []
        self.outcome = "Completed"
        # node events pending, and a count of pushes for their tie-break
        self.queue: list[_Event] = []
        self.pushes = itertools.count()
        # the node or timeline event being handled, for an abort line
        self.event: _Event | TimelineEvent | None = None

    # -- clock helpers ------------------------------------------------------

    def clock_label(self, tick: int) -> str:
        return (self.config.clock_origin + timedelta(seconds=tick * self.config.tick_scale)).isoformat()

    @property
    def now(self) -> int:
        return self.clock.value

    def advance(self, tick: int) -> None:
        self.clock.value = max(self.clock.value, tick)

    # -- fault queries -------------------------------------------------------

    def active_targets(self, kind: str, tick: int) -> set[str]:
        return {f.target for f in self.config.faults if f.kind == kind and f.active(tick)}

    def override_for(self, node_id: str, tick: int) -> str | None:
        for f in self.config.faults:
            if f.kind == "BehaviorOverride" and f.target == node_id and f.active(tick):
                return f.behavior_name
        return None

    # -- setup phases --------------------------------------------------------

    def register_roster(self) -> None:
        for i, spec in enumerate(self.config.agents):
            self.advance(i * 8)
            self.registry.register_agent(
                spec.did,
                spec.role,
                spec.owner,
                spec.stake,
                reputation=spec.reputation,
                baselines=spec.baselines,
            )
            self.registry.transition_cert(spec.did, CertEvent.BENCHMARK_PASS)
            self.treasury.open_account(spec.did, balance=spec.balance, stake=spec.stake)
        self.advance(len(self.config.agents) * 8)
        econ = self.config.economy
        self.treasury.open_account(econ.org_account, balance=econ.org_balance)
        for account_id, balance in econ.partner_accounts:
            self.treasury.open_account(account_id, balance=balance)

    def legislate(self):
        config = self.config
        self.advance(120)
        dag = decompose(config.job, mission_id=config.mission_id, ledger=self.ledger)
        manifest = MissionManifest.for_job(
            config.job,
            self.charter,
            mission_id=config.mission_id,
            value_ceiling=config.value_ceiling,
            reward_pool_total=config.economy.pool_total,
            tax_rates={
                "protocol": config.economy.protocol_rate,
                "infrastructure": config.economy.infra_rate,
                "cross_node": config.economy.cross_tax_rate,
            },
            authorized_principals=(config.economy.org_account, config.guardian.mediator),
        )
        self.advance(150)
        decision = prescreen(manifest, dag, self.charter, ledger=self.ledger)
        if not isinstance(decision, Authorized):
            self.outcome = type(decision).__name__
            self.failures.append(f"prescreen: mission not authorized ({decision!r})")
            return None, None

        bids_by_node: dict[str, list[Bid]] = {}
        for spec in self.config.agents:
            for bid in spec.bids:
                bids_by_node.setdefault(bid.node_id, []).append(bid)
        assignments = {}
        for i, node_id in enumerate(dag.topological_order()):
            tick = 160 + i * 40
            self.advance(tick)
            assignments[node_id] = run_bidding(
                node_id,
                tuple(bids_by_node.get(node_id, ())),
                self.registry,
                stake_floor=config.economy.stake_floor,
                mediator=config.guardian.mediator,
                sig_stamp=f"t{tick}",
                mission_id=config.mission_id,
                ledger=self.ledger,
            )
        self.advance(540)
        generate_contract_stack(
            manifest,
            dag,
            assignments,
            authorization_token=decision.token,
            registry=self.registry,
            ledger=self.ledger,
        )
        self.advance(830)
        self.treasury.fund_pool(
            config.mission_id,
            config.economy.org_account,
            config.economy.pool_total,
            config.economy.protocol_rate,
            config.economy.infra_rate,
        )
        return dag, assignments

    # -- execution processing ------------------------------------------------

    def flush_moves(self, tick: int) -> None:
        """Report each journaled node's net move since the last flush, in
        node-id order, and empty the journal."""
        for node_id, from_state in sorted(self.journal.items()):
            to_state = self.runs[node_id].state
            if to_state is not from_state:
                self.transitions.append(
                    {"tick": tick, "node_id": node_id, "from": from_state.value, "to": to_state.value}
                )
        self.journal.clear()

    def note_freeze(self, event: FreezeEvent) -> None:
        self.freeze_history.append(event)
        self.freezes.append(
            {
                "tick": event.tick,
                "scope": event.scope,
                "node_id": event.node_id,
                "trigger": event.trigger,
                "z_value": event.z_value,
                "clock": self.clock_label(event.tick),
            }
        )

    def escalate_after_freeze(self, tick: int) -> None:
        window = self.config.guardian.window_ticks
        escalation = escalate(self.freeze_history, window)
        assert escalation is not None
        tier, freeze_count = escalation
        self.escalations.append(
            {"tick": tick, "tier": tier.label, "freeze_count": freeze_count, "window_ticks": window}
        )
        self.ledger.append(
            RecordKind.ESCALATION,
            "guardian",
            {
                "action": "guardian-escalation",
                "tier": tier.label,
                "freeze_count": freeze_count,
                "mission_id": self.config.mission_id,
            },
            tick=tick,
        )
        if tier is EscalationTier.CIRCUIT_BREAKER and not self.mission_frozen:
            self.mission_frozen = True
            self.outcome = "Frozen"
            freeze_mission(self.runs, "circuit-breaker", tick, ledger=self.ledger)
            if self.config.guardian.escalation_panel:
                self.dispute_case = file_dispute(
                    self.config.mission_id,
                    self.config.guardian.escalation_panel,
                    tick,
                    case_id=f"{self.config.mission_id}-CB",
                    ledger=self.ledger,
                )

    def behavior_for(self, spec: AttemptSpec, tick: int, node_id: str):
        corrupted = self.active_targets("CorruptedFeed", tick)
        stale = self.active_targets("StaleCache", tick)
        override = self.override_for(node_id, tick)

        def scripted(run: NodeRun) -> BehaviorOutcome:
            evidence = []
            for ev in spec.evidence:
                declared = _digest_of(f"{self.config.seed}:{node_id}:{ev.endpoint_id}:{ev.call_index}")
                observed = declared
                if ev.endpoint_id in corrupted:
                    observed = _digest_of(declared + ":corrupted")
                evidence.append(
                    ToolCallEvidence(
                        call_index=ev.call_index,
                        endpoint_id=ev.endpoint_id,
                        category=ev.category,
                        declared_digest=declared,
                        observed_digest=observed,
                        contract_scope_ok=ev.contract_scope_ok
                        and not (ev.category == "cache_read" and run.assignee in stale),
                    )
                )
            output = dict(spec.output) or {"node_id": node_id, "status": "complete"}
            outcome = BehaviorOutcome(
                metrics=dict(spec.metrics),
                tokens_spent=spec.tokens,
                tool_calls=spec.tool_calls,
                messages=spec.messages,
                output=output,
                evidence=tuple(evidence),
            )
            if override is not None:
                outcome = _OVERRIDES[override](outcome, run)
            self.node_outputs[node_id] = outcome.output
            return outcome

        return scripted

    def push(self, tick: int, node_id: str, action: str, attempt: int = 0, start: int = 0) -> None:
        heapq.heappush(self.queue, _Event(tick, node_id, next(self.pushes), action, attempt, start))

    def begin_attempt(self, node_id: str, attempt: int, start: int) -> None:
        spec = self.config.plans[node_id].attempt(attempt)
        self.push(start + min(spec.evidence_offset, spec.duration_ticks - 1), node_id, "execute", attempt, start)
        self.push_check(node_id, attempt, start, start)

    def push_check(self, node_id: str, attempt: int, start: int, after: int) -> None:
        """Push the attempt's probe after tick `after`, or its verify if none fits."""
        plan = self.config.plans[node_id]
        end = start + plan.attempt(attempt).duration_ticks
        if plan.probe is not None and after + plan.probe.period_ticks < end:
            self.push(after + plan.probe.period_ticks, node_id, "probe", attempt, start)
        else:
            self.push(end, node_id, "verify", attempt, start)

    def on_start(self, event: _Event, run: NodeRun, plan: NodePlan) -> None:
        if run.state is not NodeState.PENDING:
            return
        transition(run, NodeState.READY)
        transition(run, NodeState.RUNNING)
        run.items = set(plan.items)
        run.checkpoint = Checkpoint(
            node_id=event.node_id,
            snapshot_digest="sha256:" + hashlib.sha256(
                canonical({"node_id": event.node_id, "entry": event.tick})
            ).hexdigest()[:24],
            tick=event.tick,
        )
        self.ledger.append(
            RecordKind.NODE_STARTED,
            run.assignee,
            {
                "node_id": event.node_id,
                "did": run.assignee,
                "mission_id": self.config.mission_id,
                "attempt": run.attempts + 1,
            },
            tick=event.tick,
        )
        self.begin_attempt(event.node_id, 0, event.tick)

    def on_execute(self, event: _Event, run: NodeRun, plan: NodePlan) -> None:
        if run.state is not NodeState.RUNNING or run.attempts != event.attempt:
            return
        behavior = self.behavior_for(plan.attempt(event.attempt), event.tick, event.node_id)
        try:
            execute_node(
                run,
                behavior,
                tick=event.tick,
                ledger=self.ledger,
                mission_id=self.config.mission_id,
            )
        except (BudgetExceeded, CapBreached):
            self.note_freeze(run.freeze_events[-1])
            self.escalate_after_freeze(event.tick)

    def on_probe(self, event: _Event, run: NodeRun, plan: NodePlan) -> None:
        if run.state is not NodeState.RUNNING or run.attempts != event.attempt:
            return
        probe = plan.probe
        assert probe is not None
        corrupt = probe.fault_ref in self.active_targets("CorruptedFeed", event.tick) or (
            run.assignee in self.active_targets("StaleCache", event.tick)
        )
        telemetry = Telemetry(
            node_id=event.node_id,
            did=run.assignee,
            tokens_spent=0,
            tool_calls=0,
            messages=0,
            metrics={probe.metric: probe.corrupt_value if corrupt else probe.clean_value},
            output_digest="probe",
        )
        mean, std = self.registry.baseline(run.assignee, probe.metric)
        verdict = guardian_check(
            telemetry,
            Baseline(metric=probe.metric, mean=mean, std=std),
            run=run,
            z_threshold=self.config.guardian.z_threshold,
            tick=event.tick,
            ledger=self.ledger,
        )
        if isinstance(verdict, Ok):
            self.push_check(event.node_id, event.attempt, event.start, event.tick)
            return
        self.note_freeze(verdict)
        self.escalate_after_freeze(event.tick)
        if event.attempt + 1 < plan.max_cycles:
            self.push(event.tick + plan.rollback_delay_ticks, event.node_id, "rollback", event.attempt)

    def on_rollback(self, event: _Event, run: NodeRun, plan: NodePlan) -> None:
        if run.state is not NodeState.FROZEN:
            return
        rollback(run, tick=event.tick, ledger=self.ledger, mission_id=self.config.mission_id)
        # a Restrictive escalation halves the headroom once the meter is live again
        if self.escalations and self.escalations[-1]["tier"] == "Restrictive":
            run.meter.restrict_tool_budget()
        self.begin_attempt(event.node_id, event.attempt + 1, event.tick)

    def on_verify(self, event: _Event, run: NodeRun, plan: NodePlan) -> None:
        if run.state is not NodeState.RUNNING or run.attempts != event.attempt:
            return
        assert run.telemetry is not None
        result = gate_verify(
            run,
            run.telemetry,
            cosigner=self.config.guardian.cosigner,
            tick=event.tick,
            ledger=self.ledger,
            mission_id=self.config.mission_id,
        )
        passed = not isinstance(result, GateFailure)
        check_id = run.template.gate_check_id or event.node_id.lower()
        self.gates.append(
            {"node_id": event.node_id, "tick": event.tick, "check_id": check_id, "passed": passed}
        )
        if passed and plan.screen is not None:
            affected, flagged = plan.screen
            self.screening[event.node_id] = {
                "affected": affected,
                "cleared": affected - len(flagged),
                "flagged": len(flagged),
                "flagged_ids": list(flagged),
            }
        if not passed:
            self.note_freeze(run.freeze_events[-1])
            self.escalate_after_freeze(event.tick)
            return
        if plan.quarantine_items:
            self.push(event.tick + 2, event.node_id, "quarantine", event.attempt)
        for node_id in self.dag.dependents(event.node_id):
            if all(self.runs[d].state is NodeState.VERIFIED for d in self.dag.dependencies(node_id)):
                self.push(event.tick, node_id, "start")

    def on_quarantine(self, event: _Event, run: NodeRun, plan: NodePlan) -> None:
        if run.state not in (NodeState.RUNNING, NodeState.VERIFIED):
            return
        quarantine(
            run,
            plan.quarantine_items,
            tick=event.tick,
            ledger=self.ledger,
            mission_id=self.config.mission_id,
        )
        self.quarantine_trace.append(
            {
                "tick": event.tick,
                "action": "quarantine",
                "node_id": event.node_id,
                "items": sorted(plan.quarantine_items),
            }
        )

    def process_events(self) -> None:
        """Pop node events in (tick, node id, push order) until the queue
        drains, the mission freezes or an event falls past the horizon."""
        handlers: dict[str, Callable[[_Event, NodeRun, NodePlan], None]] = {
            "start": self.on_start,
            "execute": self.on_execute,
            "probe": self.on_probe,
            "rollback": self.on_rollback,
            "verify": self.on_verify,
            "quarantine": self.on_quarantine,
        }
        horizon = self.config.global_timeout_ticks
        for node_id in self.dag.topological_order():
            if not self.dag.dependencies(node_id):
                self.push(self.config.exec_start_tick, node_id, "start")
        while self.queue and not self.mission_frozen:
            event = heapq.heappop(self.queue)
            if event.tick > horizon:
                self.failures.append(
                    f"horizon: {event.action} of {event.node_id} at tick {event.tick}"
                    f" is past mission.global_timeout_ticks {horizon}"
                )
                break
            self.advance(event.tick)
            self.event = event
            handlers[event.action](event, self.runs[event.node_id], self.config.plans[event.node_id])
            self.flush_moves(event.tick)
        self.event = None

    # -- wrap-up phases ------------------------------------------------------

    def complete_mission(self) -> None:
        if self.mission_frozen:
            return
        unverified = [
            n for n, state in states_snapshot(self.runs).items() if state != NodeState.VERIFIED.value
        ]
        if unverified:
            self.outcome = "Stalled"
            self.failures.append(f"nodes never verified: {unverified}")
            return
        tick = max(run.verified_tick or 0 for run in self.runs.values()) + 10
        self.advance(tick)
        for _, run in sorted(self.runs.items()):
            transition(run, NodeState.COMPLETED)
        self.flush_moves(tick)
        self.completed_tick = tick
        final_output = self.node_outputs.get(self.dag.sink_id(), {})
        verdict = gate_contract_filter(final_output, self.charter)
        self.final_gate = {
            "result": "Pass" if isinstance(verdict, Pass) else "Blocked",
            "rule_ids": sorted(getattr(verdict, "rule_ids", ())),
        }
        if not isinstance(verdict, Pass):
            self.failures.append(f"final output blocked by {verdict.rule_ids}")

    def settle(self) -> None:
        econ = self.config.economy
        if self.completed_tick is None:
            escrow_state = self.treasury.pool(self.config.mission_id).escrow_state
            self.token_flows = {
                "pool": {"total": econ.pool_total, "escrow_state": escrow_state},
                "rewards": {},
                "distributed_total": "0.00",
                "slash_total": "0.00",
            }
            return
        tick = self.completed_tick + self.config.settlement_delay_ticks
        self.advance(tick)
        shares = self.treasury.distribute(self.config.mission_id, econ.reward_weights)
        pool = self.treasury.pool(self.config.mission_id)
        for did, bonus in sorted(econ.reputation_bonus.items()):
            profile = self.registry.get(did)
            entry = {"before": str(profile.reputation)}
            self.registry.update_reputation(did, bonus)
            entry["after"] = str(self.registry.get(did).reputation)
            self.reputation[did] = entry
        self.token_flows = {
            "pool": {
                "total": fmt(pool.total),
                "protocol_tax": fmt(pool.protocol_tax),
                "infra_tax": fmt(pool.infra_tax),
                "net": fmt(pool.net),
                "escrow_state": pool.escrow_state,
            },
            "rewards": {did: fmt(amount) for did, amount in shares},
            "distributed_total": fmt(sum((a for _, a in shares), Decimal(0))),
            # the shares always sum to the net: the residual goes to one did
            "residual": "0.00",
            "slash_total": "0.00",
            "slashing": [],
        }

    # -- timeline handlers ---------------------------------------------------

    def release(self, release: Release, tick: int) -> int | None:
        """Release a node's quarantined items and trace it; returns the number
        of items still held across all nodes. Releases nothing, records a
        failure and returns None when an item is not quarantined in the node
        (it never verified, say)."""
        try:
            release_quarantined(
                self.runs[release.node_id],
                release.items,
                resolution=release.resolution,
                tick=tick,
                ledger=self.ledger,
                mission_id=self.config.mission_id,
            )
        except NotFound as exc:
            self.failures.append(f"release: {exc.args[0]}")
            return None
        self.quarantine_trace.append(
            {
                "tick": tick,
                "action": "release",
                "node_id": release.node_id,
                "items": sorted(release.items),
                "resolution": release.resolution,
            }
        )
        return sum(len(r.quarantined_items) for r in self.runs.values())

    def handle_cross_node(self, event: TimelineEvent) -> None:
        params = event.params
        amount, tax = self.treasury.settle_cross_node(
            params["payer"],
            params["provider_account"],
            params["amount"],
            self.config.economy.cross_tax_rate,
            mission_id=self.config.mission_id,
        )
        remaining = None if event.release is None else self.release(event.release, event.tick)
        self.cross_node_block = {
            "tick": event.tick,
            "amount": fmt(amount),
            "tax": fmt(tax),
            "payer": params["payer"],
            "provider_account": params["provider_account"],
            "provider_did": params["provider_did"],
            "beneficiary_refs": list(params["beneficiary_refs"]),
            "released": [] if remaining is None else sorted(event.release.items),
            "remaining_after": remaining,
        }

    def handle_correction_loop(self, event: TimelineEvent) -> None:
        params = event.params
        incident = params["incident"]
        try:
            forensic = post_mortem(self.ledger, incident)
        except Inconclusive:
            self.failures.append(f"post-mortem inconclusive for {incident.incident_id}")
            return
        loop = run_correction_loop(
            incident,
            forensic,
            self.charter,
            treasury=self.treasury,
            registry=self.registry,
            rubric=params["rubric"],
            amendment=params["amendment"],
            regression_orders=self.config.regression_orders,
            ledger=self.ledger,
            start_tick=event.tick,
        )
        if loop.charter.version != self.charter.version:
            self.amendments.append(
                {
                    "tick": event.tick,
                    "from_version": self.charter.version,
                    "to_version": loop.charter.version,
                    "rule_ids": sorted(r.rule_id for r in params["amendment"]),
                    "source": "correction-loop",
                }
            )
        self.charter = loop.charter
        stages = IncidentProbe(
            kinds=(RecordKind.CORRECTION_STAGE,), payload_equals={"incident_id": incident.incident_id}
        )
        stage_seqs = [r.seq for r, _ in stages.search(self.ledger)]
        sanction = dict(loop.step_a) if isinstance(loop.step_a, Mapping) else {"note": str(loop.step_a)}
        if sanction.get("slash") not in (None, "0.00"):
            self.token_flows["slash_total"] = fmt(
                nxc(self.token_flows["slash_total"]) + nxc(sanction["slash"])
            )
            self.token_flows.setdefault("slashing", []).append(
                {"did": getattr(forensic.attribution, "did", None), "amount": sanction["slash"]}
            )
        self.loops.append(
            {
                "incident_id": incident.incident_id,
                "attribution": type(forensic.attribution).__name__,
                "root_locus": list(forensic.root_locus),
                "classification": loop.step_l,
                "identity_action": loop.step_i,
                "rules_action": loop.step_g,
                "sanction": sanction,
                "completed": loop.completed,
                "stage_seqs": stage_seqs,
            }
        )

    def handle_dispute(self, event: TimelineEvent) -> None:
        params = event.params
        t0 = event.tick
        case = file_dispute(
            self.config.mission_id,
            params["panel"],
            t0,
            case_id=params["case_id"],
            complainant=params["complainant"],
            treasury=self.treasury,
            ledger=self.ledger,
        )
        self.dispute_case = case
        order = params["order"]
        pre = prescreen(None, None, self.charter, order=order) if order else None

        self.advance(t0 + params["open_offset"])
        check_deadline(case, self.now, ledger=self.ledger)
        advance_dispute(case, OpenEvidence(), tick=self.now, ledger=self.ledger)
        if params["evidence_query"]:
            evidence = IncidentProbe(kinds=(RecordKind.TOOL_CALL,), payload_equals=params["evidence_query"])
            attach_evidence(case, [r.seq for r, _ in evidence.search(self.ledger)])
        self.advance(t0 + params["deliberate_offset"])
        advance_dispute(case, BeginDeliberation(), tick=self.now, ledger=self.ledger)

        verdict = params["verdict"]
        self.advance(t0 + params["verdict_offset"])
        verdict_tick = self.now
        advance_dispute(
            case, IssueVerdict(verdict), tick=self.now, ledger=self.ledger, treasury=self.treasury
        )

        if case.state is DisputeState.AMENDMENT_PENDING and verdict.proposed_rules:
            self.advance(verdict_tick + 600)
            amended = amend_charter(
                self.charter,
                verdict.proposed_rules,
                regression_orders=self.config.regression_orders,
                ledger=self.ledger,
                tick=self.now,
                mission_id=self.config.mission_id,
            )
            self.amendments.append(
                {
                    "tick": self.now,
                    "from_version": self.charter.version,
                    "to_version": amended.version,
                    "rule_ids": sorted(r.rule_id for r in verdict.proposed_rules),
                    "source": "dispute-verdict",
                }
            )
            self.charter = amended
            self.advance(t0 + params["ratify_offset"])
            advance_dispute(case, Ratify(), tick=self.now, ledger=self.ledger)

        case.precedent_ref = params["precedent_id"]

        post = prescreen(None, None, self.charter, order=order) if order else None
        remaining = None
        if event.release is not None and isinstance(post, Authorized):
            remaining = self.release(event.release, self.now)

        self.dispute_block = {
            "case_id": case.case_id,
            "filed_tick": t0,
            "deadline_tick": case.deadline_tick,
            "final_state": case.state.value,
            "within_deadline": self.now <= case.deadline_tick,
            "votes": f"{verdict.votes_for}-{verdict.votes_against}",
            "trace": [[state, tick] for state, tick in case.history],
            "precedent_id": case.precedent_ref,
            "represcreen": {
                "before": type(pre).__name__ if pre else None,
                "before_rules": sorted(getattr(pre, "rule_ids", ())) if pre else [],
                "after": type(post).__name__ if post else None,
            },
            "released": [] if remaining is None else sorted(event.release.items),
            "remaining_after": remaining,
        }

    def run_timeline(self) -> None:
        handlers: dict[str, Callable[[TimelineEvent], None]] = {
            "cross_node_attestation": self.handle_cross_node,
            "correction_loop": self.handle_correction_loop,
            "dispute": self.handle_dispute,
        }
        for event in self.config.timeline:
            self.advance(event.tick)
            self.event = event
            handlers[event.kind](event)
        self.event = None

    # -- report --------------------------------------------------------------

    def check_expectations(self, body: Mapping[str, Any]) -> list[str]:
        failures = []
        for path, expected in sorted(self.config.expectations.items()):
            node: Any = body
            for part in path.split("."):
                if isinstance(node, Mapping) and part in node:
                    node = node[part]
                else:
                    node = None
                    break
            if node != expected:
                failures.append(f"{path}: expected {expected!r}, got {node!r}")
        return failures

    def build_report(self) -> RunReport:
        config = self.config
        held = sum(len(run.quarantined_items) for run in self.runs.values())
        quarantined_total = sum(
            len(t["items"]) for t in self.quarantine_trace if t["action"] == "quarantine"
        )
        per_node = {}
        for node_id, run in sorted(self.runs.items()):
            telemetry = run.telemetry
            per_node[node_id] = {
                "cap": run.template.token_cap,
                "spent": telemetry.tokens_spent if telemetry else 0,
                "tool_calls": telemetry.tool_calls if telemetry else 0,
                "messages": telemetry.messages if telemetry else 0,
                "attempts": run.attempts + 1,
                "state": run.state.value,
                "assignee": run.assignee,
            }
        window_nodes = list(config.budget_window_nodes) or sorted(self.runs)
        window_spent = sum(per_node[n]["spent"] for n in window_nodes if n in per_node)
        window_cap = sum(per_node[n]["cap"] for n in window_nodes if n in per_node)
        utilization = (
            str(budget_utilization(window_spent, window_cap)) if window_cap > 0 else None
        )
        if not self.token_flows:
            self.token_flows = {
                "pool": {},
                "rewards": {},
                "distributed_total": "0.00",
                "slash_total": "0.00",
            }

        body: dict[str, Any] = {
            "mission": {
                "mission_id": config.mission_id,
                "job_id": config.job.job_id,
                "order_count": config.job.order_count,
                "notional_value": str(config.job.notional_value),
                "currency": config.job.currency,
                "seed": config.seed,
                "tick_scale": config.tick_scale,
                "outcome": self.outcome,
                "started_tick": config.exec_start_tick,
                "completed_tick": self.completed_tick,
                "start_clock": self.clock_label(config.exec_start_tick),
                "completion_clock": self.clock_label(self.completed_tick)
                if self.completed_tick is not None
                else None,
                "charter_version": self.charter.version,
            },
            "transitions": self.transitions,
            "freezes": self.freezes,
            "escalations": self.escalations,
            "gates": self.gates,
            "screening": self.screening,
            "quarantine": {
                "quarantined": quarantined_total,
                "proceeded": config.job.order_count - quarantined_total,
                "remaining": held,
                "trace": self.quarantine_trace,
            },
            "budgets": {
                "per_node": per_node,
                "window": {
                    "nodes": window_nodes,
                    "spent": window_spent,
                    "cap": window_cap,
                    "utilization": utilization,
                },
            },
            "token_flows": self.token_flows,
            "cross_node": self.cross_node_block,
            "reputation": self.reputation,
            "dispute": self.dispute_block,
            "amendments": self.amendments,
            "correction_loops": self.loops,
            "final_gate": getattr(self, "final_gate", None),
            "ledger": {
                "records": len(self.ledger),
                "head_digest": "sha256:" + self.ledger.head_digest.hex(),
            },
        }
        body["assertion_failures"] = self.failures + self.check_expectations(body)
        body["fingerprint"] = hashlib.sha256(canonical(body)).hexdigest()
        return RunReport(body, self)

    def abort(self, exc: GovsimError) -> None:
        """Record a domain error that stopped the run: one failure line naming
        the error, the tick, the event being handled and the last ledger seq."""
        self.outcome = "Aborted"
        event, action, node = self.event, "none", None
        if isinstance(event, _Event):
            action, node = event.action, event.node_id
        elif event is not None:
            action, node = event.kind, event.release and event.release.node_id
        last_seq = len(self.ledger) - 1 if len(self.ledger) else "none"
        self.failures.append(
            f"aborted: {type(exc).__name__}: {exc} (tick {self.now}, event {action},"
            f" node {node or 'none'}, last seq {last_seq})"
        )

    def execute(self) -> None:
        self.register_roster()
        dag, assignments = self.legislate()
        if dag is None:
            return
        self.dag = dag
        self.runs = make_runs(dag, assignments)
        for run in self.runs.values():
            run.journal = self.journal
        self.process_events()
        self.complete_mission()
        self.settle()
        self.run_timeline()


def run(config: ScenarioConfig) -> RunReport:
    """Execute one scenario end to end. Failures surface inside the report
    (assertion_failures). A `GovsimError` raised by any phase stops the run:
    the report then has outcome `Aborted`, one `aborted: ...` failure line
    naming the error, and is built from the state reached. Nothing else is
    caught, so a `TypeError`, `AttributeError` or builtin `KeyError` or
    `ValueError` (a scenario the loader should have rejected) still raises."""
    driver = _Driver(config)
    try:
        driver.execute()
    except GovsimError as exc:
        driver.abort(exc)
    return driver.build_report()


CASE_STUDY_FIXTURE = "case-study.json"
FAULT_DRILL_FIXTURE = "fault-drill.json"
STRESS_WINDOW_FIXTURE = "stress-window.json"


def replay_case_study() -> RunReport:
    return run(load_bundled_scenario(CASE_STUDY_FIXTURE))


def replay_fault_drill() -> RunReport:
    return run(load_bundled_scenario(FAULT_DRILL_FIXTURE))
