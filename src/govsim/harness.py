"""Scenario loading, fault injection, the event driver, and report emission.

A scenario file is one reproducible run: roster, job, charter, economy,
per-node execution scripts, timeline events, and fault windows. The driver
walks legislation, execution, adjudication, and economy in that order and
folds everything it saw into a deterministic report whose fingerprint is
stable across replays of the same file.
"""
from __future__ import annotations

import hashlib
import json
import random
from datetime import datetime, timedelta
from decimal import Decimal, InvalidOperation
from importlib import resources
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from .adjudication import (
    BeginDeliberation,
    DisputeCase,
    DisputeState,
    Incident,
    IncidentProbe,
    Inconclusive,
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
from .execution import (
    Baseline,
    BehaviorOutcome,
    BudgetExceeded,
    CapBreached,
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
    Authorized,
    Bid,
    Charter,
    JobSpec,
    MissionManifest,
    Rule,
    _as_decimal,
    decompose,
    generate_contract_stack,
    prescreen,
    run_bidding,
)
from .money import fmt, nxc


class ConfigError(ValueError):
    """Scenario rejected at load time; carries the offending field path."""

    def __init__(self, field_path: str, message: str) -> None:
        self.field_path = field_path
        super().__init__(f"{field_path}: {message}")


class FormatError(ValueError):
    pass


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
    reputation: str
    standby: str | None
    balance: str
    baselines: tuple[tuple[str, float, float], ...]
    bids: tuple[Bid, ...]


class AttemptSpec(NamedTuple):
    duration_ticks: int
    tokens: int
    tool_calls: int
    messages: int
    evidence_offset: int
    metrics: Mapping[str, float]
    evidence: tuple[Mapping[str, Any], ...]
    output: Mapping[str, Any]


class ProbePlan(NamedTuple):
    metric: str
    period_ticks: int
    clean_value: float
    corrupt_value: float
    fault_ref: str


class NodePlan(NamedTuple):
    node_id: str
    first: AttemptSpec
    retry: AttemptSpec | None
    probe: ProbePlan | None
    rollback_delay_ticks: int
    max_cycles: int
    screen: Mapping[str, Any] | None
    items: tuple[str, ...]
    quarantine_items: tuple[str, ...]


class EconomyPlan(NamedTuple):
    pool_total: str
    protocol_rate: str
    infra_rate: str
    cross_tax_rate: str
    stake_floor: str
    org_account: str
    org_balance: str
    partner_accounts: tuple[tuple[str, str], ...]
    reward_weights: Mapping[str, str]
    reputation_bonus: Mapping[str, str]


class TimelineEvent(NamedTuple):
    tick: int
    kind: str
    params: Mapping[str, Any]


class GuardianPlan(NamedTuple):
    z_threshold: float = 2.0
    window_ticks: int = 1200
    cosigner: str = "verifier-quorum-01"
    mediator: str = "consensus-01"
    escalation_panel: tuple[str, ...] = ()


class ScenarioConfig(NamedTuple):
    seed: int
    tick_scale: int
    clock_origin: str
    mission_id: str
    value_ceiling: str
    global_timeout_ticks: int
    exec_start_tick: int
    settlement_delay_ticks: int
    budget_window_nodes: tuple[str, ...]
    agents: tuple[AgentSpec, ...]
    job: JobSpec
    charter: Charter
    economy: EconomyPlan
    plans: Mapping[str, NodePlan]
    orders: tuple[Mapping[str, Any], ...]
    regression_refs: tuple[str, ...]
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


def _parse_rules(raw: Any, path: str) -> tuple[Rule, ...]:
    rules = []
    for k, rule in enumerate(_as_section(raw, path, list)):
        rpath = f"{path}[{k}]"
        rule = _as_section(rule, rpath, dict)
        try:
            rules.append(Rule.from_payload(rule))
        except KeyError as exc:
            raise ConfigError(rpath, f"missing {exc.args[0]!r}") from None
        except (ValueError, TypeError, AttributeError) as exc:
            raise ConfigError(rpath, f"malformed rule: {exc}") from None
    return tuple(rules)


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
        evidence=tuple(merged.get("evidence", ())),
        output=dict(merged.get("output", {})),
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
            metric=_require(praw, "metric", ppath),
            period_ticks=_as_int(_require(praw, "period_ticks", ppath), f"{ppath}.period_ticks", minimum=1),
            clean_value=float(_require(praw, "clean_value", ppath)),
            corrupt_value=float(_require(praw, "corrupt_value", ppath)),
            fault_ref=praw.get("fault_ref", ""),
        )
    return NodePlan(
        node_id=node_id,
        first=first,
        retry=retry,
        probe=probe,
        rollback_delay_ticks=_as_int(raw.get("rollback_delay_ticks", 300), f"{path}.rollback_delay_ticks", minimum=1),
        max_cycles=_as_int(raw.get("max_cycles", 3), f"{path}.max_cycles", minimum=1),
        screen=raw.get("screen"),
        items=tuple(raw.get("items", ())),
        quarantine_items=tuple(raw.get("quarantine", ())),
    )


def _parse_partner(raw: Any, path: str) -> tuple[str, str]:
    raw = _as_section(raw, path, dict)
    return _require(raw, "id", path), _as_money(raw.get("balance", "0"), f"{path}.balance")


def _parse_params(kind: Any, raw: Any, path: str) -> dict[str, Any]:
    """Timeline params. The objects that the handlers read by key are checked
    here; a correction loop's `rubric` and `amendment` and a dispute's `panel`
    and `verdict` are replaced by the values the handlers pass on."""
    params = dict(_as_section(raw, path, dict))
    if kind == "correction_loop":
        ipath = f"{path}.incident"
        incident = _as_section(_require(params, "incident", path), ipath, dict)
        _require(incident, "incident_id", ipath)
        _require(incident, "cause", ipath)
        probe = _as_section(incident.get("probe", {}), f"{ipath}.probe", dict)
        _as_section(probe.get("payload_equals", {}), f"{ipath}.probe.payload_equals", dict)
        rpath = f"{path}.rubric"
        rubric = _as_section(params.get("rubric", {}), rpath, dict)
        params["rubric"] = SlashingRubric(
            fraction=_as_finite_decimal(rubric.get("fraction", "0.05"), f"{rpath}.fraction"),
            reputation_penalty=_as_finite_decimal(
                rubric.get("reputation_penalty", "0.5"), f"{rpath}.reputation_penalty"
            ),
        )
        params["amendment"] = _parse_rules(params.get("amendment", []), f"{path}.amendment")
    elif kind == "dispute":
        _as_section(params.get("evidence_query", {}), f"{path}.evidence_query", dict)
        panel = _as_section(_require(params, "panel", path), f"{path}.panel", list)
        for k, member in enumerate(panel):
            if not isinstance(member, str):
                raise ConfigError(f"{path}.panel[{k}]", f"expected a string, got {member!r}")
        params["panel"] = tuple(panel)
        vpath = f"{path}.verdict"
        verdict = _as_section(_require(params, "verdict", path), vpath, dict)
        params["verdict"] = Verdict(
            votes_for=_as_int(_require(verdict, "votes_for", vpath), f"{vpath}.votes_for", minimum=0),
            votes_against=_as_int(
                _require(verdict, "votes_against", vpath), f"{vpath}.votes_against", minimum=0
            ),
            recommendation=verdict.get("recommendation"),
            proposed_rules=_parse_rules(verdict.get("proposed_rules", []), f"{vpath}.proposed_rules"),
        )
    return params


def _parse_fault(raw: Mapping, path: str) -> FaultInjection:
    raw = _as_section(raw, path, dict)
    kind = _require(raw, "kind", path)
    if not isinstance(kind, str) or kind not in _FAULT_TARGETS:
        raise ConfigError(f"{path}.kind", f"unknown fault kind {kind!r}")
    target = _require(raw, _FAULT_TARGETS[kind], path)
    behavior = _require(raw, "behavior_name", path) if kind == "BehaviorOverride" else ""
    activate = _as_int(_require(raw, "activate_tick", path), f"{path}.activate_tick", minimum=0)
    deactivate = _as_int(_require(raw, "deactivate_tick", path), f"{path}.deactivate_tick", minimum=0)
    if activate >= deactivate:
        raise ConfigError(f"{path}.deactivate_tick", "must be after activate_tick")
    return FaultInjection(kind, target, activate, deactivate, behavior)


def scenario_from_dict(data: Mapping[str, Any]) -> ScenarioConfig:
    """Validate a parsed scenario document. Every rejection names the field."""
    seed = _require(data, "seed", "")
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise ConfigError("seed", "must be a 64-bit unsigned integer")
    tick_scale = _as_int(data.get("tick_scale", 1), "tick_scale", minimum=1)

    mission_raw = _as_section(_require(data, "mission", ""), "mission", dict)
    mission_id = _require(mission_raw, "mission_id", "mission")
    if not isinstance(mission_id, str) or not mission_id:
        raise ConfigError("mission.mission_id", "must be a non-empty string")
    clock_origin = mission_raw.get("clock_origin", "2026-01-01T00:00:00+00:00")
    try:
        datetime.fromisoformat(clock_origin)
    except ValueError:
        raise ConfigError("mission.clock_origin", "not an ISO-8601 timestamp") from None

    agents: list[AgentSpec] = []
    dids: set[str] = set()
    for i, araw in enumerate(_as_section(_require(data, "agents", ""), "agents", list)):
        path = f"agents[{i}]"
        araw = _as_section(araw, path, dict)
        did = _require(araw, "did", path)
        baselines = []
        for label, braw in sorted(_as_section(araw.get("baselines", {}), f"{path}.baselines", dict).items()):
            lpath = f"{path}.baselines.{label}"
            braw = _as_section(braw, lpath, dict)
            std = float(_require(braw, "std", lpath))
            if std <= 0:
                raise ConfigError(f"{lpath}.std", "must be positive")
            baselines.append((label, float(_require(braw, "mean", lpath)), std))
        bids = []
        for j, braw in enumerate(_as_section(araw.get("bids", []), f"{path}.bids", list)):
            bpath = f"{path}.bids[{j}]"
            try:
                bid = Bid.from_payload({"did": did, **_as_section(braw, bpath, dict)})
            except (KeyError, ValueError, InvalidOperation) as exc:
                raise ConfigError(bpath, f"malformed bid: {exc}") from None
            bids.append(bid)
        agents.append(
            AgentSpec(
                did=did,
                role=_require(araw, "role", path),
                owner=_require(araw, "owner", path),
                stake=_as_money(_require(araw, "stake", path), f"{path}.stake"),
                reputation=str(araw.get("reputation", "50.0")),
                standby=araw.get("standby"),
                balance=_as_money(araw.get("balance", "0"), f"{path}.balance"),
                baselines=tuple(baselines),
                bids=tuple(bids),
            )
        )
        dids.add(did)
    if not agents:
        raise ConfigError("agents", "roster must not be empty")

    job_raw = _as_section(_require(data, "job", ""), "job", dict)
    try:
        job = JobSpec.from_payload(job_raw)
    except KeyError as exc:
        raise ConfigError(f"job.{exc.args[0]}", "missing") from None
    except (ValueError, InvalidOperation) as exc:
        raise ConfigError("job", str(exc)) from None
    node_ids = {t.template_id for t in job.task_templates}

    charter_raw = _as_section(_require(data, "charter", ""), "charter", dict)
    try:
        charter = Charter.from_payload(charter_raw)
    except KeyError as exc:
        raise ConfigError(f"charter.{exc.args[0]}", "missing") from None
    except (ValueError, InvalidOperation) as exc:
        raise ConfigError("charter", str(exc)) from None

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
        protocol_rate=str(_require(eraw, "protocol_rate", "economy")),
        infra_rate=str(_require(eraw, "infra_rate", "economy")),
        cross_tax_rate=str(eraw.get("cross_tax_rate", "0.02")),
        stake_floor=_as_money(eraw.get("stake_floor", "100.00"), "economy.stake_floor"),
        org_account=_require(eraw, "org_account", "economy"),
        org_balance=_as_money(_require(eraw, "org_balance", "economy"), "economy.org_balance"),
        partner_accounts=tuple(
            _parse_partner(p, f"economy.partner_accounts[{k}]")
            for k, p in enumerate(_as_section(eraw.get("partner_accounts", []), "economy.partner_accounts", list))
        ),
        reward_weights=weights,
        reputation_bonus={k: str(v) for k, v in eraw.get("reputation_bonus", {}).items()},
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
        if condition.comparator != "missing_field" and (
            not isinstance(condition.metric, str) or condition.metric not in reported
        ):
            raise ConfigError(
                f"job.task_templates[{k}].slashing_condition.metric",
                f"no attempt of {template.template_id} reports {condition.metric!r}",
            )

    oraw = _as_section(data.get("orders", {}), "orders", dict)
    orders = tuple(_as_section(oraw.get("items", []), "orders.items", list))
    for k, order in enumerate(orders):
        if "order_id" not in _as_section(order, f"orders.items[{k}]", dict):
            raise ConfigError(f"orders.items[{k}].order_id", "missing")
    order_ids = {o["order_id"] for o in orders}
    regression_refs = tuple(oraw.get("regression_refs", ()))
    for ref in regression_refs:
        if ref not in order_ids:
            raise ConfigError("orders.regression_refs", f"unknown order {ref!r}")

    timeline: list[TimelineEvent] = []
    last_tick = -1
    for i, evraw in enumerate(_as_section(data.get("timeline", []), "timeline", list)):
        path = f"timeline[{i}]"
        evraw = _as_section(evraw, path, dict)
        tick = _as_int(_require(evraw, "tick", path), f"{path}.tick", minimum=0)
        if tick < last_tick:
            raise ConfigError(f"{path}.tick", "timeline must be ordered by tick")
        last_tick = tick
        kind = _require(evraw, "kind", path)
        params = _parse_params(kind, evraw.get("params", {}), f"{path}.params")
        timeline.append(TimelineEvent(tick=tick, kind=kind, params=params))

    known_endpoints = {
        spec.get("endpoint_id")
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
        if fault.kind == "StaleCache" and fault.target not in dids:
            raise ConfigError(f"{path}.did", f"unknown agent {fault.target!r}")
        if fault.kind == "BehaviorOverride" and fault.target not in node_ids:
            raise ConfigError(f"{path}.node_id", f"unknown node {fault.target!r}")
        faults.append(fault)

    graw = _as_section(data.get("guardian", {}), "guardian", dict)
    guardian = GuardianPlan(
        z_threshold=float(graw.get("z_threshold", 2.0)),
        window_ticks=_as_int(graw.get("window_ticks", 1200), "guardian.window_ticks", minimum=1),
        cosigner=graw.get("cosigner", "verifier-quorum-01"),
        mediator=graw.get("mediator", "consensus-01"),
        escalation_panel=tuple(_as_section(graw.get("escalation_panel", []), "guardian.escalation_panel", list)),
    )

    return ScenarioConfig(
        seed=seed,
        tick_scale=tick_scale,
        clock_origin=clock_origin,
        mission_id=mission_id,
        value_ceiling=str(_require(mission_raw, "value_ceiling", "mission")),
        global_timeout_ticks=_as_int(mission_raw.get("global_timeout_ticks", 600_000), "mission.global_timeout_ticks", minimum=1),
        exec_start_tick=_as_int(mission_raw.get("exec_start_tick", 900), "mission.exec_start_tick", minimum=0),
        settlement_delay_ticks=_as_int(mission_raw.get("settlement_delay_ticks", 300), "mission.settlement_delay_ticks", minimum=1),
        budget_window_nodes=tuple(mission_raw.get("budget_window_nodes", ())),
        agents=tuple(agents),
        job=job,
        charter=charter,
        economy=economy,
        plans=plans,
        orders=orders,
        regression_refs=regression_refs,
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


def _named_override(name: str, outcome: BehaviorOutcome, run: NodeRun) -> BehaviorOutcome:
    if name not in _OVERRIDES:
        raise KeyError(f"no behavior named {name!r}")
    return _OVERRIDES[name](outcome, run)


# -- the driver --------------------------------------------------------------


class _Planned(NamedTuple):
    tick: int
    node_id: str
    order: int
    action: str
    attempt: int
    spec: AttemptSpec | None = None


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
    raise FormatError(f"unknown report format {format!r}")


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

    # -- clock helpers ------------------------------------------------------

    def clock_label(self, tick: int) -> str:
        origin = datetime.fromisoformat(self.config.clock_origin)
        return (origin + timedelta(seconds=tick * self.config.tick_scale)).isoformat()

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

    def probe_corrupt(self, plan: NodePlan, tick: int, assignee: str) -> bool:
        if plan.probe is None:
            return False
        if plan.probe.fault_ref in self.active_targets("CorruptedFeed", tick):
            return True
        return assignee in self.active_targets("StaleCache", tick)

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
                standby=spec.standby,
                baselines={label: (mean, std) for label, mean, std in spec.baselines},
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
            global_timeout_ticks=config.global_timeout_ticks,
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

    # -- execution planning --------------------------------------------------

    def plan_events(self, dag, assignments) -> list[_Planned]:
        events: list[_Planned] = []
        verified: dict[str, int | None] = {}
        counter = 0

        def put(tick: int, node_id: str, action: str, attempt: int, spec=None) -> None:
            nonlocal counter
            events.append(_Planned(tick, node_id, counter, action, attempt, spec))
            counter += 1

        for node_id in dag.topological_order():
            deps = dag.dependencies(node_id)
            if any(verified.get(d) is None for d in deps):
                verified[node_id] = None
                continue
            start = max(
                [self.config.exec_start_tick] + [verified[d] for d in deps]  # type: ignore[list-item]
            )
            plan = self.config.plans[node_id]
            assignee = assignments[node_id].assignee
            put(start, node_id, "start", 0)
            attempt = 0
            spec = plan.first
            t = start
            cycles = 0
            while True:
                put(t + min(spec.evidence_offset, spec.duration_ticks - 1), node_id, "execute", attempt, spec)
                freeze_at = None
                if plan.probe is not None:
                    k = 1
                    while (pt := t + k * plan.probe.period_ticks) < t + spec.duration_ticks:
                        put(pt, node_id, "probe", attempt)
                        if self.probe_corrupt(plan, pt, assignee):
                            freeze_at = pt
                            break
                        k += 1
                if freeze_at is None:
                    vt = t + spec.duration_ticks
                    put(vt, node_id, "verify", attempt, spec)
                    if plan.quarantine_items:
                        put(vt + 2, node_id, "quarantine", attempt)
                    verified[node_id] = vt
                    break
                cycles += 1
                if cycles >= plan.max_cycles:
                    verified[node_id] = None
                    break
                rb = freeze_at + plan.rollback_delay_ticks
                put(rb, node_id, "rollback", attempt)
                t = rb
                attempt += 1
                spec = plan.retry if plan.retry is not None else plan.first
        events.sort(key=lambda e: (e.tick, e.node_id, e.order))
        return events

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

    def behavior_for(self, plan: NodePlan, spec: AttemptSpec, tick: int, node_id: str):
        corrupted = self.active_targets("CorruptedFeed", tick)
        stale = self.active_targets("StaleCache", tick)
        override = self.override_for(node_id, tick)

        def scripted(run: NodeRun) -> BehaviorOutcome:
            evidence = []
            for ev_spec in spec.evidence:
                endpoint = ev_spec["endpoint_id"]
                declared = _digest_of(f"{self.config.seed}:{node_id}:{endpoint}:{ev_spec['call_index']}")
                observed = declared
                if endpoint in corrupted:
                    observed = _digest_of(declared + ":corrupted")
                scope_ok = bool(ev_spec.get("contract_scope_ok", True))
                if ev_spec.get("category") == "cache_read" and run.assignee in stale:
                    scope_ok = False
                evidence.append(
                    ToolCallEvidence(
                        call_index=int(ev_spec["call_index"]),
                        endpoint_id=endpoint,
                        category=ev_spec.get("category", "agent-action"),
                        declared_digest=declared,
                        observed_digest=observed,
                        contract_scope_ok=scope_ok,
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
                outcome = _named_override(override, outcome, run)
            self.node_outputs[node_id] = outcome.output
            return outcome

        return scripted

    def on_start(self, event: _Planned, run: NodeRun, plan: NodePlan) -> None:
        deps_ok = all(
            self.runs[d].state in (NodeState.VERIFIED, NodeState.COMPLETED)
            for d in self.dag.dependencies(event.node_id)
        )
        if run.state is not NodeState.PENDING or not deps_ok:
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

    def on_execute(self, event: _Planned, run: NodeRun, plan: NodePlan) -> None:
        if run.state is not NodeState.RUNNING or run.attempts != event.attempt:
            return
        behavior = self.behavior_for(plan, event.spec, event.tick, event.node_id)
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

    def on_probe(self, event: _Planned, run: NodeRun, plan: NodePlan) -> None:
        if run.state is not NodeState.RUNNING or run.attempts != event.attempt:
            return
        assert plan.probe is not None
        value = (
            plan.probe.corrupt_value
            if self.probe_corrupt(plan, event.tick, run.assignee)
            else plan.probe.clean_value
        )
        telemetry = Telemetry(
            node_id=event.node_id,
            did=run.assignee,
            tokens_spent=0,
            tool_calls=0,
            messages=0,
            metrics={plan.probe.metric: value},
            output_digest="probe",
        )
        mean, std = self.registry.baseline(run.assignee, plan.probe.metric)
        verdict = guardian_check(
            telemetry,
            Baseline(metric=plan.probe.metric, mean=mean, std=std),
            run=run,
            z_threshold=self.config.guardian.z_threshold,
            tick=event.tick,
            ledger=self.ledger,
        )
        if not isinstance(verdict, Ok):
            self.note_freeze(verdict)
            self.escalate_after_freeze(event.tick)

    def on_rollback(self, event: _Planned, run: NodeRun, plan: NodePlan) -> None:
        if run.state is not NodeState.FROZEN:
            return
        rollback(run, tick=event.tick, ledger=self.ledger, mission_id=self.config.mission_id)
        # a Restrictive escalation halves the headroom once the meter is live again
        if self.escalations and self.escalations[-1]["tier"] == "Restrictive":
            run.meter.restrict_tool_budget()

    def on_verify(self, event: _Planned, run: NodeRun, plan: NodePlan) -> None:
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
            flagged = list(plan.screen.get("flagged", ()))
            affected = int(plan.screen["affected"])
            self.screening[event.node_id] = {
                "affected": affected,
                "cleared": affected - len(flagged),
                "flagged": len(flagged),
                "flagged_ids": flagged,
            }
        if not passed:
            self.note_freeze(run.freeze_events[-1])
            self.escalate_after_freeze(event.tick)

    def on_quarantine(self, event: _Planned, run: NodeRun, plan: NodePlan) -> None:
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

    def process_events(self, events: Sequence[_Planned]) -> None:
        handlers: dict[str, Callable[[_Planned, NodeRun, NodePlan], None]] = {
            "start": self.on_start,
            "execute": self.on_execute,
            "probe": self.on_probe,
            "rollback": self.on_rollback,
            "verify": self.on_verify,
            "quarantine": self.on_quarantine,
        }
        for event in events:
            if self.mission_frozen:
                break
            self.advance(event.tick)
            handlers[event.action](event, self.runs[event.node_id], self.config.plans[event.node_id])
            self.flush_moves(event.tick)

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
            try:
                escrow_state = self.treasury.pool(self.config.mission_id).escrow_state
            except KeyError:
                escrow_state = "Unfunded"
            self.token_flows = {
                "pool": {"total": econ.pool_total, "escrow_state": escrow_state},
                "rewards": {},
                "distributed_total": "0.00",
                "slash_total": "0.00",
            }
            return
        tick = self.completed_tick + self.config.settlement_delay_ticks
        self.advance(tick)
        weights = {did: Decimal(w) for did, w in econ.reward_weights.items()}
        shares = self.treasury.distribute(self.config.mission_id, weights)
        pool = self.treasury.pool(self.config.mission_id)
        for did, bonus in sorted(econ.reputation_bonus.items()):
            profile = self.registry.get(did)
            entry = {"before": str(profile.reputation)}
            self.registry.update_reputation(did, Decimal(bonus))
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

    def order_by_ref(self, ref: str) -> Mapping[str, Any]:
        for order in self.config.orders:
            if order["order_id"] == ref:
                return order
        raise KeyError(ref)

    def regression_orders(self) -> list[Mapping[str, Any]]:
        return [self.order_by_ref(ref) for ref in self.config.regression_refs]

    def release(self, node_id: str, items: Sequence[str], resolution: str, tick: int) -> int:
        """Release a node's quarantined items and trace it; returns the number
        of items still held across all nodes."""
        release_quarantined(
            self.runs[node_id],
            items,
            resolution=resolution,
            tick=tick,
            ledger=self.ledger,
            mission_id=self.config.mission_id,
        )
        self.quarantine_trace.append(
            {
                "tick": tick,
                "action": "release",
                "node_id": node_id,
                "items": sorted(items),
                "resolution": resolution,
            }
        )
        return sum(len(r.quarantined_items) for r in self.runs.values())

    def handle_cross_node(self, event: TimelineEvent) -> None:
        params = event.params
        amount, tax = self.treasury.settle_cross_node(
            params.get("payer", self.config.economy.org_account),
            params["provider_account"],
            params["amount"],
            self.config.economy.cross_tax_rate,
            mission_id=self.config.mission_id,
        )
        released = list(params.get("release", ()))
        remaining = None
        if released:
            resolution = params.get("resolution", "cross-node-attestation")
            remaining = self.release(params["node_id"], released, resolution, event.tick)
        self.cross_node_block = {
            "tick": event.tick,
            "amount": fmt(amount),
            "tax": fmt(tax),
            "payer": params.get("payer", self.config.economy.org_account),
            "provider_account": params["provider_account"],
            "provider_did": params.get("provider_did"),
            "beneficiary_refs": list(params.get("beneficiary_refs", ())),
            "released": sorted(released),
            "remaining_after": remaining,
        }

    def handle_correction_loop(self, event: TimelineEvent) -> None:
        params = event.params
        iraw = params["incident"]
        probe_raw = iraw.get("probe", {})
        incident = Incident(
            incident_id=iraw["incident_id"],
            mission_id=self.config.mission_id,
            cause=iraw["cause"],
            probe=IncidentProbe(
                digest_mismatch=bool(probe_raw.get("digest_mismatch", False)),
                scope_violation=bool(probe_raw.get("scope_violation", False)),
                payload_equals=dict(probe_raw.get("payload_equals", {})),
            ),
        )
        try:
            forensic = post_mortem(self.ledger, incident)
        except Inconclusive:
            self.failures.append(f"post-mortem inconclusive for {incident.incident_id}")
            return
        amendment = params["amendment"]
        loop = run_correction_loop(
            incident,
            forensic,
            self.charter,
            treasury=self.treasury,
            registry=self.registry,
            rubric=params["rubric"],
            amendment=amendment,
            regression_orders=self.regression_orders(),
            ledger=self.ledger,
            start_tick=event.tick,
        )
        if loop.charter.version != self.charter.version:
            self.amendments.append(
                {
                    "tick": event.tick,
                    "from_version": self.charter.version,
                    "to_version": loop.charter.version,
                    "rule_ids": sorted(r.rule_id for r in amendment),
                    "source": "correction-loop",
                }
            )
        self.charter = loop.charter
        stages = IncidentProbe(
            kinds=(RecordKind.CORRECTION_STAGE,), payload_equals={"incident_id": incident.incident_id}
        )
        stage_seqs = [r.seq for r, _ in stages.search(self.ledger)]
        sanction = dict(loop.step_a) if isinstance(loop.step_a, Mapping) else {"note": str(loop.step_a)}
        if sanction.get("slash") not in (None, "0.00") and self.token_flows:
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
            case_id=params.get("case_id"),
            complainant=params.get("complainant"),
            treasury=self.treasury,
            ledger=self.ledger,
        )
        self.dispute_case = case
        order = self.order_by_ref(params["order_ref"]) if "order_ref" in params else None
        pre = prescreen(None, None, self.charter, order=order) if order else None

        self.advance(t0 + int(params.get("open_offset", 600)))
        check_deadline(case, self.now, ledger=self.ledger)
        advance_dispute(case, OpenEvidence(), tick=self.now, ledger=self.ledger)
        query = params.get("evidence_query")
        if query:
            evidence = IncidentProbe(kinds=(RecordKind.TOOL_CALL,), payload_equals=query)
            attach_evidence(case, [r.seq for r, _ in evidence.search(self.ledger)])
        self.advance(t0 + int(params.get("deliberate_offset", 86_400)))
        advance_dispute(case, BeginDeliberation(), tick=self.now, ledger=self.ledger)

        verdict = params["verdict"]
        self.advance(t0 + int(params.get("verdict_offset", 172_800)))
        verdict_tick = self.now
        advance_dispute(
            case, IssueVerdict(verdict), tick=self.now, ledger=self.ledger, treasury=self.treasury
        )

        if case.state is DisputeState.AMENDMENT_PENDING and verdict.proposed_rules:
            self.advance(verdict_tick + 600)
            amended = amend_charter(
                self.charter,
                verdict.proposed_rules,
                regression_orders=self.regression_orders(),
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
            self.advance(t0 + int(params.get("ratify_offset", 244_800)))
            advance_dispute(case, Ratify(), tick=self.now, ledger=self.ledger)

        case.precedent_ref = params.get("precedent_id") or None

        post = prescreen(None, None, self.charter, order=order) if order else None
        released = []
        remaining = None
        release = params.get("release")
        if release and isinstance(post, Authorized):
            released = sorted(release["items"])
            resolution = release.get("resolution", "dispute-verdict")
            remaining = self.release(release["node_id"], release["items"], resolution, self.now)

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
            "released": released,
            "remaining_after": remaining,
        }

    def run_timeline(self) -> None:
        handlers: dict[str, Callable[[TimelineEvent], None]] = {
            "cross_node_attestation": self.handle_cross_node,
            "correction_loop": self.handle_correction_loop,
            "dispute": self.handle_dispute,
        }
        for event in self.config.timeline:
            handler = handlers.get(event.kind)
            if handler is None:
                self.failures.append(f"unknown timeline event kind {event.kind!r}")
                continue
            self.advance(event.tick)
            handler(event)

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

    def execute(self) -> RunReport:
        self.register_roster()
        dag, assignments = self.legislate()
        if dag is None:
            return self.build_report()
        self.dag = dag
        self.runs = make_runs(dag, assignments)
        for run in self.runs.values():
            run.journal = self.journal
        self.process_events(self.plan_events(dag, assignments))
        self.complete_mission()
        self.settle()
        self.run_timeline()
        return self.build_report()


def run(config: ScenarioConfig) -> RunReport:
    """Execute one scenario end to end. Failures surface inside the report
    (assertion_failures), never as exceptions."""
    return _Driver(config).execute()


CASE_STUDY_FIXTURE = "case-study.json"
FAULT_DRILL_FIXTURE = "fault-drill.json"
STRESS_WINDOW_FIXTURE = "stress-window.json"


def replay_case_study() -> RunReport:
    return run(load_bundled_scenario(CASE_STUDY_FIXTURE))


def replay_fault_drill() -> RunReport:
    return run(load_bundled_scenario(FAULT_DRILL_FIXTURE))
