"""Mission legislation: charter rules, job decomposition into a task DAG,
prescreening, sealed-bid assignment, and contract deployment records.

The charter is a versioned list of predicate rules over three subject scopes
(manifest, order, incident). Decomposition validates the template graph before
any contract exists; prescreening gates the mission against the charter and
mints the authorization token that contract generation requires.
"""
from __future__ import annotations

import hashlib
from decimal import Decimal, InvalidOperation
from typing import Iterable, Mapping, NamedTuple, Sequence

from .economy import split_pool
from .errors import NotFound, ValidationError
from .identity import CertState, IdentityRegistry
from .ledger import AuditLedger, RecordKind, canonical
from .money import fmt, nxc


# -- charter ----------------------------------------------------------------

_NUMERIC_OPS = {"lt", "lte", "gt", "gte"}
_ALL_OPS = _NUMERIC_OPS | {"eq", "ne", "present", "absent"}
_SCOPES = {"manifest", "order", "output", "incident"}
_ACTIONS = {"Reject", "Escalate"}
_COMPARATORS = {"gt", "gte", "lt", "lte", "eq", "ne", "abs_gt", "missing_field"}

# op pairs that partition every subject between two rules
_COMPLEMENT = {
    ("gt", "lte"), ("lte", "gt"), ("gte", "lt"), ("lt", "gte"),
    ("eq", "ne"), ("ne", "eq"), ("present", "absent"), ("absent", "present"),
}


def _as_decimal(value) -> Decimal | None:
    if isinstance(value, bool) or value is None:
        return None
    try:
        return Decimal(str(value))
    except InvalidOperation:
        return None


class Predicate(NamedTuple):
    field: str
    op: str
    value: object = None
    unless: "Predicate | None" = None

    def triggered(self, subject: Mapping[str, object]) -> bool:
        hit = self._base(subject)
        if hit and self.unless is not None and self.unless.triggered(subject):
            return False
        return hit

    def _base(self, subject: Mapping[str, object]) -> bool:
        present = self.field in subject
        if self.op == "absent":
            return not present
        if self.op == "present":
            return present
        if not present:
            return False
        actual = subject[self.field]
        if self.op in _NUMERIC_OPS:
            left, right = _as_decimal(actual), _as_decimal(self.value)
            if left is None or right is None:
                return False
            return {
                "lt": left < right,
                "lte": left <= right,
                "gt": left > right,
                "gte": left >= right,
            }[self.op]
        left, right = _as_decimal(actual), _as_decimal(self.value)
        if left is not None and right is not None:
            equal = left == right
        else:
            equal = actual == self.value
        return equal if self.op == "eq" else not equal

    def to_payload(self) -> dict:
        payload: dict = {"field": self.field, "op": self.op, "value": self.value}
        if self.unless is not None:
            payload["unless"] = self.unless.to_payload()
        return payload


class Rule(NamedTuple):
    rule_id: str
    scope: str
    predicate: Predicate
    action: str = "Reject"
    description: str = ""

    def to_payload(self) -> dict:
        return {
            "rule_id": self.rule_id,
            "scope": self.scope,
            "predicate": self.predicate.to_payload(),
            "action": self.action,
            "description": self.description,
        }


class Charter(NamedTuple):
    version: int
    rules: tuple[Rule, ...]

    def digest(self) -> str:
        body = {
            "version": self.version,
            "rules": [r.to_payload() for r in sorted(self.rules, key=lambda r: r.rule_id)],
        }
        return "sha256:" + hashlib.sha256(canonical(body)).hexdigest()

    def rules_for_scope(self, scope: str) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.scope == scope)

    def rule(self, rule_id: str) -> Rule:
        for r in self.rules:
            if r.rule_id == rule_id:
                return r
        raise KeyError(rule_id)


def find_conflicts(charter: Charter, new_rules: Sequence[Rule]) -> list[tuple[str, str]]:
    """Pairs (existing_id, new_id) whose predicates partition every subject
    between two blocking rules, leaving no passable input on that field."""
    conflicts = []
    for new in new_rules:
        if new.predicate.unless is not None:
            continue
        for old in charter.rules:
            if old.rule_id == new.rule_id or old.scope != new.scope:
                continue
            if old.predicate.unless is not None:
                continue
            if old.predicate.field != new.predicate.field:
                continue
            if (old.predicate.op, new.predicate.op) not in _COMPLEMENT:
                continue
            if old.predicate.op in ("present", "absent") or (
                old.predicate.value == new.predicate.value
            ):
                conflicts.append((old.rule_id, new.rule_id))
    return conflicts


def apply_amendment(charter: Charter, new_rules: Sequence[Rule]) -> Charter:
    """New charter version with same-id rules replaced and others appended.
    Conflict checking is the adjudicator's job, not done here."""
    merged = {r.rule_id: r for r in charter.rules}
    for r in new_rules:
        merged[r.rule_id] = r
    return Charter(version=charter.version + 1, rules=tuple(merged.values()))


# -- job structure ----------------------------------------------------------


class SlashingCondition(NamedTuple):
    metric: str
    comparator: str
    threshold: object = None

    def violated(self, metrics: Mapping[str, object]) -> bool:
        if self.comparator == "missing_field":
            return self.metric not in metrics or metrics[self.metric] in (None, "")
        if self.metric not in metrics:
            return False
        actual = _as_decimal(metrics[self.metric])
        limit = _as_decimal(self.threshold)
        if actual is None or limit is None:
            if self.comparator == "eq":
                return metrics[self.metric] == self.threshold
            if self.comparator == "ne":
                return metrics[self.metric] != self.threshold
            return False
        return {
            "gt": actual > limit,
            "gte": actual >= limit,
            "lt": actual < limit,
            "lte": actual <= limit,
            "eq": actual == limit,
            "ne": actual != limit,
            "abs_gt": abs(actual) > limit,
        }[self.comparator]


class TaskTemplate(NamedTuple):
    template_id: str
    depends_on: tuple[str, ...]
    token_cap: int
    slashing_condition: SlashingCondition
    tool_call_cap: int = 40
    message_cap: int = 120
    gate_check_id: str | None = None
    seals_provenance: bool = False


class JobSpec(NamedTuple):
    job_id: str
    order_count: int
    notional_value: Decimal
    currency: str
    task_templates: tuple[TaskTemplate, ...]


def _grouped(pairs: Iterable[tuple[str, str]]) -> dict[str, tuple[str, ...]]:
    """Each pair's second id under its first, sorted."""
    groups: dict[str, list[str]] = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return {key: tuple(sorted(values)) for key, values in groups.items()}


class TaskDAG:
    """A validated template graph. It never changes, so its adjacency and
    order are built once, at construction; a cycle raises `ValidationError`."""

    __slots__ = ("mission_id", "nodes", "edges", "_dependents", "_dependencies", "_order")

    def __init__(
        self, mission_id: str, nodes: Mapping[str, TaskTemplate], edges: tuple[tuple[str, str], ...]
    ) -> None:
        self.mission_id = mission_id
        self.nodes = nodes
        self.edges = edges
        self._dependents = _grouped(edges)
        self._dependencies = _grouped((dst, src) for src, dst in edges)
        self._order = self._kahn()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskDAG):
            return NotImplemented
        return (self.mission_id, self.nodes, self.edges) == (other.mission_id, other.nodes, other.edges)

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, node_id: str) -> TaskTemplate:
        return self.nodes[node_id]

    def dependents(self, node_id: str) -> tuple[str, ...]:
        return self._dependents.get(node_id, ())

    def dependencies(self, node_id: str) -> tuple[str, ...]:
        return self._dependencies.get(node_id, ())

    def topological_order(self) -> tuple[str, ...]:
        return self._order

    def _kahn(self) -> tuple[str, ...]:
        indegree = {n: 0 for n in self.nodes}
        for _, dst in self.edges:
            indegree[dst] += 1
        ready = sorted(n for n, d in indegree.items() if d == 0)
        order: list[str] = []
        while ready:
            current = ready.pop(0)
            order.append(current)
            changed = False
            for nxt in self.dependents(current):
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    ready.append(nxt)
                    changed = True
            if changed:
                ready.sort()
        if len(order) != len(self.nodes):
            raise ValidationError("dependency cycle survived decomposition")
        return tuple(order)

    def sink_id(self) -> str:
        sources = {src for src, _ in self.edges}
        sinks = [n for n in self.nodes if n not in sources]
        return sinks[0]


def decompose(job: JobSpec, *, mission_id: str, ledger: AuditLedger) -> TaskDAG:
    if not job.task_templates:
        raise ValidationError("job has no task templates")
    seen: dict[str, TaskTemplate] = {}
    edges: list[tuple[str, str]] = []
    for template in job.task_templates:
        tid = template.template_id
        if tid in seen:
            raise ValidationError(f"duplicate template id {tid}")
        for dep in template.depends_on:
            if dep == tid:
                raise ValidationError(f"template {tid} depends on itself")
            if dep not in seen:
                raise ValidationError(
                    f"template {tid} depends on {dep}, which is not an earlier template"
                )
            edges.append((dep, tid))
        if template.token_cap <= 0:
            raise ValidationError(f"template {tid} has no token cap")
        if template.tool_call_cap <= 0 or template.message_cap <= 0:
            raise ValidationError(f"template {tid} has zero interaction caps")
        seen[tid] = template
    sources = {src for src, _ in edges}
    sinks = [tid for tid in seen if tid not in sources]
    if len(sinks) != 1:
        raise ValidationError(f"expected exactly one sink node, found {sorted(sinks)}")
    if not seen[sinks[0]].seals_provenance:
        raise ValidationError(f"sink node {sinks[0]} does not seal provenance")
    dag = TaskDAG(mission_id=mission_id, nodes=dict(seen), edges=tuple(edges))
    ledger.append(
        RecordKind.MISSION_LEGISLATED,
        "legislation",
        {
            "mission_id": mission_id,
            "job_id": job.job_id,
            "node_ids": sorted(seen),
            "edge_count": len(edges),
        },
    )
    return dag


class MissionManifest(NamedTuple):
    mission_id: str
    job_id: str
    value_ceiling: Decimal
    charter_digest: str
    reward_pool_total: Decimal
    tax_rates: Mapping[str, str]
    authorized_principals: tuple[str, ...]
    notional_value: Decimal
    currency: str
    order_count: int

    @staticmethod
    def for_job(
        job: JobSpec,
        charter: Charter,
        *,
        mission_id: str,
        value_ceiling,
        reward_pool_total,
        tax_rates: Mapping[str, str],
        authorized_principals: Sequence[str],
    ) -> "MissionManifest":
        return MissionManifest(
            mission_id=mission_id,
            job_id=job.job_id,
            value_ceiling=Decimal(str(value_ceiling)),
            charter_digest=charter.digest(),
            reward_pool_total=nxc(reward_pool_total),
            tax_rates=dict(tax_rates),
            authorized_principals=tuple(authorized_principals),
            notional_value=job.notional_value,
            currency=job.currency,
            order_count=job.order_count,
        )

    def to_subject(self) -> dict:
        return {
            "mission_id": self.mission_id,
            "job_id": self.job_id,
            "notional_value": str(self.notional_value),
            "currency": self.currency,
            "order_count": self.order_count,
            "value_ceiling": str(self.value_ceiling),
            "reward_pool_total": fmt(self.reward_pool_total),
        }


# -- prescreening -----------------------------------------------------------


class Authorized(NamedTuple):
    token: str


class Rejected(NamedTuple):
    rule_ids: tuple[str, ...]


class Escalated(NamedTuple):
    reason: str


def _mint_token(charter: Charter, subject: Mapping) -> str:
    body = {"charter": charter.digest(), "subject": dict(subject)}
    return "auth:" + hashlib.sha256(canonical(body)).hexdigest()[:32]


def prescreen(
    manifest: MissionManifest | None,
    dag: TaskDAG | None,
    charter: Charter,
    *,
    order: Mapping | None = None,
    ledger: AuditLedger | None = None,
) -> Authorized | Rejected | Escalated:
    """Evaluate the charter against the mission manifest and, when given, a
    single order subject. Escalation outranks rejection; an empty charter or
    one with no triggered rule authorizes and mints the token contract
    generation needs. The decision is recorded only when a ledger is given:
    a re-screen that only asks runs without one."""
    escalations: list[str] = []
    rejections: list[str] = []
    subjects: list[Mapping] = []
    if manifest is not None:
        subject = manifest.to_subject()
        subjects.append(subject)
        for rule in charter.rules_for_scope("manifest"):
            if rule.predicate.triggered(subject):
                (escalations if rule.action == "Escalate" else rejections).append(rule.rule_id)
    if order is not None:
        subjects.append(order)
        for rule in charter.rules_for_scope("order"):
            if rule.predicate.triggered(order):
                (escalations if rule.action == "Escalate" else rejections).append(rule.rule_id)
    if escalations:
        decision: Authorized | Rejected | Escalated = Escalated(reason=escalations[0])
    elif rejections:
        decision = Rejected(rule_ids=tuple(rejections))
    else:
        merged: dict = {}
        for subject in subjects:
            merged.update(subject)
        decision = Authorized(token=_mint_token(charter, merged))
    if ledger is None:
        return decision
    payload: dict = {"charter_version": charter.version}
    if manifest is not None:
        payload["mission_id"] = manifest.mission_id
    if order is not None and "order_id" in order:
        payload["order_id"] = order["order_id"]
    if isinstance(decision, Authorized):
        payload["decision"] = "Authorized"
        payload["token"] = decision.token
    elif isinstance(decision, Rejected):
        payload["decision"] = "Rejected"
        payload["rule_ids"] = list(decision.rule_ids)
    else:
        payload["decision"] = "Escalated"
        payload["reason"] = decision.reason
    ledger.append(RecordKind.PRESCREEN_DECISION, "charter-gate", payload)
    return decision


# -- bidding ----------------------------------------------------------------


class Bid(NamedTuple):
    did: str
    node_id: str
    accuracy_sla: Decimal
    completion_ticks: int


class Assignment(NamedTuple):
    node_id: str
    assignee: str
    standby: str | None
    accuracy_sla: Decimal
    completion_ticks: int
    consensus_sig: str


def run_bidding(
    node_id: str,
    bids: Sequence[Bid],
    registry: IdentityRegistry,
    *,
    mission_id: str,
    ledger: AuditLedger,
    stake_floor="100.00",
    mediator: str = "consensus-01",
    sig_stamp: str = "t0",
) -> Assignment:
    """Deterministic sealed-bid auction. Eligible bidders are fully certified
    and staked at or above the floor; ranking is lexicographic on higher
    accuracy, then faster completion, then higher reputation, then lower did."""
    floor = nxc(stake_floor)
    eligible = []
    for bid in bids:
        if bid.node_id != node_id or bid.did not in registry:
            continue
        profile = registry.get(bid.did)
        if profile.cert_state is not CertState.FULLY_CERTIFIED:
            continue
        if profile.stake < floor:
            continue
        eligible.append((bid, profile))
    if not eligible:
        raise NotFound(f"no eligible bid for {node_id}")
    eligible.sort(
        key=lambda pair: (
            -pair[0].accuracy_sla,
            pair[0].completion_ticks,
            -pair[1].reputation,
            pair[0].did,
        )
    )
    winner = eligible[0][0]
    standby = eligible[1][0].did if len(eligible) > 1 else None
    assignment = Assignment(
        node_id=node_id,
        assignee=winner.did,
        standby=standby,
        accuracy_sla=winner.accuracy_sla,
        completion_ticks=winner.completion_ticks,
        consensus_sig=f"sig:{mediator}:{node_id.lower()}:{sig_stamp}",
    )
    ledger.append(
        RecordKind.BID_ACCEPTED,
        mediator,
        {
            "node_id": node_id,
            "assignee": winner.did,
            "standby": standby,
            "accuracy_sla": str(winner.accuracy_sla),
            "completion_ticks": winner.completion_ticks,
            "consensus_sig": assignment.consensus_sig,
            "mission_id": mission_id,
        },
    )
    return assignment


# -- contract deployment ----------------------------------------------------

_CONTRACTS = ("master", "task", "payment", "collaboration", "guardian", "verification", "gate", "manager")


def _address(mission_id: str, name: str) -> str:
    return "0x" + hashlib.sha256(
        canonical({"mission": mission_id, "contract": name})
    ).hexdigest()[:40]


def generate_contract_stack(
    manifest: MissionManifest,
    dag: TaskDAG,
    assignments: Mapping[str, Assignment],
    *,
    authorization_token: str,
    registry: IdentityRegistry,
    ledger: AuditLedger,
) -> dict[str, str]:
    """Deploy the mission's contracts once every node is assigned to an agent
    that is not revoked: one CONTRACT_DEPLOYED record per contract. Returns
    contract name -> address."""
    if not authorization_token:
        raise ValidationError("contract generation requires a prescreen authorization token")
    missing = sorted(n for n in dag.nodes if n not in assignments)
    if missing:
        raise ValidationError(f"unassigned nodes: {missing}")
    for node_id, assignment in assignments.items():
        profile = registry.get(assignment.assignee)
        if profile.cert_state is CertState.REVOKED:
            raise ValidationError(
                f"{assignment.assignee} is revoked and cannot hold {node_id}"
            )
    _, _, net = split_pool(
        manifest.reward_pool_total,
        manifest.tax_rates.get("protocol", "0"),
        manifest.tax_rates.get("infrastructure", "0"),
    )
    participants = sorted({a.assignee for a in assignments.values()})
    addresses = {name: _address(manifest.mission_id, name) for name in _CONTRACTS}
    for name, address in addresses.items():
        payload: dict = {"mission_id": manifest.mission_id, "contract": name, "address": address}
        if name == "payment":
            payload["net_escrow"] = fmt(net)
        if name == "collaboration":
            payload["participants"] = participants
        ledger.append(RecordKind.CONTRACT_DEPLOYED, "legislation", payload)
    return addresses
