"""Fulfillment engine primitives: node lifecycle states, budget meters,
progress gates, guardian anomaly checks, graduated escalation, checkpoint
rollback, quarantine, and the last-mile output filter.

Everything here is a pure state-machine operation over explicit runtime
objects; the event loop that sequences them lives in the harness. Failure is
a value wherever the workflow continues (gate failure, freeze); it is an
exception only where the caller broke a precondition.
"""
from __future__ import annotations

import hashlib
from decimal import Decimal, ROUND_HALF_UP
from enum import Enum, IntEnum
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import BudgetExceeded, CapBreached, InvalidTransition, NotFound, ValidationError
from .ledger import AuditLedger, RecordKind, canonical
from .legislation import Charter, TaskDAG, TaskTemplate


class NodeState(str, Enum):
    PENDING = "Pending"
    READY = "Ready"
    RUNNING = "Running"
    VERIFIED = "Verified"
    FROZEN = "Frozen"
    QUARANTINED = "Quarantined"
    COMPLETED = "Completed"
    FAILED = "Failed"


LEGAL_TRANSITIONS: dict[NodeState, frozenset[NodeState]] = {
    NodeState.PENDING: frozenset({NodeState.READY}),
    NodeState.READY: frozenset({NodeState.RUNNING}),
    NodeState.RUNNING: frozenset(
        {NodeState.VERIFIED, NodeState.FROZEN, NodeState.FAILED, NodeState.QUARANTINED}
    ),
    NodeState.VERIFIED: frozenset({NodeState.COMPLETED}),
    # Ready is the no-checkpoint restart path out of a freeze
    NodeState.FROZEN: frozenset({NodeState.RUNNING, NodeState.READY, NodeState.FAILED}),
    NodeState.QUARANTINED: frozenset({NodeState.RUNNING, NodeState.FAILED}),
    NodeState.COMPLETED: frozenset(),
    NodeState.FAILED: frozenset(),
}


class BudgetMeter:
    __slots__ = ("token_cap", "tool_call_cap", "message_cap", "tokens_spent", "tool_calls", "messages")

    def __init__(self, token_cap: int, tool_call_cap: int = 40, message_cap: int = 120) -> None:
        self.token_cap, self.tool_call_cap, self.message_cap = token_cap, tool_call_cap, message_cap
        self.tokens_spent = self.tool_calls = self.messages = 0

    def charge(self, *, tokens: int = 0, tool_calls: int = 0, messages: int = 0) -> None:
        if min(tokens, tool_calls, messages) < 0:
            raise ValidationError("meter charges must be non-negative")
        self.tokens_spent += tokens
        self.tool_calls += tool_calls
        self.messages += messages
        if self.tokens_spent > self.token_cap:
            raise BudgetExceeded(
                f"{self.tokens_spent} tokens against a cap of {self.token_cap}"
            )
        if self.tool_calls > self.tool_call_cap:
            raise CapBreached(f"tool call {self.tool_calls} exceeds cap {self.tool_call_cap}")
        if self.messages > self.message_cap:
            raise CapBreached(f"message {self.messages} exceeds cap {self.message_cap}")

    def restrict_tool_budget(self) -> int:
        """Restrictive-tier sanction: halve the remaining tool-call headroom."""
        remaining = self.tool_call_cap - self.tool_calls
        self.tool_call_cap -= remaining // 2
        return self.tool_call_cap

    def reset(self) -> None:
        self.tokens_spent = 0
        self.tool_calls = 0
        self.messages = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "tokens_spent": self.tokens_spent,
            "tool_calls": self.tool_calls,
            "messages": self.messages,
        }


class Telemetry(NamedTuple):
    node_id: str
    did: str
    tokens_spent: int
    tool_calls: int
    messages: int
    metrics: Mapping[str, float]
    output_digest: str


class ToolCallEvidence(NamedTuple):
    call_index: int
    endpoint_id: str
    category: str
    declared_digest: str
    observed_digest: str
    contract_scope_ok: bool = True


class BehaviorOutcome(NamedTuple):
    metrics: Mapping[str, float]
    tokens_spent: int
    tool_calls: int
    messages: int
    output: Mapping[str, object]
    evidence: tuple[ToolCallEvidence, ...] = ()


class ProofOfProgress(NamedTuple):
    node_id: str
    output_digest: str
    gate_checks: tuple[tuple[str, bool], ...]
    cosigner: str
    tick: int


class GateFailure(NamedTuple):
    check_ids: tuple[str, ...]


class FreezeEvent(NamedTuple):
    scope: str  # "Targeted" | "MissionWide"
    node_id: str | None
    trigger: str
    tick: int
    z_value: float | None = None


class Checkpoint(NamedTuple):
    node_id: str
    snapshot_digest: str
    tick: int


class EscalationTier(IntEnum):
    ADVISORY = 1
    RESTRICTIVE = 2
    CIRCUIT_BREAKER = 3

    @property
    def label(self) -> str:
        return {1: "Advisory", 2: "Restrictive", 3: "CircuitBreaker"}[int(self)]


class Ok(NamedTuple):
    z_value: float


class Baseline(NamedTuple):
    metric: str
    mean: float
    std: float


class Pass:
    """The output filter's clean verdict: no output-scope rule triggered."""

    __slots__ = ()


class Blocked(NamedTuple):
    rule_ids: tuple[str, ...]


class NodeRun:
    """Mutable per-node runtime state owned by the event loop."""

    __slots__ = (
        "node_id", "template", "assignee", "state", "meter", "telemetry", "checkpoint", "items",
        "quarantined_items", "attempts", "verified_tick", "freeze_events", "journal",
    )

    def __init__(self, node_id: str, template: TaskTemplate, assignee: str) -> None:
        self.node_id, self.template, self.assignee = node_id, template, assignee
        self.state = NodeState.PENDING
        self.meter = BudgetMeter(template.token_cap, template.tool_call_cap, template.message_cap)
        self.telemetry: Telemetry | None = None
        self.checkpoint: Checkpoint | None = None
        self.items: set[str] = set()
        self.quarantined_items: set[str] = set()
        self.attempts = 0
        self.verified_tick: int | None = None
        self.freeze_events: list[FreezeEvent] = []
        # node id -> first from-state since the owner's last flush; the driver
        # shares one dict across its runs so a move is recorded where it happens
        self.journal: dict[str, NodeState] | None = None


def transition(run: NodeRun, new_state: NodeState) -> None:
    if new_state not in LEGAL_TRANSITIONS[run.state]:
        raise InvalidTransition(f"{run.node_id}: {run.state.value} -> {new_state.value}")
    if run.journal is not None:
        run.journal.setdefault(run.node_id, run.state)
    run.state = new_state


def make_runs(dag: TaskDAG, assignments: Mapping[str, object]) -> dict[str, NodeRun]:
    return {
        node_id: NodeRun(
            node_id=node_id,
            template=dag.node(node_id),
            assignee=assignments[node_id].assignee,
        )
        for node_id in dag.topological_order()
    }


def states_snapshot(runs: Mapping[str, NodeRun]) -> dict[str, str]:
    return {node_id: run.state.value for node_id, run in sorted(runs.items())}


def _freeze(
    run: NodeRun, trigger: str, tick: int, *,
    ledger: AuditLedger,
    z_value: float | None = None,
) -> FreezeEvent:
    transition(run, NodeState.FROZEN)
    event = FreezeEvent(
        scope="Targeted", node_id=run.node_id, trigger=trigger, tick=tick, z_value=z_value
    )
    run.freeze_events.append(event)
    payload: dict[str, object] = {
        "scope": "Targeted",
        "node_id": run.node_id,
        "trigger": trigger,
        "tick": tick,
    }
    if z_value is not None:
        payload["z_value"] = round(z_value, 6)
    ledger.append(RecordKind.FREEZE_EVENT, "guardian", payload, tick=tick)
    return event


def freeze_mission(
    runs: Mapping[str, NodeRun], trigger: str, tick: int, *, ledger: AuditLedger
) -> FreezeEvent:
    """Circuit-breaker action: freeze every running node; idle nodes are held
    by the scheduler flag the caller flips alongside this."""
    for run in sorted(runs.values(), key=lambda r: r.node_id):
        if run.state is NodeState.RUNNING:
            transition(run, NodeState.FROZEN)
            run.freeze_events.append(
                FreezeEvent(scope="MissionWide", node_id=run.node_id, trigger=trigger, tick=tick)
            )
    ledger.append(
        RecordKind.FREEZE_EVENT,
        "guardian",
        {"scope": "MissionWide", "trigger": trigger, "tick": tick},
        tick=tick,
    )
    return FreezeEvent(scope="MissionWide", node_id=None, trigger=trigger, tick=tick)


def execute_node(
    run: NodeRun,
    behavior: Callable[[NodeRun], BehaviorOutcome],
    *,
    ledger: AuditLedger,
    mission_id: str,
    tick: int = 0,
) -> Telemetry:
    """Run the node's scripted behavior under its own meter. A budget or cap
    breach freezes the node and re-raises; the guardian adjudicates after."""
    if run.state is not NodeState.RUNNING:
        raise InvalidTransition(f"{run.node_id} must be Running, is {run.state.value}")
    outcome = behavior(run)
    node_id, assignee, append = run.node_id, run.assignee, ledger.append
    for call_index, endpoint_id, category, declared, observed, scope_ok in outcome.evidence:
        append(
            RecordKind.TOOL_CALL,
            assignee,
            {
                "node_id": node_id,
                "did": assignee,
                "call_index": call_index,
                "endpoint_id": endpoint_id,
                "category": category,
                "declared_digest": declared,
                "observed_digest": observed,
                "contract_scope_ok": scope_ok,
                "mission_id": mission_id,
            },
            tick=tick,
        )
    meter = run.meter
    try:
        meter.charge(
            tokens=outcome.tokens_spent,
            tool_calls=outcome.tool_calls,
            messages=outcome.messages,
        )
    except BudgetExceeded:
        _freeze(run, "budget-exceeded", tick, ledger=ledger)
        raise
    except CapBreached:
        _freeze(run, "cap-breached", tick, ledger=ledger)
        raise
    telemetry = Telemetry(
        node_id=run.node_id,
        did=run.assignee,
        tokens_spent=meter.tokens_spent,
        tool_calls=meter.tool_calls,
        messages=meter.messages,
        metrics=dict(outcome.metrics),
        output_digest="sha256:"
        + hashlib.sha256(canonical(dict(outcome.output))).hexdigest(),
    )
    run.telemetry = telemetry
    return telemetry


def gate_verify(
    run: NodeRun,
    telemetry: Telemetry,
    *,
    cosigner: str,
    ledger: AuditLedger,
    mission_id: str,
    tick: int = 0,
) -> ProofOfProgress | GateFailure:
    if run.state is not NodeState.RUNNING:
        raise InvalidTransition(f"{run.node_id} must be Running to gate, is {run.state.value}")
    check_id = run.template.gate_check_id or run.node_id.lower()
    checks: list[tuple[str, bool]] = [
        (check_id, not run.template.slashing_condition.violated(telemetry.metrics)),
        ("output-digest", bool(telemetry.output_digest)),
    ]
    failed = tuple(cid for cid, ok in checks if not ok)
    if failed:
        _freeze(run, "slashing-condition", tick, ledger=ledger)
        return GateFailure(check_ids=failed)
    transition(run, NodeState.VERIFIED)
    run.verified_tick = tick
    run.checkpoint = Checkpoint(
        node_id=run.node_id,
        snapshot_digest="sha256:"
        + hashlib.sha256(
            canonical(
                {
                    "node_id": run.node_id,
                    "output_digest": telemetry.output_digest,
                    "meter": run.meter.snapshot(),
                }
            )
        ).hexdigest(),
        tick=tick,
    )
    proof = ProofOfProgress(
        node_id=run.node_id,
        output_digest=telemetry.output_digest,
        gate_checks=tuple(checks),
        cosigner=cosigner,
        tick=tick,
    )
    ledger.append(
        RecordKind.PROOF_OF_PROGRESS,
        cosigner,
        {
            "node_id": run.node_id,
            "did": run.assignee,
            "output_digest": telemetry.output_digest,
            "gate_checks": [[cid, ok] for cid, ok in checks],
            "cosigner": cosigner,
            "kind": "gate",
            "mission_id": mission_id,
        },
        tick=tick,
    )
    return proof


def guardian_check(
    telemetry: Telemetry,
    baseline: Baseline,
    *,
    run: NodeRun,
    ledger: AuditLedger,
    z_threshold: float = 2.0,
    tick: int = 0,
) -> Ok | FreezeEvent:
    """Strict z-score test on one telemetry metric. At exactly the threshold
    the run is healthy; only beyond it does the guardian freeze."""
    if baseline.std <= 0:
        raise ValidationError(f"baseline std for {baseline.metric} must be positive")
    observed = telemetry.metrics.get(baseline.metric)
    if observed is None:
        return Ok(z_value=0.0)
    # Decimal via str keeps the boundary exact for decimal-written inputs;
    # float subtraction would push mean + 2*std marginally past the threshold
    z_dec = (Decimal(str(observed)) - Decimal(str(baseline.mean))) / Decimal(
        str(baseline.std)
    )
    z = float(z_dec)
    if abs(z_dec) <= Decimal(str(z_threshold)):
        return Ok(z_value=z)
    return _freeze(run, "z-score", tick, z_value=z, ledger=ledger)


def escalate(
    freeze_history: Sequence[FreezeEvent], window_ticks: int
) -> tuple[EscalationTier, int] | None:
    """Graduated response sized by freeze density in the trailing window
    ending at the latest freeze: the tier and the freezes it counted."""
    if not freeze_history:
        return None
    end = freeze_history[-1].tick
    count = sum(1 for event in freeze_history if end - window_ticks < event.tick <= end)
    if count > 3:
        return EscalationTier.CIRCUIT_BREAKER, count
    if count >= 2:
        return EscalationTier.RESTRICTIVE, count
    return EscalationTier.ADVISORY, count


def rollback(
    run: NodeRun,
    *,
    ledger: AuditLedger,
    mission_id: str,
    tick: int = 0,
) -> NodeState:
    """Restore a frozen node to its last verified entry point. The meter
    resets with the attempt: the completed rerun's spend is the spend."""
    if run.state is not NodeState.FROZEN:
        raise InvalidTransition(f"{run.node_id} must be Frozen to roll back, is {run.state.value}")
    checkpoint = run.checkpoint
    if checkpoint is not None and checkpoint.tick > tick:
        raise InvalidTransition("checkpoint is newer than the rollback tick")
    run.meter.reset()
    run.telemetry = None
    run.attempts += 1
    transition(run, NodeState.READY if checkpoint is None else NodeState.RUNNING)
    ledger.append(
        RecordKind.ROLLBACK_EVENT,
        "guardian",
        {
            "node_id": run.node_id,
            "restored_to": checkpoint.snapshot_digest if checkpoint else "origin",
            "resumed_state": run.state.value,
            "attempt": run.attempts,
            "mission_id": mission_id,
        },
        tick=tick,
    )
    return run.state


def quarantine(
    run: NodeRun,
    item_ids: Iterable[str],
    *,
    ledger: AuditLedger,
    mission_id: str,
    tick: int = 0,
) -> NodeState:
    """Suspend named work items into the node's quarantine bay. The rest of
    the batch proceeds; a Running node parks until the bay drains."""
    if run.state not in (NodeState.RUNNING, NodeState.VERIFIED):
        raise InvalidTransition(f"{run.node_id} holds no itemized payload in {run.state.value}")
    ids = sorted(set(item_ids))
    if not ids:
        return run.state
    unknown = [i for i in ids if i not in run.items]
    if unknown:
        raise NotFound(f"unknown items {unknown} in {run.node_id}")
    run.items.difference_update(ids)
    run.quarantined_items.update(ids)
    if run.state is NodeState.RUNNING:
        transition(run, NodeState.QUARANTINED)
    ledger.append(
        RecordKind.ESCALATION,
        "guardian",
        {
            "node_id": run.node_id,
            "action": "quarantine",
            "item_ids": ids,
            "held": len(run.quarantined_items),
            "mission_id": mission_id,
        },
        tick=tick,
    )
    return run.state


def release_quarantined(
    run: NodeRun,
    item_ids: Iterable[str],
    *,
    resolution: str,
    ledger: AuditLedger,
    mission_id: str,
    tick: int = 0,
) -> NodeState:
    ids = sorted(set(item_ids))
    unknown = [i for i in ids if i not in run.quarantined_items]
    if unknown:
        raise NotFound(f"items {unknown} are not quarantined in {run.node_id}")
    run.quarantined_items.difference_update(ids)
    run.items.update(ids)
    if run.state is NodeState.QUARANTINED and not run.quarantined_items:
        transition(run, NodeState.RUNNING)
    if ids:
        ledger.append(
            RecordKind.ESCALATION,
            "guardian",
            {
                "node_id": run.node_id,
                "action": "quarantine-release",
                "item_ids": ids,
                "resolution": resolution,
                "held": len(run.quarantined_items),
                "mission_id": mission_id,
            },
            tick=tick,
        )
    return run.state


def gate_contract_filter(
    final_output: Mapping[str, object], charter: Charter
) -> Pass | Blocked:
    """Last-mile output screen: only output-scope charter rules apply."""
    triggered = tuple(
        rule.rule_id
        for rule in charter.rules_for_scope("output")
        if rule.predicate.triggered(final_output)
    )
    if triggered:
        return Blocked(rule_ids=triggered)
    return Pass()


def budget_utilization(spent: int, capped: int) -> Decimal:
    """Mission-level token efficiency, reported at three decimal places."""
    if capped <= 0:
        raise ValidationError("cap total must be positive")
    return (Decimal(spent) / Decimal(capped)).quantize(
        Decimal("0.001"), rounding=ROUND_HALF_UP
    )
