"""Deterministic mission-lifecycle simulator.

A desk-scale discrete-event model of governed agent missions: legislated task
DAGs, contract-gated execution with guardian freezes and rollback, forensic
adjudication, and a staking/slashing token economy, all traced through an
append-only hash-chained audit ledger.
"""
from __future__ import annotations

from .adjudication import (
    DisputeCase,
    DisputeState,
    ForensicReport,
    Incident,
    IncidentProbe,
    advance_dispute,
    file_dispute,
    post_mortem,
    run_correction_loop,
)
from .economy import (
    IncentiveParams,
    IncentiveResult,
    Treasury,
    check_incentive_compatibility,
)
from .execution import (
    EscalationTier,
    FreezeEvent,
    NodeRun,
    NodeState,
    budget_utilization,
    escalate,
    execute_node,
    gate_verify,
    guardian_check,
    quarantine,
    release_quarantined,
    rollback,
)
from .errors import ConfigError, GovsimError
from .harness import (
    RunReport,
    ScenarioConfig,
    emit_report,
    load_bundled_scenario,
    load_scenario,
    replay_case_study,
    replay_fault_drill,
    run,
    scenario_from_dict,
)
from .identity import CertEvent, CertState, IdentityRegistry
from .ledger import AuditLedger, AuditRecord, ChainVerdict, RecordKind, verify_jsonl
from .legislation import (
    Charter,
    JobSpec,
    MissionManifest,
    Rule,
    decompose,
    generate_contract_stack,
    prescreen,
    run_bidding,
)

__version__ = "0.1.0"

__all__ = [
    "AuditLedger",
    "AuditRecord",
    "CertEvent",
    "CertState",
    "ChainVerdict",
    "Charter",
    "ConfigError",
    "DisputeCase",
    "DisputeState",
    "EscalationTier",
    "ForensicReport",
    "FreezeEvent",
    "GovsimError",
    "IdentityRegistry",
    "IncentiveParams",
    "IncentiveResult",
    "Incident",
    "IncidentProbe",
    "JobSpec",
    "MissionManifest",
    "NodeRun",
    "NodeState",
    "RecordKind",
    "Rule",
    "RunReport",
    "ScenarioConfig",
    "Treasury",
    "advance_dispute",
    "budget_utilization",
    "check_incentive_compatibility",
    "decompose",
    "emit_report",
    "escalate",
    "execute_node",
    "file_dispute",
    "gate_verify",
    "generate_contract_stack",
    "guardian_check",
    "load_bundled_scenario",
    "load_scenario",
    "post_mortem",
    "prescreen",
    "quarantine",
    "release_quarantined",
    "replay_case_study",
    "replay_fault_drill",
    "rollback",
    "run",
    "run_bidding",
    "run_correction_loop",
    "scenario_from_dict",
    "verify_jsonl",
]
