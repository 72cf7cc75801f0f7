"""Workload inputs for the govsim benchmark.

Two synthetic scenario documents are generated from the benchmark seed; the
third workload replays the scenarios bundled with the package. The seed sets
only the scenario `seed` and the roster order: the shape of each document is
fixed, so every seed produces the same number of ledger records.
"""
from __future__ import annotations

import json
import random

FIXTURES = ("case-study.json", "fault-drill.json", "stress-window.json")

LONG_CHAIN_NODES = 400
AUDIT_SWEEP_NODES = 16
AUDIT_SWEEP_EVIDENCE = 250
AUDIT_SWEEP_LOOPS = 10

_ORG = "BENCH-ORG-001"
_ENDPOINT = "EP-BENCH-FEED-01"
_METRIC = "latency_ms"
_DURATION = 20
_PROBE_PERIOD = 5
_EXEC_START = 900

# Ledger records a chain scenario appends, counted from the run's phases:
# per node, agent registration + certification + accepted bid + node start +
# one proof of progress at the gate + one reward transfer, plus its evidence;
# per mission, the legislation record, the prescreen decision, eight contract
# deployments and the three pool-funding transfers (escrow and two taxes);
# per correction loop, the single "L" stage an unclassified incident stops
# at, since the charter is empty.
_RECORDS_PER_NODE = 6
_RECORDS_PER_MISSION = 13
_RECORDS_PER_LOOP = 1


def expected_records(nodes: int, evidence: int, loops: int) -> int:
    return (
        nodes * (_RECORDS_PER_NODE + evidence)
        + _RECORDS_PER_MISSION
        + loops * _RECORDS_PER_LOOP
    )


def chain_document(
    seed: int,
    *,
    name: str,
    nodes: int,
    evidence: int,
    loops: int,
    seals_provenance: bool = True,
) -> dict:
    """A linear chain of `nodes` templates, one bidder each, `evidence`
    data-ingestion calls per node, a clean probe every 5 ticks over a 20-tick
    attempt, an empty charter and `loops` trailing correction loops."""
    rng = random.Random(seed)
    node_ids = [f"TASK-{i:04d}" for i in range(nodes)]
    agents = [
        {
            "did": f"did:bench:{name}:agent-{i:04d}",
            "role": "execution",
            "owner": _ORG,
            "stake": "1000.00",
            "reputation": "90.0",
            "baselines": {_METRIC: {"mean": 100, "std": 10}},
            "bids": [{"node_id": node_id, "accuracy_sla": "0.9990", "completion_ticks": _DURATION}],
        }
        for i, node_id in enumerate(node_ids)
    ]
    rng.shuffle(agents)
    templates = [
        {
            "template_id": node_id,
            "title": f"{name} step {i}",
            "depends_on": [node_ids[i - 1]] if i else [],
            "timeout_ticks": 10 * _DURATION,
            "token_cap": 1000,
            "slashing_condition": {"metric": _METRIC, "comparator": "gt", "threshold": "500"},
            "tool_whitelist": ["bench-feed"],
            "required_role": "execution",
        }
        for i, node_id in enumerate(node_ids)
    ]
    templates[-1]["seals_provenance"] = seals_provenance
    step = {
        "duration_ticks": _DURATION,
        "tokens": 100,
        "tool_calls": 1,
        "messages": 1,
        "evidence_offset": 2,
        "metrics": {_METRIC: 100},
        "probe": {
            "metric": _METRIC,
            "period_ticks": _PROBE_PERIOD,
            "clean_value": 100,
            "corrupt_value": 200,
            "fault_ref": _ENDPOINT,
        },
    }
    plans = {
        node_id: {
            **step,
            "evidence": [
                {"call_index": k, "endpoint_id": _ENDPOINT, "category": "data-ingestion"}
                for k in range(evidence)
            ],
        }
        for node_id in node_ids
    }
    after = _EXEC_START + _DURATION * nodes + 1000
    timeline = [
        {
            "tick": after + k,
            "kind": "correction_loop",
            "params": {
                "incident": {
                    "incident_id": f"INC-{name.upper()}-{k:02d}",
                    "cause": "data-integrity",
                    "probe": {
                        "payload_equals": {
                            "node_id": node_ids[k % nodes],
                            "call_index": (k * 25) % evidence,
                        }
                    },
                }
            },
        }
        for k in range(loops)
    ]
    return {
        "seed": rng.getrandbits(63),
        "tick_scale": 1,
        "mission": {
            "mission_id": f"MISSION-BENCH-{name.upper()}",
            "value_ceiling": "1000000",
            "global_timeout_ticks": 10_000_000,
            "exec_start_tick": _EXEC_START,
            "settlement_delay_ticks": 300,
        },
        "agents": agents,
        "job": {
            "job_id": f"JOB-BENCH-{name.upper()}",
            "description": f"synthetic {name} benchmark chain",
            "order_count": nodes,
            "notional_value": "1000",
            "currency": "EUR",
            "deadline_tick": 10_000_000,
            "task_templates": templates,
        },
        "charter": {"version": 1, "rules": []},
        "economy": {
            "pool_total": "1000.00",
            "protocol_rate": "0.035",
            "infra_rate": "0.015",
            "org_account": _ORG,
            "org_balance": "5000.00",
            "reward_weights": {a["did"]: "1" for a in agents},
        },
        "execution_plan": plans,
        "timeline": timeline,
        "expectations": {
            "mission.outcome": "Completed",
            "ledger.records": expected_records(nodes, evidence, loops),
        },
    }


def long_chain(seed: int) -> dict:
    return chain_document(seed, name="long-chain", nodes=LONG_CHAIN_NODES, evidence=1, loops=1)


def audit_sweep(seed: int) -> dict:
    return chain_document(
        seed,
        name="audit-sweep",
        nodes=AUDIT_SWEEP_NODES,
        evidence=AUDIT_SWEEP_EVIDENCE,
        loops=AUDIT_SWEEP_LOOPS,
    )


GENERATORS = {"long-chain": long_chain, "audit-sweep": audit_sweep}


def document_bytes(doc: dict) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
