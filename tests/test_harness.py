"""Scenario loading, the event driver, bundled replays, and report emission.

Derived oracles, computed before the assertions:

  drill slash: 3800.00 x 0.05 = 190.00, stake after 3610.00
  drill pool 100.00 at 3.5%/1.5%: taxes 3.50/1.50, net 95.00,
    weights 60/40 -> 57.00/38.00
  drill window: (1400 + 500) / (2000 + 800) = 0.67857... -> 0.679
  stress freeze ticks: attempts start 900/1150/1400/1650, probe period 150
    -> freezes 1050, 1300, 1550, 1800; all inside one 1200-tick trailing
    window, so the tier ladder reads 1, 2, 3, 4 freezes
  case-study clock: origin 08:47:03+01:00 plus 900 one-second ticks
    -> 09:02:03+01:00
"""
import copy
import functools
import gc
import json
import os
import re
import resource
import runpy
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from govsim.errors import ConfigError, ValidationError
from govsim.harness import (
    CASE_STUDY_FIXTURE,
    FAULT_DRILL_FIXTURE,
    STRESS_WINDOW_FIXTURE,
    bundled_scenario_path,
    emit_report,
    load_bundled_scenario,
    load_scenario,
    replay_case_study,
    replay_fault_drill,
    run,
    scenario_from_dict,
)
from govsim.identity import CertState
from govsim.ledger import RecordKind, verify_jsonl
from helpers import assert_ledger_rebuilds_the_treasury
from test_fingerprints import PINNED


@functools.lru_cache(maxsize=None)
def _fixture_text(name):
    return bundled_scenario_path(name).read_text()


def raw_fixture(name):
    return json.loads(_fixture_text(name))


@pytest.fixture(scope="module")
def case_report():
    return replay_case_study()


@pytest.fixture(scope="module")
def drill_report():
    return replay_fault_drill()


# -- config validation -------------------------------------------------------


def _drop_job_currency(raw):
    del raw["job"]["currency"]


def _bad_std(raw):
    raw["agents"][0]["baselines"]["micropayment_variance"]["std"] = 0


def _unordered_timeline(raw):
    raw["timeline"].append({"tick": 10, "kind": "correction_loop", "params": {}})


def _inverted_fault_window(raw):
    raw["faults"][0]["deactivate_tick"] = raw["faults"][0]["activate_tick"]


def _unknown_fault_kind(raw):
    raw["faults"][0] = {"kind": "SolarFlare", "activate_tick": 1, "deactivate_tick": 2}


def _unknown_feed(raw):
    raw["faults"].append(
        {
            "kind": "CorruptedFeed",
            "endpoint_id": "EP-NOWHERE-99",
            "activate_tick": 1,
            "deactivate_tick": 2,
        }
    )


def _unknown_stale_did(raw):
    raw["faults"][0]["did"] = "did:netx:ghost:agent:nobody"


def _unknown_override_node(raw):
    raw["faults"].append(
        {
            "kind": "BehaviorOverride",
            "node_id": "TASK-GHOST",
            "behavior_name": "tool-storm",
            "activate_tick": 1,
            "deactivate_tick": 2,
        }
    )


def _unknown_override_behavior(raw):
    raw["faults"].append(
        {
            "kind": "BehaviorOverride",
            "node_id": "TASK-FX-002",
            "behavior_name": "nope",
            "activate_tick": 1,
            "deactivate_tick": 2,
        }
    )


def _cross_node_unknown_node(raw):
    event = raw_fixture(CASE_STUDY_FIXTURE)["timeline"][1]
    event["tick"] = 10**9
    event["params"]["node_id"] = "TASK-NOPE"
    raw["timeline"].append(event)


def _missing_plan(raw):
    del raw["execution_plan"]["TASK-FX-002"]


def _stray_plan(raw):
    raw["execution_plan"]["TASK-ZZZ"] = {"duration_ticks": 5}


def _unregistered_weight(raw):
    raw["economy"]["reward_weights"]["did:netx:ghost:agent:nobody"] = "1.00"


def _unknown_regression_ref(raw):
    raw["orders"] = {"items": [], "regression_refs": ["ORD-GHOST-1"]}


def _bad_clock(raw):
    raw["mission"]["clock_origin"] = "yesterday-ish"


def _zero_tick_scale(raw):
    raw["tick_scale"] = 0


def _empty_roster(raw):
    raw["agents"] = []


def _zero_window(raw):
    raw["guardian"] = {"window_ticks": 0}


def _mission_id(value):
    return pytest.param(
        lambda raw: raw["mission"].update(mission_id=value),
        "mission.mission_id",
        id=f"mission_id={value!r}",
    )


SECTION_SHAPES = {
    "mission": dict,
    "agents": list,
    "job": dict,
    "charter": dict,
    "economy": dict,
    "execution_plan": dict,
    "orders": dict,
    "timeline": list,
    "faults": list,
    "guardian": dict,
    "expectations": dict,
}


def _section(name, value):
    return pytest.param(
        lambda raw: raw.update({name: value}), name, id=f"{name}={value!r}"
    )


def _element(path, keys, value):
    """Set the value at `keys` (creating missing objects) to a wrong type;
    the rejection must name `path`."""

    def mutate(raw):
        target = raw
        for key in keys[:-1]:
            target = target.setdefault(key, {}) if isinstance(key, str) else target[key]
        target[keys[-1]] = value

    return pytest.param(mutate, path, id=f"{'.'.join(map(str, keys))}={value!r}")


def _missing(path, keys):
    """Delete the key at `keys`; the rejection must name `path`."""

    def mutate(raw):
        target = raw
        for key in keys[:-1]:
            target = target[key]
        del target[keys[-1]]

    return pytest.param(mutate, path, id=f"{'.'.join(map(str, keys))}=missing")


def _dispute(field, value, *keys):
    """Append case-study's dispute to the timeline with the params value at
    `keys` (default: `field`) set to `value`, or deleted when `value` is None;
    the rejection must name `field` under the appended event's params."""
    keys = keys or (field,)

    def mutate(raw):
        event = raw_fixture(CASE_STUDY_FIXTURE)["timeline"][2]
        event["tick"] = 10**9
        # fault-drill has no orders, and other nodes
        del event["params"]["order_ref"]
        event["params"]["release"]["node_id"] = "TASK-FX-002"
        target = event["params"]
        for key in keys[:-1]:
            target = target[key]
        if value is None:
            del target[keys[-1]]
        else:
            target[keys[-1]] = value
        raw["timeline"].append(event)

    shown = "missing" if value is None else repr(value)
    return pytest.param(
        mutate, f"timeline[1].params.{field}", id=f"dispute.{'.'.join(map(str, keys))}={shown}"
    )


@pytest.mark.parametrize(
    "mutate, path",
    [
        (lambda raw: raw.update(seed=-1), "seed"),
        (lambda raw: raw.update(seed=2**64), "seed"),
        (lambda raw: raw.update(seed="77"), "seed"),
        (_zero_tick_scale, "tick_scale"),
        (_bad_clock, "mission.clock_origin"),
        (_empty_roster, "agents"),
        (_bad_std, "agents[0].baselines.micropayment_variance.std"),
        (_drop_job_currency, "job.currency"),
        (_unregistered_weight, "economy.reward_weights.did:netx:ghost:agent:nobody"),
        _element(
            "economy.reputation_bonus.did:netx:ghost:agent:nobody",
            ("economy", "reputation_bonus", "did:netx:ghost:agent:nobody"),
            "1.0",
        ),
        *(_element(f"agents[0].{key}", ("agents", 0, key), True) for key in ("stake", "balance")),
        _element("economy.pool_total", ("economy", "pool_total"), True),
        _element(
            "economy.reward_weights.did:netx:drill-lab:agent:exec-fx-77",
            ("economy", "reward_weights", "did:netx:drill-lab:agent:exec-fx-77"),
            False,
        ),
        *(_element("agents[0].owner", ("agents", 0, "owner"), value) for value in ("", 7)),
        (_missing_plan, "execution_plan.TASK-FX-002"),
        (_stray_plan, "execution_plan.TASK-ZZZ"),
        (_unknown_regression_ref, "orders.regression_refs"),
        (_unordered_timeline, "timeline[1].tick"),
        (_inverted_fault_window, "faults[0].deactivate_tick"),
        (_unknown_fault_kind, "faults[0].kind"),
        (_unknown_feed, "faults[1].endpoint_id"),
        (_unknown_stale_did, "faults[0].did"),
        (_unknown_override_node, "faults[1].node_id"),
        (_unknown_override_behavior, "faults[1].behavior_name"),
        (_cross_node_unknown_node, "timeline[1].params.node_id"),
        (_zero_window, "guardian.window_ticks"),
        *(_mission_id(value) for value in (7, None, "", [])),
        *(
            _section(name, value)
            for name, shape in SECTION_SHAPES.items()
            for value in (7, "x", None, [] if shape is dict else {})
        ),
        _element("agents[0]", ("agents", 0), 7),
        _element("agents[0].baselines", ("agents", 0, "baselines"), []),
        _element("agents[0].bids[0]", ("agents", 0, "bids", 0), 7),
        _element("timeline[0]", ("timeline",), [7]),
        _element("orders.items", ("orders", "items"), 7),
        _element("orders.items[0]", ("orders", "items"), [7]),
        _element("execution_plan.TASK-FX-001", ("execution_plan", "TASK-FX-001"), 7),
        _element("execution_plan.TASK-FX-001.retry", ("execution_plan", "TASK-FX-001", "retry"), 7),
        _element("execution_plan.TASK-FX-001.probe", ("execution_plan", "TASK-FX-001", "probe"), []),
        _element("economy.reward_weights", ("economy", "reward_weights"), []),
        _element("faults[0]", ("faults", 0), 7),
        _element("agents[0].bids", ("agents", 0, "bids"), 7),
        _element(
            "agents[0].baselines.micropayment_variance",
            ("agents", 0, "baselines", "micropayment_variance"),
            7,
        ),
        _element("guardian.escalation_panel", ("guardian", "escalation_panel"), 7),
        _element("timeline[0].params", ("timeline", 0, "params"), 7),
        _element("execution_plan.TASK-FX-001.metrics", ("execution_plan", "TASK-FX-001", "metrics"), 7),
        _element("economy.partner_accounts[0]", ("economy", "partner_accounts"), [7]),
        _element("timeline[0].params.incident.probe", ("timeline", 0, "params", "incident", "probe"), 7),
        *(
            _element(
                "timeline[0].params.incident.probe.payload_equals",
                ("timeline", 0, "params", "incident", "probe", "payload_equals"),
                value,
            )
            for value in (7, [7])
        ),
        _missing("timeline[0].params.incident", ("timeline", 0, "params", "incident")),
        *(
            _missing(f"timeline[0].params.incident.{key}", ("timeline", 0, "params", "incident", key))
            for key in ("incident_id", "cause")
        ),
        _element("timeline[0].params.rubric", ("timeline", 0, "params", "rubric"), 7),
        _element("timeline[0].params.rubric.fraction", ("timeline", 0, "params", "rubric", "fraction"), "x"),
        _element(
            "timeline[0].params.rubric.reputation_penalty",
            ("timeline", 0, "params", "rubric", "reputation_penalty"),
            [1],
        ),
        _element("timeline[0].params.amendment", ("timeline", 0, "params", "amendment"), 7),
        _element("timeline[0].params.amendment[0]", ("timeline", 0, "params", "amendment"), [7]),
        _element(
            "timeline[0].params.amendment[0].predicate",
            ("timeline", 0, "params", "amendment", 0, "predicate"),
            None,
        ),
        _missing(
            "timeline[0].params.amendment[0].rule_id", ("timeline", 0, "params", "amendment", 0, "rule_id")
        ),
        _element(
            "job.task_templates[0].slashing_condition.metric",
            ("job", "task_templates", 0, "slashing_condition", "metric"),
            "nothing",
        ),
        _element("charter.rules[0].scope", ("charter", "rules", 0, "scope"), []),
        _element("charter.rules[0].predicate.op", ("charter", "rules", 0, "predicate", "op"), []),
        _dispute("panel", None),
        _dispute("panel", "x"),
        _dispute("panel[1]", 7, "panel", 1),
        _dispute("verdict", None),
        _dispute("verdict", 7),
        _dispute("verdict.votes_for", "3", "verdict", "votes_for"),
        _dispute("verdict.votes_against", None, "verdict", "votes_against"),
        _dispute("verdict.proposed_rules", 7, "verdict", "proposed_rules"),
        _dispute("verdict.proposed_rules[0]", [7], "verdict", "proposed_rules"),
        _dispute("verdict.proposed_rules[0].scope", "galaxy", "verdict", "proposed_rules", 0, "scope"),
        _dispute("order_ref", "NOPE"),
        _dispute("release.node_id", "TASK-NOPE", "release", "node_id"),
        _dispute("release.items", [], "release", "items"),
        _element("mission.exec_start_tick", ("mission", "exec_start_tick"), 50_001),
        _element("timeline[0].tick", ("timeline", 0, "tick"), 50_001),
        _element("tick_scale", ("tick_scale",), 10**12),
        _element("tick_scale", ("mission", "global_timeout_ticks"), 10**12),
        _element("execution_plan.TASK-FX-001.evidence", ("execution_plan", "TASK-FX-001", "evidence"), "x"),
        _element("execution_plan.TASK-FX-001.evidence[0]", ("execution_plan", "TASK-FX-001", "evidence", 0), 7),
        *(
            _missing(
                f"execution_plan.TASK-FX-001.retry.evidence[0].{key}",
                ("execution_plan", "TASK-FX-001", "retry", "evidence", 0, key),
            )
            for key in ("call_index", "endpoint_id")
        ),
        *(
            _element(
                "execution_plan.TASK-FX-001.evidence[0].call_index",
                ("execution_plan", "TASK-FX-001", "evidence", 0, "call_index"),
                value,
            )
            for value in ("x", "9", None, [])
        ),
        _element(
            "execution_plan.TASK-FX-001.retry.evidence[0].endpoint_id",
            ("execution_plan", "TASK-FX-001", "retry", "evidence", 0, "endpoint_id"),
            [],
        ),
        _element("charter.version", ("charter", "version"), "1"),
        _missing("charter.rules", ("charter", "rules")),
        *(
            _element("charter.rules[1].rule_id", ("charter", "rules", 1, "rule_id"), value)
            for value in (0, None, [], "")
        ),
        _element(
            "timeline[0].params.amendment[0].rule_id",
            ("timeline", 0, "params", "amendment", 0, "rule_id"),
            -5,
        ),
        _dispute("verdict.proposed_rules[0].rule_id", 7, "verdict", "proposed_rules", 0, "rule_id"),
    ],
)
def test_rejections_name_the_field(mutate, path):
    raw = raw_fixture(FAULT_DRILL_FIXTURE)
    mutate(raw)
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(raw)
    assert err.value.field_path == path
    assert str(err.value).startswith(f"{path}:")


def test_missing_field_gate_may_name_an_unreported_metric():
    raw = raw_fixture(FAULT_DRILL_FIXTURE)
    raw["job"]["task_templates"][0]["slashing_condition"] = {"metric": "nothing", "comparator": "missing_field"}
    report = run(scenario_from_dict(raw))
    assert report.fingerprint != PINNED[FAULT_DRILL_FIXTURE][0]


@pytest.mark.parametrize("fixture", [CASE_STUDY_FIXTURE, FAULT_DRILL_FIXTURE, STRESS_WINDOW_FIXTURE])
@pytest.mark.parametrize("section, value", [("mission", 7), ("agents", 5), ("job", [])])
def test_wrong_typed_section_names_the_section(fixture, section, value):
    raw = raw_fixture(fixture)
    raw[section] = value
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(raw)
    assert err.value.field_path == section
    assert str(err.value).startswith(f"{section}: expected")


def test_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_scenario(tmp_path / "nope.json")
    assert err.value.field_path == "$file"


def test_malformed_json_is_a_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError) as err:
        load_scenario(bad)
    assert err.value.field_path == "$file"


def test_a_file_that_is_not_utf8_is_a_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"seed": "\xff"}')
    with pytest.raises(ConfigError) as err:
        load_scenario(bad)
    assert err.value.field_path == "$file"
    assert str(err.value).startswith("$file: not valid UTF-8: ")


def test_non_object_document_rejected(tmp_path):
    doc = tmp_path / "list.json"
    doc.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_scenario(doc)


@pytest.mark.parametrize("document", [None, 7, [], "x"])
def test_a_document_that_is_not_an_object_is_a_config_error(document):
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(document)
    assert err.value.field_path == "$file"
    assert str(err.value) == "$file: scenario document must be a JSON object"


def test_bundled_fixtures_all_load():
    for name in (CASE_STUDY_FIXTURE, FAULT_DRILL_FIXTURE, STRESS_WINDOW_FIXTURE):
        config = load_bundled_scenario(name)
        assert config.seed >= 0
        assert config.plans


# The loader is total: each single-leaf mutation of a bundled fixture either
# loads, and then runs to a report whose ledger rebuilds its treasury, or is
# rejected with a `ConfigError`.
MUTATION_VALUES = (None, 0, 1, 2, -5, 7, 50, 333, 2000, "x", [], "<delete>")


def _mutation_sites(node, keys=()):
    """The keys of every object member and array element below `node`,
    outside `expectations` and `orders.items`."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        if keys + (key,) not in (("expectations",), ("orders", "items")):
            yield keys + (key,)
            yield from _mutation_sites(child, keys + (key,))


MUTATION_SITES = [(name, keys) for name in sorted(PINNED) for keys in _mutation_sites(raw_fixture(name))]


def mutated_fixture(name, keys, value):
    """The fixture with the member at `keys` set to `value`, or removed."""
    raw = raw_fixture(name)
    target = raw
    for key in keys[:-1]:
        target = target[key]
    if value == "<delete>":
        del target[keys[-1]]
    else:
        target[keys[-1]] = copy.deepcopy(value)
    return raw


@settings(deadline=None)
@given(st.sampled_from(MUTATION_SITES), st.sampled_from(MUTATION_VALUES))
def test_a_mutated_fixture_is_rejected_with_a_config_error_or_runs(site, value):
    name, keys = site
    try:
        config = scenario_from_dict(mutated_fixture(name, keys, value))
    except ConfigError:
        return
    report = run(config)
    assert report.body["mission"]["outcome"]
    assert_ledger_rebuilds_the_treasury(config, report)


# Every token movement is on the ledger: the opening balances plus the
# TokenTransfer and SlashingEvent payloads give the treasury to the cent.
WORKLOADS = runpy.run_path(str(Path(__file__).resolve().parent.parent / "bench" / "workloads.py"))["GENERATORS"]


@pytest.mark.parametrize(
    "name, seed",
    [(name, None) for name in sorted(PINNED)]
    + [(name, seed) for name in sorted(WORKLOADS) for seed in (1, 11, 21)],
)
def test_the_ledger_rebuilds_the_treasury(name, seed):
    config = scenario_from_dict(raw_fixture(name) if seed is None else WORKLOADS[name](seed))
    assert_ledger_rebuilds_the_treasury(config, run(config))


def test_the_audit_sweep_does_a_counted_amount_of_ledger_work(monkeypatch):
    # Call counts, unlike times, do not move with the host. On an untampered
    # run `append` derives each stamp and header digest inline, once, and
    # `verify_chain` takes the sealed digests: nothing re-derives either.
    # Each post-mortem decodes only the records holding its probe's string
    # and int needles up to its first match, which is the first such record
    # here, and a correction loop reads back none of its stages. The report
    # decodes the 16 reward transfers.
    import govsim.harness as harness
    import govsim.ledger as ledger

    calls = {"record_digest": 0, "_stamp": 0, "payload": 0}
    per_post_mortem = []

    def counted(owner, name):
        original = getattr(owner, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, call)

    counted(ledger, "record_digest")
    counted(ledger.AuditLedger, "_stamp")
    counted(ledger.AuditLedger, "payload")
    post_mortem = harness.post_mortem

    def decoding(*args):
        before = calls["payload"]
        try:
            return post_mortem(*args)
        finally:
            per_post_mortem.append(calls["payload"] - before)

    monkeypatch.setattr(harness, "post_mortem", decoding)
    report = run(scenario_from_dict(WORKLOADS["audit-sweep"](11)))
    assert report.body["ledger"]["records"] == 4119
    assert per_post_mortem == [1] * 10
    assert calls == {"record_digest": 0, "_stamp": 0, "payload": 26}


# Keys that earlier versions of the bundled fixtures carried and the loader no
# longer reads, with the values they had: `path -> value` per fixture.
DELETED_KEYS = json.loads((Path(__file__).parent / "oracles" / "deleted-scenario-keys.json").read_text())


@pytest.mark.parametrize("name", sorted(PINNED))
def test_deleted_keys_are_ignored(name):
    raw = raw_fixture(name)
    for path, value in DELETED_KEYS[name].items():
        *parents, key = re.findall(r"[^.\[\]]+", path)
        target = raw
        for part in parents:
            target = target[int(part)] if isinstance(target, list) else target[part]
        assert key not in target, path
        target[key] = value
    trimmed = run(load_bundled_scenario(name))
    report = run(scenario_from_dict(raw))
    fingerprint, records = PINNED[name]
    assert report.fingerprint == fingerprint
    assert report.body["ledger"]["records"] == records
    assert report.body["ledger"]["head_digest"] == trimmed.body["ledger"]["head_digest"]
    assert report.ledger_jsonl == trimmed.ledger_jsonl


# -- bundled replays ---------------------------------------------------------


def test_case_study_replays_clean(case_report):
    assert case_report.assertion_failures == []
    assert case_report.body["mission"]["outcome"] == "Completed"


def test_case_study_clock_labels(case_report):
    mission = case_report.body["mission"]
    assert mission["start_clock"] == "2026-03-11T09:02:03+01:00"
    assert mission["completed_tick"] == 4036
    # labels derive from ticks; both appear so the report reads either way
    assert case_report.body["freezes"][0]["clock"].startswith("2026-03-11T")


def test_case_study_single_targeted_freeze(case_report):
    freezes = case_report.body["freezes"]
    assert [f["trigger"] for f in freezes] == ["z-score"]
    assert freezes[0]["scope"] == "Targeted"
    assert freezes[0]["node_id"] == "TASK-002B"
    assert freezes[0]["z_value"] == pytest.approx(2.4)
    assert [e["tier"] for e in case_report.body["escalations"]] == ["Advisory"]


def test_case_study_amendment_came_from_the_dispute(case_report):
    amendments = case_report.body["amendments"]
    assert len(amendments) == 1
    assert amendments[0]["source"] == "dispute-verdict"
    assert (amendments[0]["from_version"], amendments[0]["to_version"]) == (1, 2)
    assert amendments[0]["rule_ids"] == ["lookback-36m"]


def test_case_study_dispute_trace(case_report):
    trace = [state for state, _ in case_report.body["dispute"]["trace"]]
    assert trace == [
        "Filed", "EvidenceWindow", "Deliberation", "Verdict", "AmendmentPending", "Ratified",
    ]
    assert case_report.body["dispute"]["precedent_id"] == "JDAO-PRECEDENT-20260314-0031"


def test_case_study_correction_loop_blames_the_feed(case_report):
    (loop,) = case_report.body["correction_loops"]
    assert loop["attribution"] == "ProviderFault"
    assert loop["root_locus"][0] == "TASK-002B"
    assert loop["classification"] == "data-integrity-deviation"
    assert loop["rules_action"] == "no amendment"
    assert loop["sanction"]["slash"] == "0.00"
    assert loop["completed"] is True
    assert loop["stage_seqs"] == sorted(loop["stage_seqs"])
    assert len(loop["stage_seqs"]) == 4


def test_a_repeated_incident_lists_only_its_own_stages():
    raw = raw_fixture(CASE_STUDY_FIXTURE)
    (loop,) = [event for event in raw["timeline"] if event["kind"] == "correction_loop"]
    raw["timeline"].append({**copy.deepcopy(loop), "tick": raw["timeline"][-1]["tick"] + 1})
    report = run(scenario_from_dict(raw))
    first, second = report.body["correction_loops"]
    assert first["incident_id"] == second["incident_id"]
    assert len(first["stage_seqs"]) == len(second["stage_seqs"]) == 4
    assert first["stage_seqs"][-1] < second["stage_seqs"][0]
    for seq in second["stage_seqs"]:
        assert report.ledger.record(seq).kind is RecordKind.CORRECTION_STAGE


def test_case_study_ledger_dump_verifies(case_report):
    assert verify_jsonl(case_report.ledger_jsonl.splitlines())


@pytest.mark.parametrize("name", [CASE_STUDY_FIXTURE, FAULT_DRILL_FIXTURE, STRESS_WINDOW_FIXTURE])
def test_payment_contract_escrow_matches_the_treasury(name):
    report = run(load_bundled_scenario(name))
    (payment,) = [
        report.ledger.payload(r.seq)
        for r in report.ledger if r.kind is RecordKind.CONTRACT_DEPLOYED
        if report.ledger.payload(r.seq)["contract"] == "payment"
    ]
    pool = report.treasury.pool(report.body["mission"]["mission_id"])
    assert payment["net_escrow"] == str(pool.net)

def test_drill_replays_clean(drill_report):
    assert drill_report.assertion_failures == []


def test_drill_sanctions_the_agent(drill_report):
    (loop,) = drill_report.body["correction_loops"]
    assert loop["attribution"] == "AgentFault"
    assert loop["classification"] == "rate-variance-deviation"
    assert loop["rules_action"] == "charter version 2"
    assert loop["sanction"]["slash"] == "190.00"
    account = drill_report.treasury.account("did:netx:drill-lab:agent:exec-fx-77")
    assert str(account.stake_locked) == "3610.00"
    profile = drill_report.registry.get("did:netx:drill-lab:agent:exec-fx-77")
    assert profile.cert_state is CertState.UNDER_REVIEW
    assert str(profile.reputation) == "97.0"


def test_drill_slashing_lands_in_the_flows(drill_report):
    flows = drill_report.body["token_flows"]
    assert flows["slash_total"] == "190.00"
    assert flows["slashing"] == [
        {"did": "did:netx:drill-lab:agent:exec-fx-77", "amount": "190.00"}
    ]


def test_slash_total_sums_every_correction_loop():
    raw = raw_fixture(FAULT_DRILL_FIXTURE)
    again = copy.deepcopy(raw["timeline"][0])
    again["tick"] += 1000
    again["params"]["incident"]["incident_id"] = "INC-DRILL-FX-0002"
    raw["timeline"].append(again)
    raw["expectations"] = {}
    flows = run(scenario_from_dict(raw)).body["token_flows"]
    amounts = [Decimal(entry["amount"]) for entry in flows["slashing"]]
    assert len(amounts) == 2
    assert Decimal(flows["slash_total"]) == sum(amounts)
    assert flows["slash_total"] == "370.50"

def test_drill_retry_spend_is_the_spend(drill_report):
    node = drill_report.body["budgets"]["per_node"]["TASK-FX-001"]
    assert node["spent"] == 1400
    assert node["attempts"] == 2
    assert node["state"] == "Completed"


# -- determinism and fault isolation -----------------------------------------


@pytest.mark.parametrize("name", [CASE_STUDY_FIXTURE, FAULT_DRILL_FIXTURE, STRESS_WINDOW_FIXTURE])
def test_a_dropped_report_is_freed_without_the_cycle_collector(name):
    # A reference cycle (ledger -> clock -> driver -> ledger) would keep each
    # run's ledger alive until a full collection, so memory would grow with
    # every replay in a long-lived process.
    config = load_bundled_scenario(name)
    gc.collect()
    gc.disable()
    try:
        report = run(config)
        assert report.ledger.append(RecordKind.ESCALATION, "probe", {}) == len(report.ledger) - 1
        assert report.ledger.record(len(report.ledger) - 1).tick > 0
        del report
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_identical_seeds_are_byte_identical(case_report):
    again = replay_case_study()
    assert again.fingerprint == case_report.fingerprint
    assert again.ledger_jsonl == case_report.ledger_jsonl
    assert emit_report(again) == emit_report(case_report)


def test_seed_override_changes_the_fingerprint(case_report):
    raw = raw_fixture(CASE_STUDY_FIXTURE)
    raw["seed"] = raw["seed"] + 1
    report = run(scenario_from_dict(raw))
    assert report.assertion_failures == []
    assert report.fingerprint != case_report.fingerprint


def test_fault_toggle_touches_only_downstream_records(case_report):
    raw = raw_fixture(CASE_STUDY_FIXTURE)
    activation = raw["faults"][0]["activate_tick"]
    raw["faults"] = []
    raw["expectations"] = {}
    # without the corrupted feed the forensic probe rightly finds nothing
    raw["timeline"] = [e for e in raw["timeline"] if e["kind"] != "correction_loop"]
    clean = run(scenario_from_dict(raw))
    faulted_lines = case_report.ledger_jsonl.splitlines()
    clean_lines = clean.ledger_jsonl.splitlines()
    diverge = next(
        i for i, (a, b) in enumerate(zip(faulted_lines, clean_lines)) if a != b
    )
    assert faulted_lines[:diverge] == clean_lines[:diverge]
    assert json.loads(faulted_lines[diverge])["tick"] >= activation


def test_no_fault_run_never_freezes(case_report):
    raw = raw_fixture(CASE_STUDY_FIXTURE)
    raw["faults"] = []
    raw["expectations"] = {}
    raw["timeline"] = [e for e in raw["timeline"] if e["kind"] != "correction_loop"]
    report = run(scenario_from_dict(raw))
    assert report.body["freezes"] == []
    assert report.body["escalations"] == []
    assert report.body["mission"]["outcome"] == "Completed"
    # the payout is script-driven, so containment work never moves the money
    assert (
        report.body["token_flows"]["rewards"]
        == case_report.body["token_flows"]["rewards"]
    )


def test_a_repeated_item_is_quarantined_and_released_once(case_report):
    raw = raw_fixture(CASE_STUDY_FIXTURE)
    raw["execution_plan"]["TASK-002C"]["quarantine"].append("ORD-SG-0001")
    raw["timeline"][1]["params"]["release"].append("ORD-SG-0001")
    raw["timeline"][2]["params"]["release"]["items"].append("ORD-BR-0001")
    report = run(scenario_from_dict(raw))
    quarantine = report.body["quarantine"]
    assert (quarantine["quarantined"], quarantine["proceeded"]) == (6, 841)
    assert quarantine["trace"][0]["items"] == ["ORD-SG-0001", "ORD-SG-0002"]
    assert report.body["cross_node"]["released"] == ["ORD-SG-0001", "ORD-SG-0002"]
    assert report.body["dispute"]["released"] == ["ORD-BR-0001"]
    assert report.fingerprint == case_report.fingerprint


def test_an_abort_in_the_node_loop_reports_the_funded_pool():
    raw = raw_fixture(CASE_STUDY_FIXTURE)
    del raw["agents"][3]["baselines"]["clearance_rate"]
    report = run(scenario_from_dict(raw))
    assert report.body["mission"]["outcome"] == "Aborted"
    (abort,) = [f for f in report.assertion_failures if f.startswith("aborted:")]
    assert "event probe" in abort
    assert report.body["token_flows"]["pool"] == {"total": "4750.00", "escrow_state": "Funded"}


def test_dispute_release_from_a_node_that_never_verified_is_a_failure():
    raw = raw_fixture(CASE_STUDY_FIXTURE)
    for plan in raw["execution_plan"].values():
        plan["max_cycles"] = 1
    raw["expectations"] = {}
    report = run(scenario_from_dict(raw))
    assert report.body["mission"]["outcome"] == "Stalled"
    assert "release: items ['ORD-BR-0001'] are not quarantined in TASK-002B" in report.assertion_failures
    assert report.body["dispute"]["released"] == []
    assert report.body["dispute"]["remaining_after"] is None


# -- aborted runs ------------------------------------------------------------


def _duplicate_first_agent(raw):
    raw["agents"].append(copy.deepcopy(raw["agents"][0]))


def _cut_dispute_panel(raw):
    params = raw["timeline"][2]["params"]
    params["panel"] = params["panel"][:2]


# Case-study mutations that load and then raise a domain error inside `run`,
# with the abort line each report must carry.
ABORTS = {
    "org_balance": (
        lambda raw: raw["economy"].update(org_balance="0.00"),
        "aborted: InsufficientFunds: AE4E-GSC-FRA-001 holds 0.00, needs 166.25"
        " (tick 830, event none, node none, last seq 42)",
    ),
    "stake_floor": (
        lambda raw: raw["economy"].update(stake_floor="99999999.00"),
        "aborted: NotFound: no eligible bid for TASK-001A (tick 160, event none, node none, last seq 25)",
    ),
    "duplicate_agent": (
        _duplicate_first_agent,
        "aborted: ValidationError: duplicate identity did:netx:gsc-fra:agent:strategy-fx-7"
        " (tick 96, event none, node none, last seq 23)",
    ),
    "protocol_rate": (
        lambda raw: raw["economy"].update(protocol_rate="2"),
        "aborted: ValidationError: rates (2, 0.015) must lie in [0,1) and sum below 1"
        " (tick 540, event none, node none, last seq 34)",
    ),
    "dispute_panel": (
        _cut_dispute_panel,
        "aborted: ValidationError: review panel needs exactly 3 members, got 2"
        " (tick 260282, event dispute, node TASK-002B, last seq 107)",
    ),
}


def _aborted_run(name):
    raw = raw_fixture(CASE_STUDY_FIXTURE)
    ABORTS[name][0](raw)
    return run(scenario_from_dict(raw))


def abort_fingerprints():
    return {name: _aborted_run(name).fingerprint for name in sorted(ABORTS)}


@pytest.mark.parametrize("name", sorted(ABORTS))
def test_a_domain_error_aborts_the_run_into_its_report(name):
    report = _aborted_run(name)
    assert report.body["mission"]["outcome"] == "Aborted"
    assert [f for f in report.assertion_failures if f.startswith("aborted:")] == [ABORTS[name][1]]
    assert report.body["ledger"]["records"] == len(report.ledger)
    head = bytes.fromhex(report.body["ledger"]["head_digest"].removeprefix("sha256:"))
    assert verify_jsonl(report.ledger_jsonl.splitlines(), head=head)
    assert _aborted_run(name).fingerprint == report.fingerprint


def test_aborted_fingerprints_do_not_depend_on_the_hash_seed():
    expected = abort_fingerprints()
    tests = Path(__file__).resolve().parent
    code = "import json, test_harness; print(json.dumps(test_harness.abort_fingerprints()))"
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == expected


def test_an_error_outside_the_domain_still_raises(monkeypatch):
    from govsim.harness import _Driver

    def gap(self):
        raise TypeError("loader gap")

    monkeypatch.setattr(_Driver, "settle", gap)
    with pytest.raises(TypeError, match="loader gap"):
        run(load_bundled_scenario(FAULT_DRILL_FIXTURE))


# -- the event queue ---------------------------------------------------------


def test_a_dependent_whose_id_sorts_first_starts_after_its_dependency():
    # TASK-AA-002 starts at the tick TASK-FX-001 verifies, and sorts before it
    text = bundled_scenario_path(FAULT_DRILL_FIXTURE).read_text()
    report = run(scenario_from_dict(json.loads(text.replace("TASK-FX-002", "TASK-AA-002"))))
    assert report.body["mission"]["outcome"] == "Completed"
    assert report.assertion_failures == []


HORIZON_RUN = """
import json, sys, time
from govsim.harness import run, scenario_from_dict
raw = json.loads(sys.stdin.read())
started = time.perf_counter()
report = run(scenario_from_dict(raw))
print(json.dumps([time.perf_counter() - started, report.body["mission"]["outcome"], report.assertion_failures]))
"""


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.parametrize(
    "name, keys",
    [
        (CASE_STUDY_FIXTURE, ("TASK-002B", "retry")),
        (FAULT_DRILL_FIXTURE, ("TASK-FX-001",)),
        (FAULT_DRILL_FIXTURE, ("TASK-FX-001", "retry")),
    ],
)
def test_an_endless_attempt_stops_at_the_horizon(name, keys):
    raw = raw_fixture(name)
    target = raw["execution_plan"]
    for key in keys:
        target = target[key]
    target["duration_ticks"] = 10**12
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    result = subprocess.run(
        [sys.executable, "-c", HORIZON_RUN],
        input=json.dumps(raw),
        capture_output=True,
        text=True,
        env=env,
        timeout=10,
        preexec_fn=_cap_memory,
    )
    assert result.returncode == 0, result.stderr
    seconds, outcome, failures = json.loads(result.stdout)
    assert seconds < 1
    assert outcome == "Stalled"
    horizon = raw["mission"]["global_timeout_ticks"]
    stops = [f for f in failures if f.startswith("horizon: ")]
    assert len(stops) == 1
    assert stops[0].endswith(f"is past mission.global_timeout_ticks {horizon}")


def test_the_guardian_alone_decides_a_probe():
    # the stale cache still feeds the corrupt value, which a wide baseline
    # scores inside the threshold: no freeze, no rollback, the node verifies
    raw = raw_fixture(FAULT_DRILL_FIXTURE)
    raw["agents"][0]["baselines"]["micropayment_variance"]["std"] = 1
    raw["expectations"] = {}
    report = run(scenario_from_dict(raw))
    assert report.body["mission"]["outcome"] == "Completed"
    assert report.body["freezes"] == []
    assert report.assertion_failures == []


def test_an_execute_freeze_on_a_probed_node_ends_the_node():
    raw = raw_fixture(FAULT_DRILL_FIXTURE)
    raw["execution_plan"]["TASK-FX-001"]["tool_calls"] = 50
    raw["expectations"] = {}
    report = run(scenario_from_dict(raw))
    assert report.body["mission"]["outcome"] == "Stalled"
    assert [(f["node_id"], f["trigger"]) for f in report.body["freezes"]] == [("TASK-FX-001", "cap-breached")]
    assert "nodes never verified: ['TASK-FX-001', 'TASK-FX-002']" in report.assertion_failures
    assert report.body["budgets"]["per_node"]["TASK-FX-001"]["attempts"] == 1


# -- the stress ladder -------------------------------------------------------


def test_stress_window_trips_the_breaker():
    report = run(load_bundled_scenario(STRESS_WINDOW_FIXTURE))
    assert report.assertion_failures == []
    assert report.body["mission"]["outcome"] == "Frozen"
    assert [f["tick"] for f in report.body["freezes"]] == [1050, 1300, 1550, 1800]
    assert [e["tier"] for e in report.body["escalations"]] == [
        "Advisory", "Restrictive", "Restrictive", "CircuitBreaker",
    ]
    mission_wide = [
        r
        for r in report.ledger if r.kind is RecordKind.FREEZE_EVENT
        if report.ledger.payload(r.seq).get("scope") == "MissionWide"
    ]
    assert len(mission_wide) == 1
    assert report.dispute_case is not None
    assert report.dispute_case.case_id == "MISSION-STRESS-0004-WND-CB"
    assert report.body["token_flows"]["pool"] == {
        "total": "200.00",
        "escrow_state": "Funded",
    }


def _parallel_root_stress():
    """Stress-window plus a second root with no probe that the sink also
    waits on: it is still Running when the breaker trips at tick 1800."""
    raw = raw_fixture(STRESS_WINDOW_FIXTURE)
    runner = raw["agents"][0]
    runner["bids"].append(
        {"node_id": "TASK-ST-001B", "accuracy_sla": "0.9990", "completion_ticks": 2000}
    )
    templates = raw["job"]["task_templates"]
    bystander = dict(templates[0], template_id="TASK-ST-001B", title="bystander sweep")
    templates.insert(1, bystander)
    templates[-1]["depends_on"] = ["TASK-ST-001", "TASK-ST-001B"]
    raw["execution_plan"]["TASK-ST-001B"] = {
        "duration_ticks": 2000,
        "tokens": 100,
        "tool_calls": 1,
        "messages": 1,
        "metrics": {"latency_ms": 118},
    }
    return scenario_from_dict(raw)


def test_breaker_moves_are_recorded_once_in_node_order():
    report = run(_parallel_root_stress())
    assert report.body["mission"]["outcome"] == "Frozen"
    at_trip = [t for t in report.body["transitions"] if t["tick"] == 1800]
    assert at_trip == [
        {"tick": 1800, "node_id": "TASK-ST-001", "from": "Running", "to": "Frozen"},
        {"tick": 1800, "node_id": "TASK-ST-001B", "from": "Running", "to": "Frozen"},
    ]


def test_stress_window_short_fault_stays_restrictive():
    raw = raw_fixture(STRESS_WINDOW_FIXTURE)
    raw["faults"][0]["deactivate_tick"] = 1700
    raw["expectations"] = {}
    report = run(scenario_from_dict(raw))
    assert report.assertion_failures == []
    assert report.body["mission"]["outcome"] == "Completed"
    assert [e["tier"] for e in report.body["escalations"]] == [
        "Advisory", "Restrictive", "Restrictive",
    ]


def test_restrictive_tier_halves_remaining_tool_budget():
    raw = raw_fixture(STRESS_WINDOW_FIXTURE)
    raw["faults"][0]["deactivate_tick"] = 1700
    raw["expectations"] = {}
    report = run(scenario_from_dict(raw))
    meter = report.runs["TASK-ST-001"].meter
    # 40 -> 20 -> 10 across the two Restrictive rollbacks
    assert meter.tool_call_cap == 10
    assert meter.tool_calls == 6


def test_behavior_override_freezes_the_node():
    raw = raw_fixture(FAULT_DRILL_FIXTURE)
    raw["faults"].append(
        {
            "kind": "BehaviorOverride",
            "node_id": "TASK-FX-002",
            "behavior_name": "token-overrun",
            "activate_tick": 1700,
            "deactivate_tick": 1900,
        }
    )
    raw["expectations"] = {}
    raw["timeline"] = []
    report = run(scenario_from_dict(raw))
    assert report.body["mission"]["outcome"] == "Stalled"
    triggers = [f["trigger"] for f in report.body["freezes"]]
    assert "budget-exceeded" in triggers
    assert any("TASK-FX-002" in f for f in report.assertion_failures)


@pytest.mark.parametrize(
    "name, trigger, scope_ok",
    [
        ("tool-storm", "cap-breached", True),
        ("message-flood", "cap-breached", True),
        ("scope-breach", None, False),
    ],
)
def test_each_named_override_reaches_the_run(name, trigger, scope_ok):
    raw = raw_fixture(FAULT_DRILL_FIXTURE)
    raw["faults"].append(
        {
            "kind": "BehaviorOverride",
            "node_id": "TASK-FX-002",
            "behavior_name": name,
            "activate_tick": 1700,
            "deactivate_tick": 1900,
        }
    )
    raw["expectations"] = {}
    raw["timeline"] = []
    report = run(scenario_from_dict(raw))
    triggers = [f["trigger"] for f in report.body["freezes"] if f["node_id"] == "TASK-FX-002"]
    assert triggers == ([trigger] if trigger else [])
    calls = [
        report.ledger.payload(r.seq)
        for r in report.ledger if r.kind is RecordKind.TOOL_CALL
        if report.ledger.payload(r.seq)["node_id"] == "TASK-FX-002"
    ]
    assert calls and all(c["contract_scope_ok"] is scope_ok for c in calls)


@pytest.mark.parametrize("name", ["nope", "", ["tool-storm"]])
def test_unknown_override_name_is_rejected_at_load(name):
    raw = raw_fixture(FAULT_DRILL_FIXTURE)
    _unknown_override_behavior(raw)
    raw["faults"][1]["behavior_name"] = name
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(raw)
    assert str(err.value) == f"faults[1].behavior_name: unknown behavior {name!r}"

# -- emission ----------------------------------------------------------------


def test_json_emission_parses_and_sorts(case_report):
    blob = emit_report(case_report)
    parsed = json.loads(blob)
    # tuples in the live body come back as lists; that is the only delta
    assert parsed == json.loads(json.dumps(case_report.body))
    assert parsed["fingerprint"] == case_report.fingerprint
    assert blob == emit_report(case_report, format="json")


def test_text_summary_carries_the_fingerprint(case_report):
    text = emit_report(case_report, format="text-summary").decode()
    lines = text.splitlines()
    assert lines[-1] == f"fingerprint {case_report.fingerprint}"
    assert any(line.startswith("mission MISSION-20260311-0847-CBFX") for line in lines)
    assert "assertion failures 0" in text
    assert "FAIL" not in text


def test_text_summary_lists_failures():
    raw = raw_fixture(FAULT_DRILL_FIXTURE)
    raw["expectations"] = {"mission.outcome": "Exploded"}
    report = run(scenario_from_dict(raw))
    text = emit_report(report, format="text-summary").decode()
    assert "assertion failures 1" in text
    assert "  FAIL mission.outcome" in text


def test_unknown_format_raises(case_report):
    with pytest.raises(ValidationError, match="unknown report format"):
        emit_report(case_report, format="yaml")
