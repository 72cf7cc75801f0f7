"""Tests of the benchmark itself: inputs, arithmetic, accounting, tracing.

    PYTHONPATH=src python -m pytest -q bench
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
import tracer
import workloads

govsim = run.import_govsim()


def small_chain(seed: int = 3, **overrides) -> dict:
    shape = {"name": "small", "nodes": 4, "evidence": 2, "loops": 2, **overrides}
    return workloads.chain_document(seed, **shape)


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generator_is_deterministic_and_loads(name):
    generate = workloads.GENERATORS[name]
    first, again, other = generate(11), generate(11), generate(12)
    assert workloads.document_bytes(first) == workloads.document_bytes(again)
    assert workloads.document_bytes(first) != workloads.document_bytes(other)
    assert first["seed"] != other["seed"]
    assert [a["did"] for a in first["agents"]] != [a["did"] for a in other["agents"]]
    assert first["expectations"] == other["expectations"]
    assert first["expectations"]["mission.outcome"] == "Completed"
    govsim.scenario_from_dict(first)


def test_expected_record_count_matches_a_replay():
    report = govsim.run(govsim.scenario_from_dict(small_chain()))
    assert report.assertion_failures == []
    assert report.body["ledger"]["records"] == workloads.expected_records(4, 2, 2)


def test_self_time_subtracts_the_time_children_cover():
    spans = [
        ("root", 0, 100, -1, 0),
        ("a", 10, 30, 0, 0),
        ("a.leaf", 12, 20, 1, 0),
        ("b", 40, 70, 0, 0),
        ("c", 65, 90, 0, 0),  # overlaps b: the union is covered once
        ("leaf", 95, 99, -1, 0),
    ]
    assert tracer.self_times(spans) == [100 - 20 - 50, 20 - 8, 8, 30, 25, 4]
    table = tracer.profile(spans, [0])[0]
    assert table["root"] == {"calls": 1, "s": 100e-9, "self_s": 30e-9}


@pytest.mark.parametrize(
    "n, index, percentile",
    [(11, 0, 100 / 11), (20, 9, 50.0), (100, 89, 90.0), (1000, 989, 99.0)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, index, percentile):
    samples = [float(i) for i in reversed(range(n))]
    value, pct = run.tail(samples)
    assert value == float(index)
    assert sum(1 for s in samples if s > value) == 10
    assert pct == pytest.approx(percentile)


def test_tail_of_ten_or_fewer_samples_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


class Raises:
    def op(self):
        raise RuntimeError("boom")


def test_an_op_that_raises_is_counted_and_the_run_goes_on():
    good = run.Generated(govsim, "small", small_chain())
    result = run.Run()
    result.attempt(good)
    failed = result.attempt(Raises())
    result.attempt(good)
    assert result.failed == 1
    assert failed.failures == ["raised RuntimeError: boom"]
    assert len(result.ok()) == 2


def test_a_chain_without_a_provenance_seal_fails_its_ops():
    # Today this escapes `run` as a ValidationError from decompose instead of
    # landing in assertion_failures; either way every op counts as failed.
    broken = run.Generated(govsim, "unsealed", small_chain(seals_provenance=False))
    result = run.measure(broken, 0.05, None)
    assert len(result.ops) >= 1
    assert result.failed == len(result.ops)


def test_an_op_whose_fingerprint_moves_fails():
    result = run.Run()
    result.attempt(run.Generated(govsim, "small", small_chain(seed=3)))
    moved = result.attempt(run.Generated(govsim, "small", small_chain(seed=4)))
    assert moved.failures == ["fingerprint or ledger head differs from the first op"]


def test_traced_replay_keeps_the_fingerprint_and_restores_the_functions():
    from govsim import harness, ledger

    originals = (harness.states_snapshot, harness.run, ledger.canonical, ledger.AuditLedger.append)
    workload = run.Generated(govsim, "small", small_chain())
    trace = tracer.Tracer()
    result = run.Run()
    result.attempt(workload)
    result.attempt(workload, trace)
    assert result.failed == 0 and result.traced == [1]
    assert (harness.states_snapshot, harness.run, ledger.canonical, ledger.AuditLedger.append) == originals
    names = {span[0] for span in trace.spans}
    assert {"harness.run", "execution.states_snapshot", "ledger.append", "adjudication.post_mortem"} <= names
    assert "ledger.canonical" not in names and trace.counts[1]["ledger.canonical"] > 0
    assert trace.counts[1][tracer.VERIFIED_RECORDS] > 0


def test_benchmark_json_lists_the_metrics_the_script_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["fixtures", *workloads.GENERATORS]
