"""Pinned report fingerprints and ledger heads of the bundled fixtures and of
the benchmark's generated workloads.

A replay is byte-for-byte deterministic, so the fingerprint is an exact check
of the driver's behaviour: a refactor must leave these values as they are. A
change that moves one on purpose names the old and the new value. The ledger
head covers every payload byte, so it also catches a value that changes its
JSON encoding without changing the report.
"""
import json
import os
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from govsim.harness import (
    CASE_STUDY_FIXTURE,
    FAULT_DRILL_FIXTURE,
    STRESS_WINDOW_FIXTURE,
    load_bundled_scenario,
    run,
    scenario_from_dict,
)

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS_PY = ROOT / "bench" / "workloads.py"

PINNED = {
    CASE_STUDY_FIXTURE: ("a1803bf4f61ebf588113194dd51ab78bb327bb4eca59955cafe605247561f102", 120),
    FAULT_DRILL_FIXTURE: ("87501f33b362488f98c61fcdad657295f48f34b4a05543bed46052e8be1722d9", 39),
    STRESS_WINDOW_FIXTURE: ("68da914ea4d610c147e989b056c4f35d7add4281fc4796e30f3c8742b636b70e", 37),
}

HEADS = {
    CASE_STUDY_FIXTURE: "sha256:c13192d9d55e18810e9f870c0486f725f895277a528624f1ab70d147e7ff320f",
    FAULT_DRILL_FIXTURE: "sha256:b1b2ae2ef7c215a8f99aca03ba31c15c43b0d2cf7f7b6b6dc272ec4d8e855d7e",
    STRESS_WINDOW_FIXTURE: "sha256:72cd33ce7bdee636a545442fc799deff3f1e0a549ae45609dee08ac0fa19fc72",
}

# The benchmark's generated documents at seed 11: fingerprint, records, head.
GENERATED = {
    "long-chain": (
        "053dd11216af13cac8e84852eb6670ad7b77ed4521d362060c1bfd23528fff73",
        2814,
        "sha256:e3f650f5aa56f51ff6dfece18750c52297ed86d50f9a546791e57c88ebe69221",
    ),
    "audit-sweep": (
        "87d5d7b14b22837f9668e529fd55350382a050597036c1fea14824b3fe954f6b",
        4119,
        "sha256:9b7cd45544dfb4f0672d4468740c60523e4fbef1711eaceddada7ae210d2c369",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_fixture_fingerprint_is_pinned(name):
    fingerprint, records = PINNED[name]
    report = run(load_bundled_scenario(name))
    assert report.body["ledger"]["records"] == records
    assert report.fingerprint == fingerprint
    assert report.body["ledger"]["head_digest"] == HEADS[name]


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_bench_workload_is_pinned(name):
    # run_path executes the generator's source without importing it as a
    # module, so nothing is written next to it.
    workloads = runpy.run_path(str(WORKLOADS_PY))
    fingerprint, records, head = GENERATED[name]
    report = run(scenario_from_dict(workloads["GENERATORS"][name](11)))
    assert report.body["ledger"]["records"] == records
    assert report.fingerprint == fingerprint
    assert report.body["ledger"]["head_digest"] == head


# Replays each named fixture, or generated document at seed 11, and prints
# its fingerprint, record count and head as JSON. Stdlib and govsim only.
REPLAY = """
import json, runpy, sys
from govsim.harness import load_bundled_scenario, run, scenario_from_dict
generators = runpy.run_path(sys.argv[1])["GENERATORS"]
out = {}
for name in sys.argv[2:]:
    report = run(scenario_from_dict(generators[name](11)) if name in generators else load_bundled_scenario(name))
    out[name] = [report.fingerprint, report.body["ledger"]["records"], report.body["ledger"]["head_digest"]]
print(json.dumps(out))
"""

PURE_JSON_RUN = """
import sys
sys.modules["_json"] = None
import json
assert json.encoder.c_make_encoder is None
""" + REPLAY


def replay_elsewhere(python, script, names):
    """The pins `script` prints when `python` runs it on `names`."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [python, "-c", script, str(WORKLOADS_PY), *names],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_fixtures_replay_to_their_pins_without_the_json_accelerator():
    # `import json` falls back to its pure-Python encoder when `_json` cannot
    # be imported; `canonical` must then write the same bytes.
    assert replay_elsewhere(sys.executable, PURE_JSON_RUN, sorted(PINNED)) == {
        name: [fingerprint, records, HEADS[name]] for name, (fingerprint, records) in PINNED.items()
    }


OTHER_PYTHONS = [f"python3.{minor}" for minor in range(10, 14) if minor != sys.version_info.minor]


def test_other_interpreters_replay_to_the_pins():
    # Every CPython the package supports must write the same bytes. A
    # `python3.N` on PATH may be a version-manager shim that does not start.
    found = [
        python for python in map(shutil.which, OTHER_PYTHONS)
        if python and subprocess.run([python, "-c", ""], capture_output=True, timeout=60).returncode == 0
    ]
    if not found:
        pytest.skip(f"none of {', '.join(OTHER_PYTHONS)} starts")
    expected = {name: [fingerprint, records, HEADS[name]] for name, (fingerprint, records) in PINNED.items()}
    expected.update({name: list(pins) for name, pins in GENERATED.items()})
    for python in found:
        assert replay_elsewhere(python, REPLAY, sorted(expected)) == expected, python
