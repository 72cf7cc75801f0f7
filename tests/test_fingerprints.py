"""Pinned report fingerprints of the bundled fixtures.

A replay is byte-for-byte deterministic, so the fingerprint is an exact check
of the driver's behaviour: a refactor must leave these values as they are. A
change that moves one on purpose names the old and the new value.
"""
import pytest

from govsim.harness import (
    CASE_STUDY_FIXTURE,
    FAULT_DRILL_FIXTURE,
    STRESS_WINDOW_FIXTURE,
    load_bundled_scenario,
    run,
)

PINNED = {
    CASE_STUDY_FIXTURE: ("a1803bf4f61ebf588113194dd51ab78bb327bb4eca59955cafe605247561f102", 120),
    FAULT_DRILL_FIXTURE: ("87501f33b362488f98c61fcdad657295f48f34b4a05543bed46052e8be1722d9", 39),
    STRESS_WINDOW_FIXTURE: ("68da914ea4d610c147e989b056c4f35d7add4281fc4796e30f3c8742b636b70e", 37),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_fixture_fingerprint_is_pinned(name):
    fingerprint, records = PINNED[name]
    report = run(load_bundled_scenario(name))
    assert report.body["ledger"]["records"] == records
    assert report.fingerprint == fingerprint
