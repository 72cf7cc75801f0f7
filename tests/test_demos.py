"""Each bundled demo runs to completion and prints its headline line."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo, line",
    [
        ("replay_settlement.py", "assertion failures: 0"),
        ("fault_containment.py", "escalation case filed: MISSION-STRESS-0004-WND-CB"),
        ("economy_audit.py", "untouched chain verifies: True"),
        ("economy_audit.py", "forged actor in the dump: offline check broken at seq 20"),
    ],
)
def test_demo_runs_and_prints(demo, line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert line in [printed.strip() for printed in result.stdout.splitlines()]
