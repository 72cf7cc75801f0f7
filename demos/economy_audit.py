"""Audit the economic machinery without running a full mission.

Sweeps two incentive grids (one sound, one with a profitable deviation),
then attacks a real ledger: a single tampered record must break the chain,
and the offline dump check must catch a forged line."""
import hashlib
import json

from govsim import (
    IncentiveParams,
    check_incentive_compatibility,
    replay_fault_drill,
    verify_jsonl,
)
from govsim.ledger import canonical


def sweep(label: str, reward: dict, slash: dict) -> None:
    params = IncentiveParams.from_tables(reward, slash)
    result = check_incentive_compatibility(params)
    print(f"{label}: {'holds' if result.holds else 'violated'}")
    for d in result.violations:
        gain = reward[str(d)]
        print(f"  deviation {d}: reward {gain} vs honest {reward['0']}, penalty {slash[str(d)]}")


def incentive_grids() -> None:
    flat = {"0": "50.00", "1": "50.00", "2": "50.00", "3": "50.00"}
    bumped = {"0": "50.00", "1": "60.00", "2": "60.00", "3": "60.00"}
    slash = {"0": "0.00", "1": "5.00", "2": "5.00", "3": "5.00"}
    sweep("flat rewards, 5.00 expected penalty", flat, slash)
    sweep("deviation pays 10.00 against the same penalty", bumped, slash)
    print()


def ledger_attacks() -> None:
    report = replay_fault_drill()
    ledger = report.ledger
    print(f"ledger from the drill replay: {len(ledger)} records")
    print(f"  untouched chain verifies: {bool(ledger.verify_chain())}")

    twin = ledger.fork()
    victim = len(twin) // 2
    # An attacker holding the key rewrites one stored payload and redoes its
    # digest and stamp; only the next record's link still names the old one.
    blob = canonical({**twin.payload(victim), "amount": "999999.00"})
    digest = hashlib.sha256(blob).digest()
    old = twin.record(victim)
    twin._records[victim] = old._replace(
        payload_digest=digest, attestation_stamp=twin._stamp(old.seq, digest), payload_bytes=blob
    )
    verdict = twin.verify_chain()
    print(f"  payload rewritten at seq {victim}: broken at seq {verdict.first_broken_seq}")

    lines = report.ledger_jsonl.splitlines()
    row = json.loads(lines[victim])
    row["actor"] = "intruder"
    # Written in the dump's own form, so the next record's link catches it.
    lines[victim] = json.dumps(row, sort_keys=True, separators=(",", ":"))
    offline = verify_jsonl(lines)
    print(f"  forged actor in the dump: offline check broken at seq {offline.first_broken_seq}")


def main() -> None:
    incentive_grids()
    ledger_attacks()


if __name__ == "__main__":
    main()
