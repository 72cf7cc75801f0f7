"""Command-line front end.

Four verbs: replay a scenario file, replay the bundled settlement scenario,
audit a ledger dump, and sweep an incentive grid. Exit status is the contract:
0 clean, 1 when assertions fail, the chain is broken, or the grid has
violations, 2 for unusable input.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .economy import IncentiveParams, check_incentive_compatibility
from .errors import ConfigError, GovsimError, ValidationError
from .harness import (
    CASE_STUDY_FIXTURE,
    RunReport,
    emit_report,
    load_bundled_scenario,
    load_scenario,
    run,
)
from .ledger import verify_jsonl

_HEAD_DIGEST = re.compile("sha256:[0-9a-f]{64}")


def _add_report_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", type=Path, default=None, help="write the report here instead of stdout")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument(
        "--format", choices=("json", "text-summary"), default="json", help="report format"
    )
    parser.add_argument(
        "--ledger-out", type=Path, default=None, help="also write the ledger dump (JSONL)"
    )


def _head_digest(text: str) -> bytes:
    """`sha256:` and 64 lower-case hex digits, as a report writes `ledger.head_digest`."""
    if not _HEAD_DIGEST.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected sha256: and 64 lower-case hex digits, got {text!r}")
    return bytes.fromhex(text[len("sha256:"):])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="govsim", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario file and report")
    run_p.add_argument("scenario", type=Path)
    _add_report_options(run_p)

    replay_p = sub.add_parser(
        "replay-case-study", help="execute the bundled settlement scenario"
    )
    _add_report_options(replay_p)

    verify_p = sub.add_parser("verify-ledger", help="audit a ledger dump for chain breaks")
    verify_p.add_argument("ledger", type=Path)
    verify_p.add_argument(
        "--head",
        type=_head_digest,
        default=None,
        metavar="sha256:HEX",
        help="the run report's ledger.head_digest; a dump whose last line does not end there is broken",
    )

    econ_p = sub.add_parser(
        "check-economy", help="sweep an incentive grid for profitable deviations"
    )
    econ_p.add_argument("params", type=Path)

    return parser


def _apply_seed(config, seed: int | None):
    if seed is None:
        return config
    if not 0 <= seed < 2**64:
        raise ConfigError("seed", "must be a 64-bit unsigned integer")
    return config._replace(seed=seed)


def _report(config, args: argparse.Namespace) -> int:
    report: RunReport = run(_apply_seed(config, args.seed))
    blob = emit_report(report, format=args.format)
    if args.out is None:
        sys.stdout.write(blob.decode())
    else:
        args.out.write_bytes(blob)
    if args.ledger_out is not None:
        args.ledger_out.write_text(report.ledger_jsonl, encoding="utf-8", newline="")
    failures = report.assertion_failures
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


def _verify_ledger(path: Path, head: bytes | None) -> int:
    # The exact text, split on "\n" only: a line ending in "\r" or another
    # character `splitlines` would take as a break is not what govsim writes,
    # and neither is a line of whitespace alone.
    records = [line for line in path.read_bytes().decode("utf-8").split("\n") if line]
    verdict = verify_jsonl(records, head=head)
    if verdict:
        print(f"ok: {len(records)} records, chain intact")
        return 0
    print(f"broken at seq {verdict.first_broken_seq}", file=sys.stderr)
    return 1


def _check_economy(path: Path) -> int:
    tables = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(tables, dict) or "reward" not in tables or "slash" not in tables:
        raise ValidationError("params file needs 'reward' and 'slash' tables")
    params = IncentiveParams.from_tables(
        tables["reward"], tables["slash"], tables.get("detection")
    )
    result = check_incentive_compatibility(params)
    if result.holds:
        print("holds: no profitable deviation on the grid")
        return 0
    for d in result.violations:
        print(f"violation at deviation {d}", file=sys.stderr)
    return 1


# Built once per process: `main` is also called in process, many times over
# (tests, batch scripts), and parsing on a built parser is cheap.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "run":
            return _report(load_scenario(args.scenario), args)
        if args.command == "replay-case-study":
            return _report(load_bundled_scenario(CASE_STUDY_FIXTURE), args)
        if args.command == "verify-ledger":
            return _verify_ledger(args.ledger, args.head)
        return _check_economy(args.params)
    except GovsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: not valid JSON: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: not valid UTF-8: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
