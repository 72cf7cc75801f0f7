"""Command-line front end.

Four verbs: replay a scenario file, replay the bundled settlement scenario,
audit a ledger dump, and sweep an incentive grid. Exit status is the contract:
0 clean, 1 when assertions fail, the chain is broken, or the grid has
violations, 2 for unusable input.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .economy import (
    IncentiveParams,
    ParamError,
    check_incentive_compatibility,
)
from .harness import (
    CASE_STUDY_FIXTURE,
    ConfigError,
    FormatError,
    RunReport,
    emit_report,
    load_bundled_scenario,
    load_scenario,
    run,
)
from .ledger import verify_jsonl


def _add_report_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", type=Path, default=None, help="write the report here instead of stdout")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument(
        "--format", choices=("json", "text-summary"), default="json", help="report format"
    )
    parser.add_argument(
        "--ledger-out", type=Path, default=None, help="also write the ledger dump (JSONL)"
    )


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
        args.ledger_out.write_text(report.ledger_jsonl, encoding="utf-8")
    failures = report.assertion_failures
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


def _verify_ledger(path: Path) -> int:
    lines = path.read_text(encoding="utf-8").splitlines()
    verdict = verify_jsonl(lines)
    if verdict:
        print(f"ok: {len(lines)} records, chain intact")
        return 0
    print(f"broken at seq {verdict.first_broken_seq}", file=sys.stderr)
    return 1


def _check_economy(path: Path) -> int:
    tables = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(tables, dict) or "reward" not in tables or "slash" not in tables:
        raise ParamError("params file needs 'reward' and 'slash' tables")
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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _report(load_scenario(args.scenario), args)
        if args.command == "replay-case-study":
            return _report(load_bundled_scenario(CASE_STUDY_FIXTURE), args)
        if args.command == "verify-ledger":
            return _verify_ledger(args.ledger)
        return _check_economy(args.params)
    except (ConfigError, ParamError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: not valid JSON: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
