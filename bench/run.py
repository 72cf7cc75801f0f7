"""govsim benchmark: replay scenarios through the public entry points and time them.

    python3 bench/run.py --workload long-chain --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

One process runs one workload as a closed loop: a single client issues ops
back to back in one thread. Each op replays (the timed step), then verifies
its own ledger dump offline. `--trace 0` prints the end-to-end metrics;
`--trace 1` alternates untraced and traced ops and prints the per-layer
metrics. The last line of stdout is one JSON object with the result.
`--workload all` runs every workload, each in a fresh interpreter.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170

# Gated end-to-end metrics. The replay tail and the failed share are printed
# too, without a bound (see README.md).
END_TO_END = {
    "setup_s": "s",
    "replay_s_p50": "s",
    "records_per_s": "1/s",
    "verify_records_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ops_ok": "share",
}

# Per-layer metrics as (metric, unit). A self time is listed only for a span
# that every workload enters; spans some workload never enters report calls,
# and their times appear in the traced run's table.
PER_LAYER = [
    ("harness.scenario_from_dict.s", "s"),
    ("harness.run.self_s", "s"),
    ("harness.emit_report.s", "s"),
    *[
        (f"{span}.{field}", "count" if field == "calls" else "s")
        for span in (
            "execution.states_snapshot",
            "execution.transition",
            "execution.execute_node",
            "execution.guardian_check",
            "execution.gate_verify",
            "legislation.TaskDAG.topological_order",
            "legislation.TaskDAG.dependencies",
            "ledger.append",
            "ledger.verify_chain",
            "ledger.pedigree",
            "ledger.records_of_kind",
            "adjudication.post_mortem",
            "economy.Treasury.fund_pool",
            "economy.Treasury.distribute",
            "identity.register_agent",
            "identity.transition_cert",
            "identity.baseline",
        )
        for field in ("calls", "self_s")
    ],
    *[
        (f"{span}.self_s", "s")
        for span in (
            "legislation.decompose",
            "legislation.prescreen",
            "legislation.run_bidding",
            "legislation.generate_contract_stack",
            "adjudication.run_correction_loop",
        )
    ],
    *[
        (f"{span}.calls", "count")
        for span in (
            "execution.rollback",
            "adjudication.file_dispute",
            "adjudication.advance_dispute",
            "economy.Treasury.slash",
            "economy.Treasury.settle_cross_node",
            "economy.Treasury.transfer",
            "cli.main",
            "ledger.canonical",
            "ledger.payload",
        )
    ],
    ("ledger.verify_chain.records", "count"),
    ("ledger.canonical_per_append", "ratio"),
    ("ledger.verify_amplification", "ratio"),
    ("ledger.dump_jsonl.s", "s"),
    ("ledger.verify_jsonl.s", "s"),
    *[(f"{layer}.self_s", "s") for layer in tracer.LAYERS if layer != "cli"],
    ("trace.overhead", "ratio"),
]


# -- the program under test ---------------------------------------------------


def import_govsim():
    """Import govsim from this checkout's sources, never from elsewhere."""
    package = SRC / "govsim"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no govsim sources at {package}")
    sys.path.insert(0, str(SRC))
    import govsim

    if Path(govsim.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported govsim from {govsim.__file__}, not {package}")
    return govsim


class Op:
    """What one op produced, or why it failed."""

    def __init__(self) -> None:
        self.replay_s = 0.0
        self.verify_s = 0.0
        self.records = 0
        self.identity: list[tuple[str, int, str, str]] = []  # (name, records, fingerprint, head)
        self.failures: list[str] = []

    def check(self, name: str, body: dict, lines: list[str], verdict) -> None:
        records = body["ledger"]["records"]
        self.records += records
        self.identity.append((name, records, body["fingerprint"], body["ledger"]["head_digest"]))
        if body["assertion_failures"]:
            self.failures.append(f"{name}: assertion failures {body['assertion_failures']}")
        if not verdict:
            self.failures.append(f"{name}: verify_jsonl broken at seq {verdict.first_broken_seq}")
        if len(lines) != records:
            self.failures.append(f"{name}: dump has {len(lines)} lines for {records} records")


class Fixtures:
    """The three bundled scenarios, replayed through `govsim run` in-process."""

    def __init__(self, govsim) -> None:
        from govsim import cli, harness

        self.govsim = govsim
        self.cli = cli
        self.paths = [Path(str(harness.bundled_scenario_path(name))) for name in workloads.FIXTURES]
        self.work = OUT_DIR / f"fixtures-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)

    def op(self) -> Op:
        result = Op()
        for path in self.paths:
            report_path = self.work / f"{path.stem}.report.json"
            ledger_path = self.work / f"{path.stem}.ledger.jsonl"
            argv = ["run", str(path), "--out", str(report_path), "--ledger-out", str(ledger_path)]
            start = time.perf_counter()
            code = self.cli.main(argv)
            result.replay_s += time.perf_counter() - start
            if code != 0:
                result.failures.append(f"{path.name}: govsim run exited {code}")
                continue
            body = json.loads(report_path.read_bytes())
            lines = ledger_path.read_text(encoding="utf-8").splitlines()
            start = time.perf_counter()
            verdict = self.govsim.verify_jsonl(lines)
            result.verify_s += time.perf_counter() - start
            result.check(path.stem, body, lines, verdict)
        return result

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


class Generated:
    """A generated scenario document, replayed through the library API."""

    def __init__(self, govsim, name: str, document: dict) -> None:
        self.govsim = govsim
        self.name = name
        self.document = document

    def op(self) -> Op:
        g = self.govsim
        result = Op()
        start = time.perf_counter()
        report = g.run(g.scenario_from_dict(self.document))
        blob = g.emit_report(report)
        dump = report.ledger_jsonl
        result.replay_s = time.perf_counter() - start
        lines = dump.splitlines()
        start = time.perf_counter()
        verdict = g.verify_jsonl(lines)
        result.verify_s = time.perf_counter() - start
        body = json.loads(blob)
        if body["fingerprint"] != report.fingerprint:
            result.failures.append(f"{self.name}: emitted report does not carry the run's fingerprint")
        result.check(self.name, body, lines, verdict)
        return result

    def close(self) -> None:
        pass


def setup(name: str, seed: int):
    """Import govsim and build the workload's inputs: what `setup_s` times."""
    govsim = import_govsim()
    if name == "fixtures":
        # The fixtures carry their own seeds; the benchmark seed does not apply.
        return Fixtures(govsim)
    return Generated(govsim, name, workloads.GENERATORS[name](seed))


# -- measurement ----------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile). With ten samples or fewer, the maximum."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def time_setups(name: str, seed: int) -> list[float]:
    """Fresh interpreter to first op, once per probe, each in its own process."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            try:
                ready = child.stdout.readline()
                elapsed = time.perf_counter() - start
                child.communicate(timeout=CHILD_TIMEOUT_S)
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait()
        if child.returncode != 0 or ready.strip() != "ready":
            raise SystemExit(f"bench: set-up probe failed with exit code {child.returncode}")
        times.append(elapsed)
    return times


class Run:
    def __init__(self) -> None:
        self.ops: list[Op] = []
        self.traced: list[int] = []
        self.reference: list[tuple[str, int, str, str]] | None = None

    def attempt(self, workload, trace: tracer.Tracer | None = None) -> Op:
        index = len(self.ops)
        try:
            if trace is None:
                op = workload.op()
            else:
                with trace.op(index):
                    op = workload.op()
                self.traced.append(index)
        except Exception as exc:
            if not any(o.failures for o in self.ops):
                traceback.print_exc(file=sys.stderr)
            op = Op()
            op.failures.append(f"raised {type(exc).__name__}: {exc}")
        if not op.failures:
            if self.reference is None:
                self.reference = op.identity
            elif op.identity != self.reference:
                op.failures.append("fingerprint or ledger head differs from the first op")
        self.ops.append(op)
        return op

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.failures)

    def ok(self, indices=None) -> list[Op]:
        chosen = self.ops if indices is None else [self.ops[i] for i in indices]
        return [op for op in chosen if not op.failures]


def measure(workload, seconds: float, trace: tracer.Tracer | None) -> Run:
    """Closed loop: the next op starts when the previous one returns. With a
    tracer, every second op is traced, so at least two ops run."""
    run = Run()
    deadline = time.perf_counter() + seconds
    while len(run.ops) < (2 if trace else 1) or time.perf_counter() < deadline:
        traced = trace is not None and len(run.ops) % 2 == 1
        op = run.attempt(workload, trace if traced else None)
        if op.failures and run.failed <= 3:
            print(f"op {len(run.ops) - 1} failed: {'; '.join(op.failures)}", file=sys.stderr)
    return run


def end_to_end(run: Run, setups: list[float]) -> dict[str, float]:
    ok = run.ok()
    replay = [op.replay_s for op in ok]
    records = sum(op.records for op in ok)
    return {
        "setup_s": statistics.median(setups),
        "replay_s_p50": statistics.median(replay),
        "records_per_s": records / sum(replay),
        "verify_records_per_s": records / sum(op.verify_s for op in ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_ok": len(ok) / len(run.ops),
    }


def per_layer(run: Run, trace: tracer.Tracer):
    """Median per traced op of each per-layer metric, plus the median span
    table and counters for the report."""
    traced = [i for i in run.traced if not run.ops[i].failures]
    profiles = tracer.profile(trace.spans, traced)
    names = sorted({name for p in profiles.values() for name in p})

    def med(values) -> float:
        return statistics.median(values) if values else 0.0

    table = {
        name: {f: med([profiles[i][name][f] if name in profiles[i] else 0.0 for i in traced]) for f in ("calls", "s", "self_s")}
        for name in names
    }
    counts = {name: med([trace.counts[i][name] for i in traced]) for name in (*tracer.COUNTED, tracer.VERIFIED_RECORDS)}
    appends = table.get("ledger.append", {}).get("calls", 0.0)
    derived = {
        "ledger.canonical_per_append": counts["ledger.canonical"] / appends if appends else 0.0,
        "ledger.verify_amplification": counts[tracer.VERIFIED_RECORDS] / appends if appends else 0.0,
    }
    values: dict[str, float] = {}
    for metric, _ in PER_LAYER:
        span, _, field = metric.rpartition(".")
        if metric in derived:
            values[metric] = derived[metric]
        elif metric in counts:
            values[metric] = counts[metric]
        elif span in counts:
            values[metric] = counts[span]
        elif span in tracer.LAYERS:
            values[metric] = sum(row["self_s"] for name, row in table.items() if name.split(".")[0] == span)
        elif span != "trace":
            values[metric] = table.get(span, {}).get(field, 0.0)
    traced_set = set(run.traced)
    untraced = [op.replay_s for i, op in enumerate(run.ops) if i not in traced_set and not op.failures]
    traced_replay = [run.ops[i].replay_s for i in traced]
    values["trace.overhead"] = statistics.median(traced_replay) / statistics.median(untraced) - 1
    return values, table, counts


# -- reporting --------------------------------------------------------------------


def run_one(args) -> int:
    setups = time_setups(args.workload, args.seed)
    workload = setup(args.workload, args.seed)
    trace = tracer.Tracer() if args.trace else None
    try:
        started = time.perf_counter()
        run = measure(workload, args.seconds, trace)
        elapsed = time.perf_counter() - started
    finally:
        workload.close()
    print(f"workload {args.workload} seed {args.seed}: {len(run.ops)} ops, {run.failed} failed, {elapsed:.1f} s")
    for label, records, fingerprint, head in run.reference or ():
        print(f"fingerprint {label} {fingerprint} records {records} head {head}")
    traced = set(run.traced)
    untraced = [i for i in range(len(run.ops)) if i not in traced]
    ok = bool(run.ok(untraced)) and (not args.trace or bool(run.ok(run.traced)))
    metrics: dict[str, dict] = {}
    if ok:
        if args.trace:
            values, table, counts = per_layer(run, trace)
            units = dict(PER_LAYER)
            print(f"{'span':48} {'calls':>9} {'total_s':>10} {'self_s':>10}   (median per traced op)")
            for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
                print(f"{name:48} {row['calls']:9.0f} {row['s']:10.6f} {row['self_s']:10.6f}")
            for name in tracer.COUNTED:
                print(f"{name:48} {counts[name]:9.0f}   (counted, no span)")
            OUT_DIR.mkdir(exist_ok=True)
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            trace.write(spans_path)
            print(f"spans written to {spans_path.relative_to(ROOT)}")
        else:
            values = end_to_end(run, setups)
            units = END_TO_END
            replay = [op.replay_s for op in run.ok()]
            value, pct = tail(replay)
            print(f"{'replay_s_tail':40} {value:14.6f} s (p{pct:.1f} of {len(replay)} samples; no bound)")
            print(f"{'ops_failed':40} {run.failed / len(run.ops):14.6f} share ({run.failed} of {len(run.ops)}; no bound)")
            print(f"setup_s is the median of {len(setups)} fresh interpreters")
        for name, value in values.items():
            print(f"{name:40} {value:14.6f} {units[name]}")
        metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    result = {"correct": ok and run.failed == 0, "attempted": len(run.ops), "failed": run.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if ok else 1


def run_all(args) -> int:
    """Each workload in a fresh interpreter, then one table of all results."""
    results = {}
    for name in ("fixtures", *workloads.GENERATORS):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S + args.seconds * 2)
        sys.stdout.write(child.stdout)
        lines = child.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if child.returncode == 0 else {"correct": False, "metrics": {}}
    print()
    print(f"{'metric':40} {'unit':6}" + "".join(f" {name:>14}" for name in results))
    for metric, unit in (PER_LAYER if args.trace else END_TO_END.items()):
        cells = "".join(
            f" {r['metrics'][metric]['value']:14.6g}" if metric in r["metrics"] else f" {'-':>14}"
            for r in results.values()
        )
        print(f"{metric:40} {unit:6}{cells}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("all", "fixtures", *workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        workload = setup(args.workload, args.seed)
        workload.close()
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
