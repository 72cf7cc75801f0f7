"""The mutation corpus as a differential oracle.

Every single-leaf mutation of a bundled fixture (`test_harness`'s
`MUTATION_SITES` x `MUTATION_VALUES`) and the benchmark's generated documents
at seeds 1, 11 and 21 each give one line: the site, the value, and either
the `ConfigError` text or the run's outcome, fingerprint and ledger head.
`oracles/mutation-corpus.json` pins the class counts and the sha256 of the
sorted lines, so a change that moves any one run's bytes fails here.

To see which lines a change moves, print them on both sides and diff:

    PYTHONPATH=src:tests python -m test_mutation_corpus > lines.txt
    PYTHONPATH=src:tests python -m test_mutation_corpus --oracle

The second form prints the oracle document instead. The digest moves only
the way a fingerprint pin does: a bug fix or a planned change that names
each class that moved and the new digest.
"""
import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

from govsim.errors import ConfigError
from govsim.harness import run, scenario_from_dict
from test_harness import MUTATION_SITES, MUTATION_VALUES, WORKLOADS, mutated_fixture

ORACLE = Path(__file__).parent / "oracles" / "mutation-corpus.json"
BENCH_SEEDS = (1, 11, 21)


def _outcome(raw) -> list[str]:
    try:
        config = scenario_from_dict(raw)
    except ConfigError as err:
        return ["ConfigError", json.dumps(str(err))]
    report = run(config)
    return [report.body["mission"]["outcome"], report.fingerprint, report.body["ledger"]["head_digest"]]


def corpus_lines() -> list[str]:
    """One tab-separated line per input, sorted."""
    lines = [
        "\t".join([json.dumps([name, *keys]), json.dumps(value), *_outcome(mutated_fixture(name, keys, value))])
        for name, keys in MUTATION_SITES
        for value in MUTATION_VALUES
    ]
    lines += [
        "\t".join([json.dumps([f"bench/{name}"]), json.dumps(seed), *_outcome(WORKLOADS[name](seed))])
        for name in sorted(WORKLOADS)
        for seed in BENCH_SEEDS
    ]
    return sorted(lines)


def summary(lines: list[str]) -> dict:
    """What the oracle pins: the input count, the inputs per class (the
    third field) and the sha256 of the sorted lines."""
    return {
        "inputs": len(lines),
        "classes": dict(sorted(Counter(line.split("\t")[2] for line in lines).items())),
        "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
    }


def test_the_corpus_matches_its_oracle():
    assert summary(corpus_lines()) == json.loads(ORACLE.read_text())


if __name__ == "__main__":
    lines = corpus_lines()
    if sys.argv[1:] == ["--oracle"]:
        print(json.dumps(summary(lines), indent=2))
    else:
        print("\n".join(lines))
