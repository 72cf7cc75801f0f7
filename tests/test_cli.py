"""Exit-status contract and plumbing of the command-line front end.

0 clean, 1 for failed assertions, broken chains, or profitable deviations,
2 for unusable input. Everything runs in process through main(argv).
"""
import argparse
import json

import pytest

from govsim.cli import main
from govsim.harness import CASE_STUDY_FIXTURE, FAULT_DRILL_FIXTURE, bundled_scenario_path, load_scenario, run
from govsim.ledger import verify_jsonl
from test_fingerprints import HEADS, PINNED


@pytest.fixture()
def drill_path(tmp_path):
    raw = bundled_scenario_path(FAULT_DRILL_FIXTURE).read_text()
    path = tmp_path / "drill.json"
    path.write_text(raw)
    return path


def test_run_emits_json_and_exits_clean(drill_path, capsys):
    assert main(["run", str(drill_path)]) == 0
    out = capsys.readouterr()
    body = json.loads(out.out)
    assert body["mission"]["outcome"] == "Completed"
    assert body["assertion_failures"] == []
    assert out.err == ""


def test_run_text_summary(drill_path, capsys):
    assert main(["run", str(drill_path), "--format", "text-summary"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1].startswith("fingerprint ")
    assert "slashed 190.00" in out


def test_run_writes_report_file(drill_path, tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["run", str(drill_path), "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["mission"]["outcome"] == "Completed"


def test_ledger_dump_round_trips_through_verify(drill_path, tmp_path, capsys):
    dump = tmp_path / "ledger.jsonl"
    assert main(["run", str(drill_path), "--out", str(tmp_path / "r.json"), "--ledger-out", str(dump)]) == 0
    records = json.loads((tmp_path / "r.json").read_text())["ledger"]["records"]
    assert main(["verify-ledger", str(dump)]) == 0
    assert capsys.readouterr().out == f"ok: {records} records, chain intact\n"
    # Blank lines are skipped, and not counted as records.
    dump.write_text("\n" + dump.read_text().replace("\n", "\n\n"))
    assert main(["verify-ledger", str(dump)]) == 0
    assert capsys.readouterr().out == f"ok: {records} records, chain intact\n"


def test_verify_ledger_catches_tampering(drill_path, tmp_path, capsys):
    dump = tmp_path / "ledger.jsonl"
    main(["run", str(drill_path), "--out", str(tmp_path / "r.json"), "--ledger-out", str(dump)])
    lines = dump.read_text().splitlines()
    record = json.loads(lines[5])
    record["actor"] = "someone-else"
    # Written in the dump's own form, the forged line passes the form check:
    # the next record's link is what catches it.
    lines[5] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    dump.write_text("\n".join(lines) + "\n")
    assert main(["verify-ledger", str(dump)]) == 1
    assert capsys.readouterr().err == "broken at seq 6\n"


def _forge_last(lines):
    record = json.loads(lines[-1])
    record["actor"] = "someone-else"
    return lines[:-1] + [json.dumps(record, sort_keys=True, separators=(",", ":"))]


# Edits to the dump that only the head can show, and the intact dump: (edit, seq it breaks at).
HEAD_EDITS = {
    "intact": (lambda lines: lines, None),
    "dropped tail": (lambda lines: lines[:-5], PINNED[FAULT_DRILL_FIXTURE][1] - 6),
    "forged last line": (_forge_last, PINNED[FAULT_DRILL_FIXTURE][1] - 1),
}


@pytest.mark.parametrize("edit", sorted(HEAD_EDITS))
def test_verify_ledger_checks_the_report_head(drill_path, tmp_path, capsys, edit):
    dump = tmp_path / "ledger.jsonl"
    report = tmp_path / "r.json"
    assert main(["run", str(drill_path), "--out", str(report), "--ledger-out", str(dump)]) == 0
    head = json.loads(report.read_text())["ledger"]["head_digest"]
    change, broken_at = HEAD_EDITS[edit]
    dump.write_text("\n".join(change(dump.read_text().splitlines())) + "\n")
    # Without the head every edit reads intact.
    assert main(["verify-ledger", str(dump)]) == 0
    capsys.readouterr()
    if broken_at is None:
        assert main(["verify-ledger", str(dump), "--head", head]) == 0
    else:
        assert main(["verify-ledger", str(dump), "--head", head]) == 1
        assert capsys.readouterr().err == f"broken at seq {broken_at}\n"


# Every character but "\n" that `str.splitlines` ends a line at; govsim
# writes none of them.
LINE_BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", LINE_BREAKS, ids=lambda char: f"U+{ord(char):04X}")
def test_verify_ledger_breaks_at_a_line_ending_in_a_character_govsim_never_writes(
    drill_path, tmp_path, capsys, char
):
    dump = tmp_path / "ledger.jsonl"
    report = tmp_path / "r.json"
    assert main(["run", str(drill_path), "--out", str(report), "--ledger-out", str(dump)]) == 0
    head = json.loads(report.read_text())["ledger"]["head_digest"]
    lines = dump.read_bytes().decode().split("\n")
    lines[5] += char
    dump.write_bytes("\n".join(lines).encode())
    for flags in ([], ["--head", head]):
        assert main(["verify-ledger", str(dump), *flags]) == 1
        assert capsys.readouterr().err == "broken at seq 5\n"


# Lines of whitespace alone: only an empty line is skipped.
WHITESPACE_LINES = ["\r", " ", "\t", "\x0b", "\u2028"]


@pytest.mark.parametrize("blank", WHITESPACE_LINES, ids=lambda char: f"U+{ord(char):04X}")
def test_a_whitespace_line_between_records_breaks_the_chain_at_its_seq(drill_path, tmp_path, capsys, blank):
    dump = tmp_path / "ledger.jsonl"
    report = tmp_path / "r.json"
    assert main(["run", str(drill_path), "--out", str(report), "--ledger-out", str(dump)]) == 0
    head = json.loads(report.read_text())["ledger"]["head_digest"]
    lines = dump.read_bytes().decode().split("\n")
    lines.insert(5, blank)
    for digest in (None, bytes.fromhex(head.removeprefix("sha256:"))):
        assert verify_jsonl(lines, digest) == (False, 5)
    dump.write_bytes("\n".join(lines).encode())
    for flags in ([], ["--head", head]):
        assert main(["verify-ledger", str(dump), *flags]) == 1
        assert capsys.readouterr().err == "broken at seq 5\n"


def test_ledger_out_is_the_exact_dump_and_a_crlf_copy_breaks_at_seq_0(drill_path, tmp_path, capsys):
    dump = tmp_path / "ledger.jsonl"
    assert main(["run", str(drill_path), "--out", str(tmp_path / "r.json"), "--ledger-out", str(dump)]) == 0
    assert dump.read_bytes() == run(load_scenario(drill_path)).ledger_jsonl.encode()
    dump.write_bytes(dump.read_bytes().replace(b"\n", b"\r\n"))
    assert main(["verify-ledger", str(dump)]) == 1
    assert capsys.readouterr().err == "broken at seq 0\n"


@pytest.mark.parametrize("command", ["run", "verify-ledger", "check-economy"])
def test_a_file_that_is_not_utf8_exits_two_with_one_error_line(tmp_path, capsys, command):
    path = tmp_path / "input.json"
    path.write_bytes(b'{"seed": "\xff"}\n')
    assert main([command, str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ")
    assert "not valid UTF-8" in out.err
    assert out.err.count("\n") == 1


@pytest.mark.parametrize(
    "head", ["c0ffee", "sha256:" + "A" * 64, "sha256:" + "0" * 63, HEADS[FAULT_DRILL_FIXTURE] + " "]
)
def test_malformed_head_is_a_usage_error_naming_the_flag(drill_path, capsys, head):
    with pytest.raises(SystemExit) as exc:
        main(["verify-ledger", str(drill_path), "--head", head])
    assert exc.value.code == 2
    assert "--head" in capsys.readouterr().err


def test_main_builds_no_parser_and_keeps_no_state_between_calls(drill_path, tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    report = tmp_path / "r.json"
    main(["run", str(drill_path), "--seed", "7", "--out", str(report)])
    assert json.loads(report.read_text())["fingerprint"] != PINNED[FAULT_DRILL_FIXTURE][0]
    # The seed of the call before does not carry over.
    assert main(["run", str(drill_path), "--out", str(report)]) == 0
    assert json.loads(report.read_text())["fingerprint"] == PINNED[FAULT_DRILL_FIXTURE][0]
    assert built == []


def test_a_usage_error_leaves_main_usable(drill_path, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", str(drill_path), "--seed", "seven"])
    assert exc.value.code == 2
    report = tmp_path / "r.json"
    assert main(["run", str(drill_path), "--out", str(report)]) == 0
    assert json.loads(report.read_text())["fingerprint"] == PINNED[FAULT_DRILL_FIXTURE][0]


def test_seed_override_reaches_the_report(capsys):
    assert main(["replay-case-study", "--format", "text-summary"]) == 0
    base = capsys.readouterr().out.splitlines()[-1]
    assert main(["replay-case-study", "--format", "text-summary", "--seed", "99"]) == 0
    override = capsys.readouterr().out.splitlines()[-1]
    assert base.startswith("fingerprint ")
    assert override != base


def test_out_of_range_seed_is_rejected(drill_path, capsys):
    assert main(["run", str(drill_path), "--seed", "-3"]) == 2
    assert "seed" in capsys.readouterr().err


def test_missing_scenario_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "ghost.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_scenario_names_the_field(drill_path, capsys):
    raw = json.loads(drill_path.read_text())
    del raw["seed"]
    drill_path.write_text(json.dumps(raw))
    assert main(["run", str(drill_path)]) == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("section, value", [("mission", 7), ("agents", 5), ("job", [])])
def test_wrong_typed_section_exits_two_naming_it(drill_path, capsys, section, value):
    raw = json.loads(drill_path.read_text())
    raw[section] = value
    drill_path.write_text(json.dumps(raw))
    assert main(["run", str(drill_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {section}: expected")


def test_wrong_typed_element_exits_two_naming_it(drill_path, capsys):
    raw = json.loads(drill_path.read_text())
    raw["agents"][0] = 7
    drill_path.write_text(json.dumps(raw))
    assert main(["run", str(drill_path)]) == 2
    assert capsys.readouterr().err.startswith("error: agents[0]: expected an object")


def test_failed_expectations_exit_one(drill_path, tmp_path, capsys):
    raw = json.loads(drill_path.read_text())
    raw["expectations"]["mission.outcome"] = "Exploded"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert main(["run", str(bad), "--out", str(tmp_path / "r.json")]) == 1
    assert "FAIL mission.outcome" in capsys.readouterr().err


def test_a_run_that_aborts_exits_one_with_one_abort_line(tmp_path, capsys):
    raw = json.loads(bundled_scenario_path(CASE_STUDY_FIXTURE).read_text())
    raw["economy"]["org_balance"] = "0.00"
    path = tmp_path / "broke.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("FAIL aborted")] == [
        "FAIL aborted: InsufficientFunds: AE4E-GSC-FRA-001 holds 0.00, needs 166.25"
        " (tick 830, event none, node none, last seq 42)"
    ]
    assert "Traceback" not in err
    assert json.loads((tmp_path / "r.json").read_text())["mission"]["outcome"] == "Aborted"


def test_unknown_format_is_a_usage_error(drill_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", str(drill_path), "--format", "yaml"])
    assert exc.value.code == 2


def test_check_economy_holds(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(
        json.dumps(
            {
                "reward": {"0": "50.00", "1": "50.00", "2": "50.00"},
                "slash": {"0": "0", "1": "5.00", "2": "5.00"},
            }
        )
    )
    assert main(["check-economy", str(params)]) == 0
    assert "holds" in capsys.readouterr().out


def test_check_economy_flags_each_profitable_deviation(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(
        json.dumps(
            {
                "reward": {"0": "50.00", "1": "60.00", "2": "60.00"},
                "slash": {"0": "0", "1": "5.00", "2": "5.00"},
                "detection": {"0": "1", "1": "1", "2": "1"},
            }
        )
    )
    assert main(["check-economy", str(params)]) == 1
    err = capsys.readouterr().err
    assert "violation at deviation 1" in err
    assert "violation at deviation 2" in err


def test_check_economy_rejects_partial_tables(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"reward": {"0": "1"}}))
    assert main(["check-economy", str(params)]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_economy_rejects_malformed_json(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text("{broken")
    assert main(["check-economy", str(params)]) == 2
    assert "JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "keys, value, field",
    [
        (("job", "task_templates", 0, "token_cap"), None, "job.task_templates[0].token_cap"),
        (("agents", 0, "bids", 0, "completion_ticks"), None, "agents[0].bids[0].completion_ticks"),
        (("mission", "clock_origin"), None, "mission.clock_origin"),
        (("timeline", 2, "params", "open_offset"), "x", "timeline[2].params.open_offset"),
        (("timeline", 1, "params", "amount"), "x", "timeline[1].params.amount"),
        (("timeline", 0, "kind"), "audit", "timeline[0].kind"),
    ],
    ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else None,
)
def test_run_rejects_a_malformed_scenario_naming_the_field(tmp_path, capsys, keys, value, field):
    raw = json.loads(bundled_scenario_path(CASE_STUDY_FIXTURE).read_text())
    target = raw
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: {field}: ")
    assert out.err.count("\n") == 1
