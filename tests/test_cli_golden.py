"""Golden CLI corpus: every report must stay byte-identical.

``data/cli_golden.json`` holds one entry per CLI call: ``argv`` (with
``--json`` appended when run), an optional ``job`` written to a job file
and passed with ``--job``, the exit code, and the JSON report with
``diagnostics.elapsed_ms`` removed (the only field that varies between
runs).  The reports were frozen from the code before the elimination
routines were merged into one kernel; an entry changes only when a
deliberate fix changes that call's answer, and CHANGES.md lists each such
change.
"""

import json
import pathlib

import pytest

from branchdual import linalg
from branchdual.cli import main

CORPUS = json.loads(
    (pathlib.Path(__file__).resolve().parent / "data" / "cli_golden.json").read_text()
)


def check_entry(entry, capsys, tmp_path):
    argv = list(entry["argv"])
    if "job" in entry:
        path = tmp_path / "job.json"
        path.write_text(json.dumps(entry["job"]))
        argv = ["--job", str(path)] + argv
    code = main(argv + ["--json"])
    report = json.loads(capsys.readouterr().out)
    del report["diagnostics"]["elapsed_ms"]
    assert code == entry["exit"], entry["id"]
    assert json.dumps(report) == json.dumps(entry["report"]), entry["id"]


@pytest.mark.parametrize("entry", CORPUS, ids=[e["id"] for e in CORPUS])
def test_cli_report_unchanged(entry, capsys, tmp_path):
    check_entry(entry, capsys, tmp_path)


def test_corpus_runs_no_fraction_elimination(capsys, tmp_path, monkeypatch):
    # rref, nullspace and solve all eliminate through _reduced_rows
    def refuse(*args, **kwargs):
        raise AssertionError("Fraction elimination on a CLI path")

    monkeypatch.setattr(linalg, "_reduced_rows", refuse)
    for entry in CORPUS:
        check_entry(entry, capsys, tmp_path)


def test_corpus_covers_every_command_and_exit_code():
    from branchdual.cli import COMMANDS

    commands = {e["report"]["command"] for e in CORPUS}
    assert set(COMMANDS) <= commands
    assert {e["exit"] for e in CORPUS} >= {0, 1, 2, 3, 4, 5}
