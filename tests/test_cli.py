"""CLI job dispatch, exit codes, JSON reports and the shipped schema."""

import importlib
import json
import pathlib
import subprocess
import sys

import jsonschema
import pytest

from branchdual.cli import COMMANDS, MAX_TRUNC, JobSpec, build_parser, main, run
from branchdual.subalgebra import closure

SCHEMA_PATH = pathlib.Path(__file__).resolve().parent.parent / "schema" / "report.schema.json"
SCHEMA = json.loads(SCHEMA_PATH.read_text())
VALIDATOR = jsonschema.Draft7Validator(SCHEMA)


def run_checked(job):
    """Run a job; validate the report against the shipped schema."""
    report, code = run(job)
    VALIDATOR.validate(report)
    _assert_no_floats(report)
    # reports must survive JSON round trips unchanged
    assert json.loads(json.dumps(report)) == report
    return report, code


def _assert_no_floats(obj):
    if isinstance(obj, float):
        raise AssertionError(f"float leaked into report: {obj!r}")
    if isinstance(obj, dict):
        for k, v in obj.items():
            _assert_no_floats(k)
            _assert_no_floats(v)
    elif isinstance(obj, list):
        for v in obj:
            _assert_no_floats(v)


def test_analyze_toy():
    report, code = run_checked(JobSpec("analyze", ["t^3+t^4", "t^5"]))
    assert code == 0
    res = report["result"]
    assert res["delta"] == 4
    assert res["conductor"] == 8
    assert res["mu"] == 8
    assert res["gaps"] == [1, 2, 4, 7]
    assert res["gorenstein"] is True


def test_analyze_infinite_codimension_exit_2():
    report, code = run_checked(JobSpec("analyze", ["t^2+t^3"]))
    assert code == 2
    assert report["error"]["type"] == "InfiniteCodimension"
    assert report["error"]["gcd"] == 2


def test_parse_error_exit_3():
    report, code = run_checked(JobSpec("analyze", ["t^2 + 3/0 t^3"]))
    assert code == 3
    assert report["error"]["type"] == "ExpressionError"


def test_missing_generators_exit_3():
    _, code = run_checked(JobSpec("analyze"))
    assert code == 3


def test_unknown_command_exit_3():
    _, code = run_checked(JobSpec("frobnicate"))
    assert code == 3


def test_inverse_system_report():
    report, code = run_checked(JobSpec("inverse-system", ["t^3+t^4", "t^5"]))
    assert code == 0
    basis = report["result"]["basis"]
    assert [b["expr"] for b in basis] == [
        "u",
        "u^2",
        "u^3 - 1/4 u^4",
        "u^6 - 1/14 u^7",
    ]
    assert basis[2]["coefficients"] == {"3": "1", "4": "-1/4"}


def test_check_af_verdicts():
    report, code = run_checked(JobSpec("check-af", ["t"], {"v": "u^2"}))
    assert code == 0
    assert report["result"]["verdict"] is False
    assert report["result"]["witness"] == "t"
    report2, _ = run_checked(JobSpec("check-af", ["t"], {"v": "u"}))
    assert report2["result"]["verdict"] is True


def test_annihilate_and_exit_4():
    report, code = run_checked(JobSpec("annihilate", ["t^2", "t^3"], {"v": "u^2"}))
    assert code == 0
    assert report["result"]["gaps"] == [1, 2]
    report2, code2 = run_checked(JobSpec("annihilate", ["t"], {"v": "u^2"}))
    assert code2 == 4
    assert report2["error"]["type"] == "NotAlgebraForming"
    assert report2["error"]["witness"] == "t"


def test_precision_ceiling_exit_5():
    # a legitimate branch whose conductor certification cannot fit in a
    # tiny truncation ceiling
    report, code = run_checked(
        JobSpec("analyze", ["t^6", "t^8+t^11", "t^10+t^13"], {"trunc": 8})
    )
    assert code == 5
    assert report["error"]["type"] == "PrecisionExhausted"
    assert report["error"]["required"] > 8


def test_trunc_below_generator_orders_exit_5():
    # the window t^0..t^1 holds no value of the algebra yet, which is a
    # precision problem, not infinite codimension: the algebra has delta 4
    report, code = run_checked(JobSpec("analyze", ["t^3+t^4", "t^5"], {"trunc": 1}))
    assert code == 5
    assert report["error"]["type"] == "PrecisionExhausted"
    assert report["error"]["required"] == 5


@pytest.mark.parametrize("trunc", ["abc", 0, -3])
def test_bad_trunc_exit_3(trunc):
    report, code = run_checked(JobSpec("analyze", ["t^3+t^4", "t^5"], {"trunc": trunc}))
    assert code == 3
    assert report["error"]["type"] == "ExpressionError"


def test_bad_trunc_flag_exit_3(capsys):
    # validated with the job's options, not by argparse, whose exit 2
    # would read as infinite codimension
    code = main(["analyze", "--gens", "t^3+t^4,t^5", "--trunc", "abc", "--json"])
    assert code == 3
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "ExpressionError"


def test_trunc_at_the_bound_is_accepted():
    report, code = run_checked(JobSpec("analyze", ["t^2", "t^3"], {"trunc": MAX_TRUNC}))
    assert code == 0
    assert report["result"]["delta"] == 1


def test_trunc_above_the_bound_flag_exit_3(capsys):
    code = main(["analyze", "--gens", "t^3+t^4,t^5", "--trunc", "100000000", "--json"])
    assert code == 3
    report = json.loads(capsys.readouterr().out)
    VALIDATOR.validate(report)
    assert report["error"] == {
        "type": "ExpressionError",
        "message": f"trunc must be at most {MAX_TRUNC}, got 100000000",
    }


@pytest.mark.parametrize("trunc", [MAX_TRUNC + 1, str(MAX_TRUNC + 1), "9" * 5000])
def test_trunc_above_the_bound_job_file_exit_3(trunc, capsys, tmp_path):
    # a number too long for int() is refused the same way, not as exit 1
    job = tmp_path / "job.json"
    job.write_text(json.dumps(
        {"command": "analyze", "generators": ["t^3+t^4", "t^5"], "options": {"trunc": trunc}}
    ))
    code = main(["--job", str(job), "--json"])
    assert code == 3
    report = json.loads(capsys.readouterr().out)
    VALIDATOR.validate(report)
    assert report["error"]["type"] == "ExpressionError"
    assert str(MAX_TRUNC) in report["error"]["message"]


def test_job_file_integer_too_long_to_convert_exit_3(capsys, tmp_path):
    # json.load refuses an int of more than 4,300 digits with a ValueError
    job = tmp_path / "job.json"
    job.write_text('{"command": "analyze", "generators": ["t^2", "t^3"], '
                   '"options": {"trunc": ' + "9" * 5000 + "}}")
    code = main(["--job", str(job), "--json"])
    assert code == 3
    report = json.loads(capsys.readouterr().out)
    VALIDATOR.validate(report)
    assert report["error"]["type"] == "ExpressionError"


@pytest.mark.parametrize("gens", ["1+t", "0"])
def test_generators_without_positive_order_exit_3(gens, capsys):
    # a unit generator, or only zero ones, is an input error
    code = main(["analyze", "--gens", gens, "--json"])
    report = json.loads(capsys.readouterr().out)
    VALIDATOR.validate(report)
    assert code == 3
    assert report["error"]["type"] == "GeneratorError"


@pytest.mark.parametrize(
    "gens, position",
    [("t^1000000,t^1000001", 2), ("t^3+t^10001", 6), ("t^5+u^" + "9" * 5000, 6),
     ("t^3,t^10001", 6)],
)
def test_exponent_above_limit_exit_3(gens, position, capsys):
    # rejected while parsing, before a dense coefficient list is built;
    # positions count from the start of the --gens text
    code = main(["analyze", "--gens", gens, "--json"])
    report = json.loads(capsys.readouterr().out)
    VALIDATOR.validate(report)
    assert code == 3
    assert report["error"]["type"] == "ExpressionError"
    assert f"(at position {position})" in report["error"]["message"]


def test_long_generator_list_exits_3_before_allocation():
    # 20,000 generators of degree 9,999 would be 2e8 dense coefficients; the
    # list bound refuses them from their parsed terms, with a report
    report, code = run_checked(JobSpec("analyze", ["t^9999+t^9998"] * 20_000))
    assert code == 3
    assert report["error"]["type"] == "ExpressionError"
    assert report["error"]["message"] == "200000000 coefficients in the list, above the limit 100000"
    report, code = run_checked(JobSpec("check-af", ["t^2", "t^3"], {"v": ";".join(["u^9999"] * 11)}))
    assert code == 3
    assert report["error"]["message"] == "110000 coefficients in the list, above the limit 100000"


@pytest.mark.parametrize(
    "gens, position",
    [("t^\u00b2,t^3", 2), ("\u00b2t^3", 0), ("t^3+" + "7" * 5000 + " t^5", 4)],
    ids=["superscript-exponent", "superscript-coefficient", "5000-digit-coefficient"],
)
def test_non_ascii_or_overlong_digits_exit_3(gens, position, capsys):
    # int() would reject both; the parser does first, with the position
    code = main(["analyze", "--gens", gens, "--json"])
    report = json.loads(capsys.readouterr().out)
    VALIDATOR.validate(report)
    assert code == 3
    assert report["error"]["type"] == "ExpressionError"
    assert f"(at position {position})" in report["error"]["message"]


def test_filtration_report():
    report, code = run_checked(JobSpec("filtration", ["t^3+t^4", "t^5"]))
    assert code == 0
    steps = report["result"]["steps"]
    assert [s["gap_exponent"] for s in steps] == [7, 4, 2, 1]
    assert steps[1]["cutting_element"] == "t^3 - 1/4 t^4"
    assert steps[-1]["algebra"]["delta"] == 0


def test_derivations_report():
    report, code = run_checked(
        JobSpec("derivations", ["t^4", "t^7", "t^17"], {"v": "u^11;u"})
    )
    assert code == 0
    results = report["result"]["results"]
    assert results[0]["is_derivation"] is False
    assert results[1]["is_derivation"] is True


def test_gorenstein_report():
    report, code = run_checked(JobSpec("gorenstein", ["t^4", "t^6", "t^9"]))
    assert code == 0
    res = report["result"]
    assert res["symmetric"] and res["c_equals_2delta"] and res["palindromic_inverse"]


def test_semigroup_report():
    report, code = run_checked(JobSpec("semigroup", ["4", "6", "9"]))
    assert code == 0
    assert report["result"]["gaps"] == [1, 2, 3, 5, 7, 11]
    report2, code2 = run_checked(JobSpec("semigroup", ["2", "4"]))
    assert code2 == 1
    assert report2["error"]["type"] == "NonCoprime"


def test_saturation_report():
    report, code = run_checked(JobSpec("saturation", options={"char": "6;8,11"}))
    assert code == 0
    assert report["result"]["generators"] == [6, 8, 10, 11, 13, 15]
    assert report["result"]["characteristic"]["m"] == [4, 11]
    _, code2 = run_checked(JobSpec("saturation", options={"char": "4;banana"}))
    assert code2 == 3


@pytest.mark.parametrize("char", ["4;6", "6;8,10,11", "9;12,22,25"])
def test_saturation_refuses_an_invalid_characteristic(char):
    # 10 does not lower gcd(6, 8) = 2, nor 25 gcd(9, 12, 22) = 1: refused as a
    # chain that never reaches 1 is
    report, code = run_checked(JobSpec("saturation", options={"char": char}))
    assert code == 1
    assert report["error"]["type"] == "ValueError"
    assert report["error"]["message"].startswith("invalid characteristic")


@pytest.mark.parametrize(
    "argv",
    [["semigroup", "--gens", "20000,20001"], ["saturation", "--char", "2;100001"]],
    ids=["semigroup", "saturation"],
)
def test_sieve_bound_above_the_cap_exit_3(argv, capsys):
    code = main(argv + ["--json"])
    report = json.loads(capsys.readouterr().out)
    VALIDATOR.validate(report)
    assert code == 3
    assert report["error"]["type"] == "GeneratorError"
    assert "exceeds 100000" in report["error"]["message"]


def test_transport_report():
    report, code = run_checked(
        JobSpec("transport", ["t^2", "t^7"], {"h": "t+t^2"})
    )
    assert code == 0
    matrix = report["result"]["matrix"]
    assert matrix[0] == ["1", "0", "0", "0", "0", "0"]
    assert matrix[3][2] == "2"


def test_blowup_chain_report():
    report, code = run_checked(JobSpec("blowup-chain", ["t^2", "t^3"]))
    assert code == 0
    assert report["result"]["multiplicities"] == [2, 1]
    assert report["result"]["e1_sequence"] == [1, 0]
    assert report["result"]["delta"] == 1


def test_canonical_report():
    report, code = run_checked(JobSpec("canonical", ["t^4", "t^7", "t^9"]))
    assert code == 0
    basis = report["result"]["basis"]
    assert basis[0] == {"operator": "u", "laurent": {"-2": "1"}}
    assert basis[-1]["laurent"] == {"-11": "3628800"}


def test_verify_report():
    report, code = run_checked(JobSpec("verify", ["t^3+t^4", "t^5"]))
    assert code == 0
    assert report["result"]["verified"] is True


def test_every_command_has_dispatch():
    from branchdual.cli import _DISPATCH

    assert set(COMMANDS) == set(_DISPATCH)


def test_main_json_output(capsys, tmp_path):
    code = main(["analyze", "--gens", "t^3+t^4,t^5", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    VALIDATOR.validate(report)
    assert report["result"]["delta"] == 4


def test_main_job_file(capsys, tmp_path):
    job = tmp_path / "job.json"
    job.write_text(
        json.dumps(
            {
                "command": "inverse-system",
                "generators": ["t^3+t^4", "t^5"],
                "options": {},
            }
        )
    )
    code = main(["--job", str(job), "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    VALIDATOR.validate(report)
    assert len(report["result"]["basis"]) == 4


def test_main_bad_job_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["--job", str(bad), "--json"])
    assert code == 3
    report = json.loads(capsys.readouterr().out)
    VALIDATOR.validate(report)


@pytest.mark.parametrize("command, key, value", [
    ("check-af", "v", 5),
    ("transport", "h", 2),
    ("saturation", "char", 6),
    ("check-af", "v", ["u^2"]),
])
def test_job_file_option_that_is_not_a_string_exit_3(command, key, value, capsys, tmp_path):
    # an operator, series or characteristic is text; any other JSON value is an input error
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"command": command, "generators": ["t^3+t^4", "t^5"], "options": {key: value}}))
    code = main(["--job", str(job), "--json"])
    assert code == 3
    report = json.loads(capsys.readouterr().out)
    VALIDATOR.validate(report)
    assert report["error"] == {"type": "ExpressionError", "message": f"job file option {key!r} must be a string"}


@pytest.mark.parametrize("job, message", [
    (JobSpec("check-af", ["t^3+t^4", "t^5"], {"v": 5}), "option 'v' must be a string"),
    (JobSpec("transport", ["t^3+t^4", "t^5"], {"h": 2}), "option 'h' must be a string"),
    (JobSpec("saturation", options={"char": 6}), "option 'char' must be a string"),
    (JobSpec("derivations", ["t^3+t^4", "t^5"], {"v": ["u"]}), "option 'v' must be a string"),
    (JobSpec("analyze", ["t^3+t^4", 5]), "'generators' must be a list of strings"),
    (JobSpec("semigroup", [4, 6, 9]), "'generators' must be a list of strings"),
    (JobSpec("analyze", ["t^3+t^4", "t^5"], None), "'options' must be an object"),
], ids=["v-int", "h-int", "char-int", "v-list", "gens-int", "semigroup-ints", "options-none"])
def test_job_built_in_code_with_no_text_input_exit_3(job, message):
    # a job built in code skips _load_job_file: run makes the same checks
    report, code = run_checked(job)
    assert code == 3
    assert report["command"] == job.command
    assert report["error"] == {"type": "ExpressionError", "message": f"{job.command} job {message}"}


@pytest.mark.parametrize("command", [["analyze"], 5, None], ids=["list", "int", "none"])
def test_job_built_in_code_with_a_command_that_is_no_string_exit_3(command):
    # the report names the command "unknown", a string as the schema asks,
    # as main does for a job file it cannot read
    report, code = run_checked(JobSpec(command, ["t^2", "t^3"]))
    assert code == 3 and report["command"] == "unknown"
    assert report["error"] == {"type": "UnknownCommand", "message": f"unknown command {command!r}"}


def test_main_human_output(capsys):
    code = main(["semigroup", "--gens", "4,6,9"])
    out = capsys.readouterr().out
    assert code == 0
    assert "gaps" in out and "conductor" in out


def test_trunc_flag_reaches_closure(capsys):
    code = main(["analyze", "--gens", "t^6,t^8+t^11,t^10+t^13", "--trunc", "8"])
    assert code == 5


GOLDEN = {e["id"]: e for e in json.loads(
    (pathlib.Path(__file__).resolve().parent / "data" / "cli_golden.json").read_text())}


@pytest.mark.parametrize("trunc", ["abc", "99999"])
def test_filtration_bad_trunc_exit_3(trunc):
    report, code = run_checked(JobSpec("filtration", ["t^3+t^4", "t^5"], {"trunc": trunc}))
    assert code == 3
    assert report["error"]["type"] == "ExpressionError"


def test_filtration_reads_the_trunc_ceiling():
    report, code = run_checked(JobSpec("filtration", ["t^3+t^4", "t^5"], {"trunc": "1"}))
    assert code == 5
    assert report["error"] == GOLDEN["analyze/d4-trunc1"]["report"]["error"]


def test_verify_job_closes_the_branch_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return closure(*args, **kwargs)

    # the package's ``inverse_system`` attribute is the function, not the module
    for name in ("branchdual.cli", "branchdual.subalgebra", "branchdual.inverse_system"):
        monkeypatch.setattr(importlib.import_module(name), "closure", counting)
    report, code = run_checked(JobSpec("verify", ["t^6", "t^8+t^11", "t^10+t^13"]))
    assert code == 0 and report["result"]["verified"] is True
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--gens", "t^3+t^4,t^5", "--trunc", "٨"],
        ["semigroup", "--gens", "٤,٦,٩"],
        ["saturation", "--char", "٤;٦"],
    ],
    ids=["trunc", "semigroup", "char"],
)
def test_non_ascii_integers_exit_3(argv, capsys):
    # int() reads Arabic-Indic digits; the CLI does not
    code = main(argv + ["--json"])
    report = json.loads(capsys.readouterr().out)
    VALIDATOR.validate(report)
    assert code == 3
    assert report["error"]["type"] == "ExpressionError"


@pytest.mark.parametrize(
    "argv", [[], ["analyze", "--gens", "t^2,t^3", "--bogus"], ["--json", "--json=1"]],
    ids=["no-command", "unknown-flag", "flag-with-value"],
)
def test_usage_error_exit_3(argv, capsys):
    # argparse's own exit 2 would read as infinite codimension
    with pytest.raises(SystemExit) as ex:
        main(argv)
    assert ex.value.code == 3
    assert "usage:" in capsys.readouterr().err


def test_unknown_command_argv_matches_job_file_report(capsys):
    code = main(["frobnicate", "--json"])
    report = json.loads(capsys.readouterr().out)
    del report["diagnostics"]["elapsed_ms"]
    assert code == 3
    assert report == GOLDEN["job/unknown-command"]["report"]


def test_help_lists_every_command():
    text = build_parser().format_help()
    assert all(c in text for c in COMMANDS)


# Run with -S and the package's source directory first on sys.path; prints,
# last, the heavy modules the imports loaded and then the exit codes of
# --help and of a usage error, and whether main loaded argparse.
FOOTPRINT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import branchdual, branchdual.cli
loaded = sorted({"dataclasses", "inspect", "argparse"} & set(sys.modules))
codes = []
for argv in (["--help"], ["analyze", "--bogus"]):
    try:
        branchdual.cli.main(argv)
    except SystemExit as ex:
        codes.append(ex.code)
print(json.dumps([loaded, codes, "argparse" in sys.modules]))
"""


def test_import_loads_no_dataclasses_inspect_or_argparse():
    src = pathlib.Path(importlib.import_module("branchdual").__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-S", "-c", FOOTPRINT, str(src)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[], [0, 3], True]
    assert "usage:" in proc.stderr


def test_error_position_counts_from_the_joined_job_generators():
    report, code = run_checked(JobSpec("analyze", ["t^3", "t^5", " t^7+t^10001"]))
    assert code == 3
    assert report["error"]["message"] == "exponent above the limit 10000 (at position 15)"


def test_error_position_counts_from_the_start_of_the_operator_text():
    # the t of the second operator is at index 11 of the --v text, not 7 of its part
    job = JobSpec("check-af", ["t^2", "t^3"], {"v": "u^2; u^3 + t"})
    report, code = run_checked(job)
    assert code == 3
    assert report["error"]["message"] == "mixed variables in one expression (at position 11)"
    report, code = run_checked(JobSpec("check-af", ["t^2", "t^3"], {"v": "u^2;u^3;"}))
    assert code == 3
    assert report["error"]["message"] == "empty expression (at position 8)"


def test_comma_inside_a_job_generator_does_not_split_it():
    report, code = run_checked(JobSpec("analyze", ["t^3,t^5"]))
    assert code == 3
    assert report["error"]["message"] == "expected '+' or '-' between terms (at position 3)"
