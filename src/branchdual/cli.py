"""Command-line surface: job parsing, dispatch, and JSON/text reports.

``run`` is the one place that checks a job's input types, parses its
generators, reads its ceiling, closes the branch and maps an exception to
an exit code.  A job is a :class:`JobSpec`, the one mutable record;
``argparse`` is imported by ``build_parser``, so only ``main`` loads it.

Exit codes: 0 success, 2 infinite codimension, 3 expression/job parse
error (a ``trunc`` above ``MAX_TRUNC`` included), a usage error or an
unknown command, or a generator list with no positive-order element or
one of order 0, 4 not algebra-forming, 5 precision ceiling reached, 1 for
any other error.  All rationals in
JSON output are exact "p" or "p/q" strings; no floating point appears
anywhere.
"""

from __future__ import annotations

import json
import sys
import time

from .errors import (
    BranchDualError,
    ExpressionError,
    GeneratorError,
    InfiniteCodimension,
    NotAlgebraForming,
    PrecisionExhausted,
    _Record,
)
from .expressions import (
    _format_row,
    _format_terms,
    _rational,
    _triples,
    format_diffop,
    format_series,
    parse_generators,
    parse_operators,
    parse_series,
)
from .inverse_system import (
    annihilator,
    inverse_system,
    is_algebra_forming,
    is_derivation,
    rosenlicht,
    standard_filtration,
    transport_dual,
    verify_duality,
)
from .semigroup import (
    Characteristic,
    from_generators,
    from_staircase,
    gorenstein_check,
    is_symmetric,
    saturation_from_characteristic,
)
from .subalgebra import (
    DEFAULT_TRUNC_CEILING,
    AlgebraInput,
    blowup_chain,
    closure,
    hilbert,
)

SCHEMA_VERSION = "1"

MAX_TRUNC = 4096  # the largest truncation ceiling accepted: 8x the default

_NEW = object()  # JobSpec's default: each call makes a new list or dict


class JobSpec(_Record):
    """One unit of work: a command plus its inputs; mutable, so unhashable.

    ``generators`` and ``options`` default to a new list and dict.
    """

    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(self, command: str, generators: list = _NEW, options: dict = _NEW):
        self.__dict__.update(
            command=command,
            generators=[] if generators is _NEW else generators,
            options={} if options is _NEW else options,
        )


class UnknownCommand(BranchDualError):
    """A job names no command of the dispatch table."""


def _parse_gens(job: JobSpec):
    if not job.generators:
        raise ExpressionError("this command requires generators (--gens)")
    return parse_generators(job.generators)


# option -> what it holds: each is text, checked by _check_inputs and read by _option
_TEXT_OPTIONS = {"v": "operators", "h": "a reparametrization", "char": "a characteristic"}


def _check_inputs(gens, options, where: str) -> None:
    """Refuse generators that are not a list of strings, options that are
    not an object, and a text option that is not a string."""
    if not isinstance(gens, (list, tuple)) or not all(isinstance(g, str) for g in gens):
        raise ExpressionError(f"{where} 'generators' must be a list of strings")
    if not isinstance(options, dict):
        raise ExpressionError(f"{where} 'options' must be an object")
    for key in _TEXT_OPTIONS:
        if key in options and not isinstance(options[key], str):
            raise ExpressionError(f"{where} option {key!r} must be a string")


def _option(job: JobSpec, key: str) -> str:
    text = job.options.get(key)
    if not text:
        raise ExpressionError(f"this command requires {_TEXT_OPTIONS[key]} (--{key})")
    return text


def _int(text: str) -> int:
    """int(text) on ASCII text only: int() also reads other scripts' digits ("٤" as 4)."""
    if not text.isascii():
        raise ValueError(f"not an ASCII integer: {text!r}")
    return int(text)


def _ceiling(job: JobSpec) -> int:
    trunc = job.options.get("trunc", DEFAULT_TRUNC_CEILING)
    if isinstance(trunc, str):
        try:
            trunc = _int(trunc)
        except ValueError:  # reported below, unless int() refused more than 4,300 digits
            if trunc.isascii() and trunc.strip().removeprefix("-").isdigit():
                raise ExpressionError(f"trunc must be from 1 to {MAX_TRUNC}, got {len(trunc)} digits")
    if type(trunc) is not int or trunc < 1:
        raise ExpressionError(f"trunc must be an integer >= 1, got {trunc!r}")
    if trunc > MAX_TRUNC:
        raise ExpressionError(f"trunc must be at most {MAX_TRUNC}, got {trunc}")
    return trunc


def _op_entry(g):
    terms = _triples(g.coeffs)
    coefficients = {str(i): _rational(num, den) for i, num, den in terms}
    return {"expr": _format_terms(terms, "u"), "coefficients": coefficients}


def _staircase_summary(S):
    return {
        "delta": S.delta,
        "conductor": S.conductor,
        "e0": S.e0,
        "values_below_conductor": list(S.values),
        "gaps": list(S.gaps),
        "staircase_basis": [_format_row(r, v) for v, r in S.rows.items()],
    }


def _run_analyze(job, A, S):
    h = hilbert(S)
    out = _staircase_summary(S)
    out["e1"] = h.e1
    out["mu"] = 2 * S.delta
    out["hilbert_function"] = list(h.hf)
    out["gorenstein"] = S.conductor == 2 * S.delta
    return out


def _run_inverse_system(job, A, S):
    V = inverse_system(S)
    return {
        "delta": S.delta,
        "conductor": S.conductor,
        "basis": [_op_entry(g) for g in V.basis],
    }


def _run_check_af(job, A, S):
    cert = is_algebra_forming(parse_operators(_option(job, "v")), S)
    return {
        "verdict": cert.verdict,
        "witness": _witness(cert),
    }


def _witness(cert):
    return None if cert.witness is None else format_series(cert.witness)


def _run_annihilate(job, A, S):
    return _staircase_summary(annihilator(parse_operators(_option(job, "v")), S))


def _run_filtration(job, A, S):
    filt = standard_filtration(S)
    return {
        "steps": [
            {
                "gap_exponent": st.gap_exponent,
                "algebra": _staircase_summary(st.new_algebra),
                "cutting_element": format_series(st.cutting_element),
            }
            for st in filt.steps
        ]
    }


def _run_derivations(job, A, S):
    ops = parse_operators(_option(job, "v"))
    return {
        "results": [
            {"operator": format_diffop(g), "is_derivation": is_derivation(g, S)}
            for g in ops
        ]
    }


def _run_gorenstein(job, A, S):
    D = from_staircase(S.values, S.conductor)
    chk = gorenstein_check(D)
    return {
        "symmetric": chk.symmetric,
        "c_equals_2delta": chk.c_equals_2delta,
        "palindromic_inverse": chk.palindromic_inverse,
        "conductor": D.conductor,
        "genus": D.genus,
    }


def _semigroup_summary(D):
    return {
        "generators": list(D.generators),
        "conductor": D.conductor,
        "gaps": list(D.gaps),
        "genus": D.genus,
        "symmetric": is_symmetric(D),
    }


def _run_semigroup(job):
    if not job.generators:
        raise ExpressionError("this command requires integer generators (--gens)")
    try:
        gens = [_int(g) for g in job.generators]
    except ValueError as ex:
        raise ExpressionError(f"semigroup generators must be integers: {ex}")
    return _semigroup_summary(from_generators(gens))


def _parse_char(job) -> Characteristic:
    text = _option(job, "char")
    try:
        head, _, tail = text.partition(";")
        e0 = _int(head.strip())
        betas = [_int(b) for b in tail.split(",") if b.strip()] if tail.strip() else []
    except ValueError as ex:
        raise ExpressionError(f"malformed characteristic: {ex}")
    return Characteristic.make(e0, betas)


def _run_saturation(job):
    ch = _parse_char(job)
    D = saturation_from_characteristic(ch)
    out = _semigroup_summary(D)
    out["characteristic"] = {
        "e0": ch.e0,
        "betas": list(ch.betas),
        "m": list(ch.m),
        "n": list(ch.n),
    }
    return out


def _run_transport(job, A, S):
    h = parse_series(_option(job, "h"))
    V2 = inverse_system(S)
    M, V1 = transport_dual(h, S.conductor, V2)
    return {
        "conductor": S.conductor,
        "matrix": [
            [_rational(x.numerator, x.denominator) for x in M.row(i)]
            for i in range(M.rows)
        ],
        "basis": [_op_entry(g) for g in V1.basis],
    }


def _run_blowup_chain(job, A, S):
    chain = blowup_chain(S)
    return {
        "multiplicities": list(chain.multiplicities()),
        "e1_sequence": list(chain.e1_sequence()),
        "delta": sum(chain.e1_sequence()),
    }


def _run_canonical(job, A, S):
    V = inverse_system(S)
    return {
        "conductor": S.conductor,
        "basis": [
            {
                "operator": format_diffop(g),
                "laurent": {
                    str(e): _rational(c.numerator, c.denominator)
                    for e, c in sorted(rosenlicht(g, S.conductor).items())
                },
            }
            for g in V.basis
        ],
    }


def _run_verify(job, A, S):
    return {
        "verified": verify_duality(A, S),
        "delta": S.delta,
        "conductor": S.conductor,
    }


# command -> handler.  A handler gets (job, A, S), the job's generators and
# their staircase closed under the job's ceiling, except those of
# _ON_JOB, which read integers and get the job alone.
_DISPATCH = {
    "analyze": _run_analyze,
    "inverse-system": _run_inverse_system,
    "check-af": _run_check_af,
    "annihilate": _run_annihilate,
    "filtration": _run_filtration,
    "derivations": _run_derivations,
    "gorenstein": _run_gorenstein,
    "semigroup": _run_semigroup,
    "saturation": _run_saturation,
    "transport": _run_transport,
    "blowup-chain": _run_blowup_chain,
    "canonical": _run_canonical,
    "verify": _run_verify,
}
COMMANDS = tuple(_DISPATCH)
_ON_JOB = ("semigroup", "saturation")
# Reports that never carried the staircase's working truncation.
_NO_WORK_TRUNC = ("filtration", "blowup-chain")

# (exception types, exit code, extra error fields), first match wins:
# GeneratorError is also a ValueError, so its row comes first.
_ERRORS = (
    ((ExpressionError, GeneratorError, UnknownCommand), 3, lambda ex: {}),
    ((InfiniteCodimension,), 2, lambda ex: {"gcd": ex.gcd, "values": list(ex.values)}),
    ((NotAlgebraForming,), 4, lambda ex: {"witness": _witness(ex.certificate)}),
    ((PrecisionExhausted,), 5, lambda ex: {"required": ex.required}),
    ((BranchDualError, ValueError), 1, lambda ex: {}),
)
_CAUGHT = tuple(t for types, _, _ in _ERRORS for t in types)


def _fail(report, ex) -> int:
    """Record ex as the report's error; returns its exit code."""
    for types, code, extra in _ERRORS:
        if isinstance(ex, types):
            report["status"] = "error"
            report["error"] = {"type": type(ex).__name__, "message": str(ex), **extra(ex)}
            return code


def run(job: JobSpec):
    """Execute a job; returns (report dict, exit code)."""
    started = time.monotonic()
    report = {"schema_version": SCHEMA_VERSION, "command": job.command if isinstance(job.command, str) else "unknown"}
    diagnostics = {}
    try:
        if report["command"] not in _DISPATCH:  # "unknown", as main reports an unreadable job file, if no string
            raise UnknownCommand(f"unknown command {job.command!r}")
        _check_inputs(job.generators, job.options, f"{job.command} job")
        if job.command in _ON_JOB:
            result = _DISPATCH[job.command](job)
        else:
            A = AlgebraInput.make(_parse_gens(job))
            S = closure(A, _ceiling(job))
            result = _DISPATCH[job.command](job, A, S)
            if job.command not in _NO_WORK_TRUNC:
                diagnostics["work_trunc"] = S.work_trunc
        report["status"] = "ok"
        report["result"] = result
        code = 0
    except _CAUGHT as ex:
        code = _fail(report, ex)
    diagnostics["elapsed_ms"] = int((time.monotonic() - started) * 1000)
    report["diagnostics"] = diagnostics
    return report, code


def _print_human(report, stream):
    status = report.get("status")
    if status == "error":
        err = report["error"]
        print(f"error ({err['type']}): {err['message']}", file=stream)
        return
    print(f"command: {report['command']}", file=stream)
    for key, value in report.get("result", {}).items():
        print(f"{key}: {_human_value(value)}", file=stream)


def _human_value(value, indent=2):
    if isinstance(value, dict):
        inner = ", ".join(f"{k}={_human_value(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, list):
        if value and isinstance(value[0], (dict, list)):
            pad = "\n" + " " * indent
            return pad + pad.join(_human_value(v, indent + 2) for v in value)
        return "[" + ", ".join(str(v) for v in value) + "]"
    return str(value)


def _load_job_file(path: str) -> JobSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as ex:  # ValueError: bad JSON, or an int of > 4,300 digits
        raise ExpressionError(f"cannot read job file {path!r}: {ex}")
    if not isinstance(data, dict) or "command" not in data:
        raise ExpressionError("job file must be a JSON object with a 'command' field")
    gens, options = data.get("generators", []), data.get("options", {})
    _check_inputs(gens, options, "job file")
    return JobSpec(str(data["command"]), list(gens), dict(options))


def build_parser():
    """The command-line parser; ``argparse`` is imported here, so only ``main`` pays for it."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            # A usage error is an input error, exit 3: argparse's 2 means infinite codimension here.
            self.print_usage(sys.stderr)
            self.exit(3, f"{self.prog}: error: {message}\n")

    parser = _Parser(
        prog="branchdual",
        description="Exact invariants and dualities of curve-singularity branches in k[[t]].",
    )
    parser.add_argument("command", nargs="?", help="operation to run: " + ", ".join(COMMANDS))
    parser.add_argument("--job", help="JSON job file ({command, generators, options})")
    parser.add_argument("--gens", help="comma-separated generator expressions (or integers for 'semigroup')")
    parser.add_argument("--v", help="semicolon-separated operator expressions in u")
    parser.add_argument("--h", dest="h_expr", help="reparametrization series in t")
    parser.add_argument("--char", help="characteristic exponents, e.g. '6;8,11'")
    parser.add_argument("--trunc", help="truncation ceiling, an integer from 1 to 4096 (default 512)")
    parser.add_argument("--json", action="store_true", help="emit the JSON report")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.job:
        try:
            job = _load_job_file(args.job)
        except ExpressionError as ex:
            report = {"schema_version": SCHEMA_VERSION, "command": "unknown"}
            code = _fail(report, ex)
            report["diagnostics"] = {"elapsed_ms": 0}
            _emit(report, args.json)
            return code
    elif args.command:
        job = JobSpec(args.command)
    else:
        parser.error("a command or --job file is required")
    if args.gens:
        job.generators = args.gens.split(",")
    for key, text in (("v", args.v), ("h", args.h_expr), ("char", args.char)):
        if text:
            job.options[key] = text
    if args.trunc is not None:
        job.options["trunc"] = args.trunc
    report, code = run(job)
    _emit(report, args.json)
    return code


def _emit(report, as_json: bool):
    if as_json:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        _print_human(report, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
