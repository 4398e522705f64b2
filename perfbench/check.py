"""Checks every report against answers derived without the code under test.

Value sets, conductors and spans come from the naive oracles in
``tests/oracles.py``; algebra-forming verdicts from its brute-force
definition.  Report text is read back with the parser below, not with the
package's.  ``check`` returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import jsonschema

import oracles

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "schema" / "report.schema.json").read_text())
_VALIDATOR = jsonschema.Draft7Validator(SCHEMA)

_TERM = re.compile(r"\s*([+-]?)\s*(?:(\d+(?:/\d+)?)\s*)?(?:([tu])(?:\s*\^\s*(\d+))?)?\s*")


def parse_terms(text: str) -> dict:
    """{exponent: Fraction} of a sum of terms such as ``-7/11 t^9`` or ``u``."""
    out, pos = {}, 0
    text = text.strip()
    if text == "0":
        return out
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos or not (m.group(2) or m.group(3)):
            raise ValueError(f"cannot read term at {pos} in {text!r}")
        coeff = Fraction(m.group(2) or 1) * (-1 if m.group(1) == "-" else 1)
        exp = int(m.group(4) or 1) if m.group(3) else 0
        out[exp] = out.get(exp, 0) + coeff
        pos = m.end()
    return {e: c for e, c in out.items() if c}


def as_list(d: dict) -> list:
    return [Fraction(d.get(i, 0)) for i in range(max(d, default=-1) + 1)]


def _order(coeffs):
    return next((i for i, c in enumerate(coeffs) if c), None)


@lru_cache(maxsize=None)
def span_rows(gens: tuple, T: int):
    """Reduced rows of the generated algebra mod t^(T+1), by the naive oracle."""
    return tuple(tuple(r) for r in oracles.algebra_span([as_list(parse_terms(g)) for g in gens], T))


@lru_cache(maxsize=None)
def facts(gens: tuple):
    """δ, c, e0, gaps and values of the algebra, certified by e0 consecutive values."""
    leads = [min(parse_terms(g)) for g in gens]
    T = 32
    if math.gcd(*leads) == 1:
        T = oracles.semigroup_data(leads)[1] + min(leads) + 1
    while T <= 1024:
        rows = span_rows(gens, T)
        orders = {_order(r) for r in rows}
        e0 = min(o for o in orders if o > 0)
        start = next((v for v in range(1, T - e0 + 2)
                      if all(v + k in orders for k in range(e0))), None)
        if start is not None:
            gaps = [i for i in range(1, start) if i not in orders]
            c = gaps[-1] + 1 if gaps else 0
            return {"delta": len(gaps), "conductor": c, "e0": e0, "gaps": gaps,
                    "values": sorted(o for o in orders if o < c), "T": T}
        T *= 2
    raise ValueError(f"oracle could not certify a conductor for {gens}")


def _rows_for(gens, deg):
    return span_rows(gens, max(facts(gens)["T"], deg))


def _in_span(rows, f):
    width = max(len(rows[0]), len(f))
    pad = [list(r) + [0] * (width - len(r)) for r in rows]
    return oracles.span_rank(pad + [f + [0] * (width - len(f))], width) == len(rows)


def _ops(text):
    return [as_list(parse_terms(p)) for p in text.split(";")]


def _perp(g, f):
    return oracles.perp_list(g, f)


def _witness_ok(ops, witness):
    if witness is None:
        return False
    f = as_list(parse_terms(witness))
    sq = oracles.poly_mul(f, f, 2 * len(f))
    return all(_perp(g, f) == 0 for g in ops) and any(_perp(g, sq) != 0 for g in ops)


@lru_cache(maxsize=None)
def _brute_af(gens: tuple, v: str):
    ops = _ops(v)
    F = facts(gens)
    maxdeg = max(len(g) - 1 for g in ops)
    T = max(2 * maxdeg + 2, F["conductor"] + 1)
    gen_lists = [as_list(parse_terms(g)) for g in gens]
    return oracles.brute_force_algebra_forming(ops, gen_lists, T)


def _is_derivation(gens, g):
    rows = [r for r in _rows_for(tuple(gens), len(g)) if _order(r)]
    deg = len(g) - 1
    for i, a in enumerate(rows):
        for b in rows[i:]:
            if _order(a) + _order(b) <= deg and _perp(g, oracles.poly_mul(a, b, deg)) != 0:
                return False
    return True


def _annihilates_algebra(ops, gens):
    rows = _rows_for(tuple(gens), max(len(g) for g in ops))
    return all(_perp(g, r) == 0 for g in ops for r in rows)


def _check_dual_basis(ops, F, gens, problems):
    c, d = F["conductor"], F["delta"]
    if len(ops) != d:
        problems.append(f"dual basis has {len(ops)} elements, oracle δ = {d}")
    if ops and max(len(g) - 1 for g in ops) != c - 1:
        problems.append("dual basis top degree is not c-1")
    if any(g and g[0] != 0 for g in ops):
        problems.append("dual basis element with a constant term")
    if ops and not _annihilates_algebra(ops, gens):
        problems.append("dual basis element does not annihilate the algebra")
    if ops and oracles.span_rank([g + [0] * (c - len(g)) for g in ops], c) != len(ops):
        problems.append("dual basis is linearly dependent")


def _check_analyze(job, res, F, problems):
    for key in ("delta", "conductor", "e0", "gaps"):
        if res[key] != F[key]:
            problems.append(f"{key} = {res[key]!r}, oracle {F[key]!r}")
    if res["values_below_conductor"] != F["values"]:
        problems.append("values_below_conductor differ from the oracle")
    d, e0 = F["delta"], F["e0"]
    if res["mu"] != 2 * d or res["gorenstein"] != (F["conductor"] == 2 * d):
        problems.append("mu or gorenstein flag inconsistent with δ and c")
    hf, e1 = res["hilbert_function"], res["e1"]
    if hf[0] != 1 or hf[-2:] != [e0, e0] or e1 != e0 * len(hf) - sum(hf):
        problems.append("Hilbert function does not stabilize at e0 with the reported e1")
    if not e0 - 1 <= e1 <= d:
        problems.append(f"e1 = {e1} outside [e0-1, δ]")
    rows = _rows_for(tuple(job["generators"]), F["conductor"])
    basis = [as_list(parse_terms(b)) for b in res["staircase_basis"]]
    if [_order(b) for b in basis] != F["values"] or not all(_in_span(rows, b) for b in basis):
        problems.append("staircase basis is not a basis of the algebra by value")


def _check_blowup_chain(job, res, F, problems):
    mult, e1s = res["multiplicities"], res["e1_sequence"]
    if not mult or mult[0] != F["e0"] or mult[-1] != 1 or mult != sorted(mult, reverse=True):
        problems.append(f"multiplicity sequence {mult} is not e0 ... 1 non-increasing")
    if sum(e1s) != F["delta"] or res["delta"] != F["delta"]:
        problems.append(f"Σ e1 = {sum(e1s)} along the chain, oracle δ = {F['delta']}")
    if any(e < m - 1 for m, e in zip(mult, e1s)):
        problems.append("some step has e1 < e0 - 1")


def _check_filtration(job, res, F, problems):
    gens = tuple(job["generators"])
    gaps = sorted(F["gaps"])
    steps = res["steps"]
    if [s["gap_exponent"] for s in steps] != gaps[::-1]:
        problems.append("filtration does not adjoin the gaps from the top down")
        return
    rows = [list(r) for r in _rows_for(gens, F["conductor"]) if _order(r)]
    e0 = F["e0"]
    for i, step in enumerate(steps):
        remaining = gaps[: len(gaps) - i - 1]
        g = gaps[len(gaps) - i - 1]
        e0 = min(e0, g)
        alg = step["algebra"]
        want = {"delta": len(remaining), "conductor": remaining[-1] + 1 if remaining else 0,
                "e0": e0, "gaps": remaining}
        if any(alg.get(k) != v for k, v in want.items()):
            problems.append(f"filtration step {i}: algebra differs from B + t^{g}")
        cut = as_list(parse_terms(step["cutting_element"]))
        if any(_perp(cut, r) != 0 for r in rows) or _perp(cut, [0] * g + [1]) == 0:
            problems.append(f"filtration step {i}: cutting element does not separate t^{g}")
        rows.append([0] * g + [1])


def _check_derivations(job, res, F, problems):
    ops = _ops(job["options"]["v"])
    got = res["results"]
    if [as_list(parse_terms(r["operator"])) for r in got] != ops:
        problems.append("derivation results do not echo the operators")
        return
    for r, g in zip(got, ops):
        if r["is_derivation"] != _is_derivation(job["generators"], g):
            problems.append(f"is_derivation({r['operator']}) differs from the oracle")


def _op_entry(entry):
    return as_list({int(k): Fraction(v) for k, v in entry["coefficients"].items()})


def _check_inverse_system(job, res, F, problems):
    if res["delta"] != F["delta"] or res["conductor"] != F["conductor"]:
        problems.append("delta or conductor differ from the oracle")
    ops = [_op_entry(e) for e in res["basis"]]
    if any(as_list(parse_terms(e["expr"])) != g for e, g in zip(res["basis"], ops)):
        problems.append("operator expression and coefficient map disagree")
    _check_dual_basis(ops, F, job["generators"], problems)


def _check_canonical(job, res, F, problems):
    if res["conductor"] != F["conductor"]:
        problems.append("conductor differs from the oracle")
    ops = []
    for entry in res["basis"]:
        lau = {int(k): Fraction(v) for k, v in entry["laurent"].items()}
        if any(not -F["conductor"] <= e <= -1 for e in lau):
            problems.append("Laurent exponent outside [-c, -1]")
        g = as_list({-e - 1: c / math.factorial(-e - 1) for e, c in lau.items()})
        if g != as_list(parse_terms(entry["operator"])):
            problems.append("Laurent form is not i!·g_i of its operator")
        ops.append(g)
    _check_dual_basis(ops, F, job["generators"], problems)


def _check_check_af(job, res, F, problems):
    ops = _ops(job["options"]["v"])
    verdict = _brute_af(tuple(job["generators"]), job["options"]["v"])
    if res["verdict"] != verdict:
        problems.append(f"verdict {res['verdict']}, brute force {verdict}")
    elif not verdict and not _witness_ok(ops, res["witness"]):
        problems.append("witness fails V ⊥ f = 0, V ⊥ f² ≠ 0")
    elif verdict and res["witness"] is not None:
        problems.append("witness on a positive verdict")


def _check_annihilate(job, res, F, problems):
    ops = _ops(job["options"]["v"])
    gens = tuple(job["generators"])
    maxdeg = max(len(g) for g in ops)
    rows = _rows_for(gens, maxdeg)
    rank = oracles.span_rank([[_perp(g, r) for r in rows] for g in ops], len(rows))
    if res["delta"] != F["delta"] + rank:
        problems.append(f"annihilator δ = {res['delta']}, oracle {F['delta'] + rank}")
    basis = [as_list(parse_terms(b)) for b in res["staircase_basis"]]
    rows = _rows_for(gens, max([maxdeg] + [len(b) for b in basis]))
    if not all(_in_span(rows, b) and all(_perp(g, b) == 0 for g in ops) for b in basis):
        problems.append("annihilator basis leaves the algebra or is not annihilated")


def _check_transport(job, res, F, problems):
    c = F["conductor"]
    if res["conductor"] != c or len(res["matrix"]) != c:
        problems.append("transport matrix is not c x c")
        return
    h = as_list(parse_terms(job["options"]["h"]))
    p = [Fraction(1)] + [Fraction(0)] * (c - 1)
    for j in range(c):
        if [Fraction(res["matrix"][i][j]) for i in range(c)] != p[:c]:
            problems.append(f"transport matrix column {j} is not h^{j}")
            break
        p = oracles.poly_mul(p, h, c - 1)
    if len(res["basis"]) != F["delta"]:
        problems.append("transported system has the wrong dimension")


def _check_gorenstein(job, res, F, problems):
    sym = F["conductor"] == 2 * F["delta"]
    if res["conductor"] != F["conductor"] or res["genus"] != F["delta"]:
        problems.append("conductor or genus differ from the oracle")
    if not res["symmetric"] == res["c_equals_2delta"] == res["palindromic_inverse"] == sym:
        problems.append(f"Gorenstein flags differ from c == 2δ ({sym})")


def _check_semigroup_summary(res, gaps, problems):
    c = gaps[-1] + 1 if gaps else 0
    if res["gaps"] != gaps or res["conductor"] != c or res["genus"] != len(gaps):
        problems.append("semigroup gaps, conductor or genus differ from the oracle")
    if tuple(res["generators"]) != oracles.gaps_to_generators(set(gaps)):
        problems.append("semigroup generators are not the minimal generators")
    if res["symmetric"] != (c == 2 * len(gaps)):
        problems.append("symmetric flag differs from c == 2g")


def _check_semigroup(job, res, F, problems):
    gaps, _, _ = oracles.semigroup_data([int(g) for g in job["generators"]])
    _check_semigroup_summary(res, list(gaps), problems)


def _check_saturation(job, res, F, problems):
    head, _, tail = job["options"]["char"].partition(";")
    e0, betas = int(head), [int(b) for b in tail.split(",") if b]
    ms, ns, e = [], [], e0
    for b in betas:
        g = math.gcd(e, b)
        ns.append(e // g)
        ms.append(b // g)
        e = g
    ch = res["characteristic"]
    if (ch["e0"], ch["betas"], ch["m"], ch["n"]) != (e0, betas, ms, ns):
        problems.append("characteristic normalization differs")
    _check_semigroup_summary(res, res["gaps"], problems)
    if res["generators"][0] != e0:
        problems.append("saturation multiplicity differs from e0")
    want = job["expect"].get("generators")
    if want is not None and res["generators"] != want:
        problems.append(f"saturation generators {res['generators']}, expected {want}")


def _check_verify(job, res, F, problems):
    if res["verified"] is not True:
        problems.append("duality round trip not verified")
    if res["delta"] != F["delta"] or res["conductor"] != F["conductor"]:
        problems.append("delta or conductor differ from the oracle")


_RESULT_CHECKS = {
    "analyze": _check_analyze,
    "blowup-chain": _check_blowup_chain,
    "filtration": _check_filtration,
    "derivations": _check_derivations,
    "inverse-system": _check_inverse_system,
    "canonical": _check_canonical,
    "check-af": _check_check_af,
    "annihilate": _check_annihilate,
    "transport": _check_transport,
    "gorenstein": _check_gorenstein,
    "semigroup": _check_semigroup,
    "saturation": _check_saturation,
    "verify": _check_verify,
}

_NO_FACTS = {"semigroup", "saturation"}


def _floats(x):
    if isinstance(x, float):
        return True
    if isinstance(x, dict):
        return any(_floats(v) for v in x.values())
    if isinstance(x, list):
        return any(_floats(v) for v in x)
    return False


def expected_exit(job) -> int:
    """Exit code the job must produce; annihilate's follows the brute-force verdict."""
    if job["command"] == "annihilate" and job["expect"]["exit"] == 0:
        return 0 if _brute_af(tuple(job["generators"]), job["options"]["v"]) else 4
    return job["expect"]["exit"]


def check(job, report, code) -> list:
    """Problems with one job's (report, exit code); empty when it is right."""
    if report is None:
        return [f"no report: {code}"]
    problems = [e.message for e in _VALIDATOR.iter_errors(report)]
    if _floats(report):
        problems.append("report contains a float")
    if problems:
        return problems
    want = expected_exit(job)
    if code != want:
        return [f"exit {code}, expected {want}"]
    if report["command"] != job["command"]:
        return ["report names another command"]
    if want != 0:
        err = report["error"]
        name = job["expect"].get("error", "NotAlgebraForming" if want == 4 else None)
        if err["type"] != name:
            problems.append(f"error type {err['type']}, expected {name}")
        if want == 4 and not _witness_ok(_ops(job["options"]["v"]), err.get("witness")):
            problems.append("NotAlgebraForming witness fails V ⊥ f = 0, V ⊥ f² ≠ 0")
        return problems
    F = None if job["command"] in _NO_FACTS else facts(tuple(job["generators"]))
    _RESULT_CHECKS[job["command"]](job, report["result"], F, problems)
    return problems
