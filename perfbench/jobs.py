"""Workload job lists: the fixed δ-ladder of each workload plus a seeded
population of small jobs (δ ≤ 12).

A job is a plain dict.  ``command``, ``generators`` and ``options`` are what
the program receives (``branchdual.cli.JobSpec``).  ``id``, ``small`` and
``expect`` stay with the benchmark: ``expect`` holds the exit code and error
type a job must produce when it is not the default (exit 0), and
``known_defect`` marks a job whose expected answer the program gets wrong
today.  Everything else the checker derives from the oracles.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

DEFAULT_SEED = 1
# Not used while the benchmark or a change was written; a claimed gain must
# also hold on it.
HELD_OUT_SEED = 2024

# Ladder rungs, named by δ; the checker derives their value sets from the
# oracles at run time.
D4 = ["t^3+t^4", "t^5"]
D8 = ["t^4+t^5", "t^6"]
D8B = ["t^4", "t^6+t^7"]
D11 = ["t^6", "t^8+t^11", "t^10+t^13"]  # README's criterion_02 branch
D12 = ["t^5+t^6", "t^7"]
D21 = ["t^6+t^7", "t^9"]
D27 = ["t^7+3/5 t^8-7/11 t^9+2/9 t^10", "t^10+13/17 t^11-1/19 t^13"]
D30 = ["t^7+t^9", "t^11+1/3 t^12"]

# One semigroup per genus 1..12, perturbed by fixed rational tails: two
# branches per genus up to 8, one above, where a job costs up to a second
# and would leave a run too few passes.
SMALL_MENU = [
    (2, 3), (3, 4, 5), (3, 4), (3, 5), (4, 6, 7), (4, 5),
    (3, 8), (5, 7, 9), (7, 10, 11, 12, 15, 16), (7, 8, 10, 19),
    (6, 11, 13, 15, 16), (6, 11, 16, 19, 20, 21),
]

_MAGNITUDES = (Fraction(2, 3), Fraction(3), Fraction(1, 2), Fraction(2), Fraction(3, 4))

KNOWN_DEFECTS = {
    "inverse-system/d4-trunc1": "closure raises InfiniteCodimension(0) when the window "
    "is below the generator orders; exits 2 instead of 5 (ROADMAP item 2)",
}

WORKLOADS = ("invariants", "filtration", "duality")


def _job(jid, command, gens=(), small=False, expect=None, **options):
    return {
        "id": jid,
        "command": command,
        "generators": list(gens),
        "options": dict(options),
        "small": small,
        "expect": expect or {"exit": 0},
    }


def _ladder(workload):
    rungs = [("d4", D4), ("d8", D8), ("d8b", D8B), ("d11", D11), ("d12", D12)]
    if workload == "invariants":
        return [_job(f"{cmd}/{name}", cmd, gens) for name, gens in rungs
                for cmd in ("analyze", "blowup-chain")]
    if workload == "filtration":
        jobs = [_job(f"filtration/{name}", "filtration", gens) for name, gens in rungs]
        jobs += [_job(f"derivations/{name}", "derivations", gens, v="u;u^2;u^5;u^9")
                 for name, gens in rungs]
        return jobs
    if workload == "duality":
        return [
            _job("inverse-system/d12", "inverse-system", D12),
            _job("verify/d12", "verify", D12),
            _job("canonical/d12", "canonical", D12),
            _job("check-af/d12-true", "check-af", D12, v="u^2"),
            _job("check-af/d12-false", "check-af", D12, v="u^12"),
            _job("annihilate/d12", "annihilate", D12, v="u^4;u^3"),
            _job("annihilate/d12-exit4", "annihilate", D12, v="u^12",
                 expect={"exit": 4, "error": "NotAlgebraForming"}),
            _job("transport/d12", "transport", D12, h="t+t^2"),
            _job("derivations/d12", "derivations", D12, v="u;u^2;u^11"),
            _job("gorenstein/d12", "gorenstein", D12),
            _job("inverse-system/d21", "inverse-system", D21),
            _job("check-af/d21-false", "check-af", D21, v="u^15"),
            _job("inverse-system/d27", "inverse-system", D27),
            _job("check-af/d27", "check-af", D27, v="u^3;u^9"),
            _job("inverse-system/d30", "inverse-system", D30),
            _job("check-af/d30-true", "check-af", D30, v="u^5"),
            _job("check-af/d30-false", "check-af", D30, v="u^18"),
            _job("gorenstein/d30", "gorenstein", D30),
            _job("semigroup/4-6-9", "semigroup", ["4", "6", "9"]),
            _job("saturation/6-8-11", "saturation", char="6;8,11",
                 expect={"exit": 0, "generators": [6, 8, 10, 11, 13, 15]}),
            _job("inverse-system/exit2", "inverse-system", ["t^4", "t^6"],
                 expect={"exit": 2, "error": "InfiniteCodimension"}),
            _job("verify/exit3", "verify", ["t^3+^t^4", "t^5"],
                 expect={"exit": 3, "error": "ExpressionError"}),
            _job("inverse-system/d30-trunc20", "inverse-system", D30, trunc=20,
                 expect={"exit": 5, "error": "PrecisionExhausted"}),
            _job("inverse-system/d4-trunc1", "inverse-system", D4, trunc=1,
                 expect={"exit": 5, "error": "PrecisionExhausted"}),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def format_terms(coeffs: dict, var: str = "t") -> str:
    """Render {exponent: Fraction} as an expression the CLI parses."""
    parts = []
    for e in sorted(coeffs):
        c = Fraction(coeffs[e])
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        head = "" if mag == 1 and e else f"{mag} "
        body = (head + (var if e == 1 else f"{var}^{e}")) if e else str(mag)
        parts.append((sign, body))
    if not parts:
        return "0"
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return text + "".join(f" {s} {b}" for s, b in parts[1:])


def _terms(shape, exps):
    """Rationals of fixed magnitude and a sign drawn from ``shape`` on every
    third of the given exponents."""
    return {e: shape.choice((-1, 1)) * _MAGNITUDES[k % len(_MAGNITUDES)]
            for k, e in enumerate(exps[::3])}


def _mirror(coeffs, lead, flip):
    """The image of lead term + tail under t -> -t, rescaled to a monic lead
    term: the coefficient at e changes sign when e - lead is odd.  Mirrored
    inputs give the same eliminations on numbers of the same size, so the
    seed's choice moves the inputs but not the work they cost."""
    return {e: c * (-1) ** (e - lead) for e, c in coeffs.items()} if flip else coeffs


def _branch(shape, gens, flip):
    """Generators t^a + (rational tail on the semigroup's gaps above a)."""
    member = [False] * (max(gens) * max(gens) + 1)
    member[0] = True
    for n in range(1, len(member)):
        member[n] = any(n >= a and member[n - a] for a in gens)
    conductor = max((n for n, m in enumerate(member) if not m), default=0) + 1
    out = []
    for a in gens:
        tail = _terms(shape, [e for e in range(a + 1, conductor) if not member[e]])
        out.append(format_terms(_mirror({a: 1, **tail}, a, flip)))
    return out, conductor


def _op(shape, deg, flip):
    """u^deg plus integer multiples of lower powers of u, mirrored with the branch."""
    coeffs = {e: c.numerator for e, c in _terms(shape, list(range(1, deg))).items()}
    return format_terms(_mirror({**coeffs, deg: 1}, deg, flip), "u")


def _random_char(rng):
    e0 = rng.choice((2, 3, 4, 6))
    betas, g, b = [], e0, e0
    while g > 1:
        b = rng.randint(b + 1, b + e0)
        if math.gcd(g, b) < g:
            betas.append(b)
            g = math.gcd(g, b)
    return f"{e0};" + ",".join(map(str, betas))


_SMALL_COMMANDS = {
    "invariants": ("analyze", "blowup-chain"),
    "filtration": ("filtration", "derivations"),
    "duality": ("inverse-system", "verify", "canonical", "check-af",
                "annihilate", "transport", "gorenstein", "derivations"),
}


def _small(workload, rng):
    """Two jobs per small branch, the commands taken in turn from the workload's.

    A branch's tails and operators are fixed per menu slot; the seed chooses
    for each branch whether it is taken as it is or mirrored (t -> -t).
    """
    commands = _SMALL_COMMANDS[workload]
    jobs = []
    slot = 0
    for genus, base in enumerate(SMALL_MENU, start=1):
        for rep in range(2 if genus <= 8 else 1):
            shape = random.Random(f"{workload}:g{genus}-{rep}")
            flip = rng.random() < 0.5
            gens, c0 = _branch(shape, base, flip)
            deg = max(1, min(c0 - 1, 8))
            for k in range(2):
                cmd = commands[(2 * slot + k) % len(commands)]
                opts = {}
                if cmd == "derivations":
                    opts["v"] = ";".join(["u", _op(shape, deg, flip), _op(shape, c0 + 2, flip)])
                elif cmd in ("check-af", "annihilate"):
                    opts["v"] = _op(shape, deg, flip)
                elif cmd == "transport":
                    opts["h"] = format_terms(_mirror({1: 1, **_terms(shape, [2])}, 1, flip))
                jobs.append(_job(f"{cmd}/small-g{genus}-{rep}", cmd, gens, small=True, **opts))
            slot += 1
    if workload == "duality":
        for i in range(4):
            k = rng.randint(2, 3)
            ints = sorted(rng.sample(range(2, 14), k))
            while math.gcd(*ints) != 1:
                ints = sorted(rng.sample(range(2, 14), k))
            jobs.append(_job(f"semigroup/small-{i}", "semigroup", [str(x) for x in ints], small=True))
        for i in range(2):
            jobs.append(_job(f"saturation/small-{i}", "saturation", small=True, char=_random_char(rng)))
    return jobs


def build(workload: str, seed: int):
    """The workload's job list for this seed: ladder plus small jobs, shuffled."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = _ladder(workload) + _small(workload, rng)
    for job in jobs:
        if job["id"] in KNOWN_DEFECTS:
            job["known_defect"] = KNOWN_DEFECTS[job["id"]]
    rng.shuffle(jobs)
    return jobs
