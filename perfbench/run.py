"""Benchmark of the branchdual CLI on the δ-ladder.

    python3 perfbench/run.py --workload invariants --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root.  One worker process (``worker.py``) is the only
client: it sends the workload's jobs through ``branchdual.cli.run`` one at a
time, in a closed loop, repeating the job list until ``--seconds`` are spent.
This process builds the job list from the seed, measures set-up in fresh
interpreters, and afterwards checks every report against the oracles
(``check.py``), outside the timed spans.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (``tracing.py``).  ``--workload all`` runs every
workload both ways.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up is timed this many times, half before and half after the timed
# passes, so one burst of load from elsewhere moves few of the samples.
SETUP_REPEATS = 10
# The host's speed wanders by up to 1.6x for minutes at a time (other
# tenants of the machine), longer than a run, so no choice of statistic over
# raw times is steady.  Each timed job is followed by a reference slice of
# fixed work (worker.reference_slice); a job's time is divided by the median
# time of the REF_WINDOW slices around it and multiplied by REF_SLICE_S.
# Times therefore read in seconds of a host on which the slice takes
# REF_SLICE_S: its median time on the host of baseline.json.
REF_SLICE_S = 0.0056
REF_WINDOW = 9
# Σ of per-layer self times must match the traced wall time (Σ of the jobs'
# times) within this share; the difference is the clock readings around
# cli.run, outside every span.
SELF_TIME_TOLERANCE = 0.02

# Times of layers that some workload never calls read 0 there; they are in
# the printed table only.  BENCHMARK.json lists the metrics of the JSON line:
# the end-to-end ones, and per layer every count and the times of layers
# that run on every workload.
TABLE_TIMES = [
    "cli.run", "expressions.parse", "expressions.format", "series.mul", "series.perp",
    "series.divide_by_unit", "linalg.nullspace", "linalg.solve", "subalgebra.closure",
    "subalgebra.echelon", "subalgebra.hilbert", "subalgebra.blowup",
    "subalgebra.blowup_chain", "subalgebra.membership", "inverse_system.natural_set",
    "inverse_system.inverse_system", "inverse_system.is_algebra_forming",
    "inverse_system.annihilator", "inverse_system.verify_duality",
    "inverse_system.transport_dual", "inverse_system.standard_filtration",
    "inverse_system.cutting_derivation", "semigroup",
]


class BenchError(Exception):
    """The benchmark itself could not run."""


def _worker(mode, jobs, seconds=0.0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    payload = json.dumps({"mode": mode, "seconds": seconds, "jobs": [
        {k: j[k] for k in ("command", "generators", "options")} for j in jobs]})
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=payload,
                          capture_output=True, text=True, cwd=ROOT, env=env,
                          timeout=seconds + 120)
    if proc.returncode != 0:
        raise BenchError(f"worker ({mode}) exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]


def host_adjusted(passes):
    """Per pass, each job's time at reference speed (see REF_SLICE_S).
    ``passes`` are in run order; the slices around a job may lie in the
    pass before or after it."""
    flat = [(t, r) for p in passes for (t, _, _), r in zip(p["jobs"], p["ref"])]
    refs = [r for _, r in flat]
    half = REF_WINDOW // 2
    adjusted = [t / statistics.median(refs[max(0, k - half):k + half + 1]) * REF_SLICE_S
                for k, (t, _) in enumerate(flat)]
    n = len(passes[0]["jobs"])
    return [adjusted[i:i + n] for i in range(0, len(adjusted), n)]


def tail_percentile(values):
    """(percentile, value) of the highest rank with at least 10 samples beyond it."""
    n = len(values)
    if n < 11:
        raise BenchError(f"{n} samples cannot give a tail with 10 beyond it")
    k = n - 10
    return 100.0 * k / n, sorted(values)[k - 1]


def _report_key(code, report):
    if isinstance(report, dict):
        report = dict(report, diagnostics={
            k: v for k, v in report.get("diagnostics", {}).items() if k != "elapsed_ms"})
    return json.dumps([code, report], sort_keys=True)


class Checker:
    """Checks each distinct (job, report) once; identical reports share the verdict."""

    def __init__(self, jobs):
        import check

        self._check = check.check
        self.jobs = jobs
        self.verdicts = {}
        self.attempted = 0
        self.failed = {}  # job id -> (times failed, problems)

    def add_pass(self, line):
        for idx, (_, code, report) in enumerate(line["jobs"]):
            key = (idx, _report_key(code, report))
            if key not in self.verdicts:
                self.verdicts[key] = self._check(self.jobs[idx], report, code)
            self.attempted += 1
            if self.verdicts[key]:
                jid = self.jobs[idx]["id"]
                self.failed[jid] = (self.failed.get(jid, (0,))[0] + 1, self.verdicts[key])

    @property
    def n_failed(self):
        return sum(n for n, _ in self.failed.values())

    def known_defect(self, jid):
        return next(j.get("known_defect") for j in self.jobs if j["id"] == jid)

    def unexpected(self):
        return [jid for jid in self.failed if not self.known_defect(jid)]


def run_workload(workload, seed, seconds, traced):
    """Returns (metrics {name: (value, unit)}, checker, notes, self-check problems)."""
    import jobs as joblist
    import check

    jobs = joblist.build(workload, seed)
    setup = [_worker("setup", jobs)[0] for _ in range(SETUP_REPEATS // 2)]
    lines = _worker("trace" if traced else "run", jobs, seconds)
    setup += [_worker("setup", jobs)[0] for _ in range(SETUP_REPEATS - len(setup))]
    untraced = [l for l in lines if l.get("phase") == "untraced"]
    traced_passes = [l for l in lines if l.get("phase") == "traced"]
    final = lines[-1]
    checker = Checker(jobs)
    for line in untraced + traced_passes:
        checker.add_pass(line)
    small = [i for i, j in enumerate(jobs) if j["small"]]
    walls = [p["wall_s"] for p in untraced]
    notes, problems = [], []
    if not traced:
        # A job's latency is the median of its host-adjusted times.
        adjusted = host_adjusted(untraced)
        lat = [statistics.median(p[i] for p in adjusted) for i in range(len(jobs))]
        small_lat = [lat[i] for i in small]
        pct, tail = tail_percentile(small_lat)
        metrics = {
            "setup_s": statistics.median(
                s["setup_s"] / statistics.median(s["ref"]) * REF_SLICE_S for s in setup),
            "wall_s": sum(lat),
            "small_job_p50_ms": 1000 * statistics.median(small_lat),
            "small_job_tail_ms": 1000 * tail,
            "peak_rss_mb": final["peak_rss_kb"] / 1024,
        }
        speed = [statistics.median(p["ref"]) / REF_SLICE_S for p in untraced]
        notes = [
            f"times are at reference speed (slice {1000 * REF_SLICE_S:g} ms); the host ran "
            f"the slice {min(speed):.2f}-{max(speed):.2f}x that long, pass medians",
            f"setup_s: median of {SETUP_REPEATS} fresh interpreters "
            f"(unadjusted {statistics.median(s['setup_s'] for s in setup):.4f} s)",
            f"wall_s: Σ over {len(jobs)} jobs of each job's median of {len(walls)} passes "
            f"(unadjusted median pass {statistics.median(walls):.3f} s)",
            f"small_job_*: N = {len(small_lat)} small jobs (δ ≤ 12), each its median of "
            f"{len(walls)} runs; tail = p{pct:.1f}",
        ]
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
        return ({k: (v, units.get(k, "ms")) for k, v in metrics.items()},
                checker, notes, problems)

    layers = final["layers"]
    for agg in layers:
        agg["self_s"] = {}
        for per in agg["per_job"]:
            for layer, t in per.items():
                agg["self_s"][layer] = agg["self_s"].get(layer, 0.0) + t
    gaps = []
    for p, agg in zip(traced_passes, layers):
        total = sum(agg["self_s"].values())
        gaps.append(abs(total - p["wall_s"]) / p["wall_s"])
        if gaps[-1] > SELF_TIME_TOLERANCE:
            problems.append(f"Σ self time {total:.3f} s vs traced wall {p['wall_s']:.3f} s")
    counts = traced_passes[0]["counts"]
    if any(p["counts"] != counts for p in traced_passes[1:]):
        problems.append("per-layer counts differ between traced passes")
    for i, j in enumerate(jobs):
        if j["command"] == "filtration":
            want = check.facts(tuple(j["generators"]))["delta"] + 1
            if layers[0]["closure_calls"][i] != want:
                problems.append(f"{j['id']}: {layers[0]['closure_calls'][i]} closure calls, "
                                f"expected δ+1 = {want}")
    metrics = {}
    for layer in TABLE_TIMES:
        metrics[f"{layer}.s"] = (statistics.median(a["self_s"].get(layer, 0.0) for a in layers), "s")
    for module in ("series", "subalgebra"):
        metrics[f"{module}.s"] = (sum(metrics[f"{l}.s"][0] for l in TABLE_TIMES
                                      if l.startswith(module + ".")), "s")
    names = [f"{l}.calls" for l in TABLE_TIMES] + [
        "subalgebra.closure.work_trunc", "subalgebra.closure.errors", "linalg.nullspace.cells"]
    for name in names:
        metrics[name.replace("echelon.calls", "echelon.rows")] = (counts.get(name, 0), "count")
    rows, useful = counts.get("subalgebra.echelon.calls", 0), counts.get("subalgebra.echelon.useful", 0)
    metrics["subalgebra.echelon.useful_ratio"] = (useful / rows if rows else 0.0, "ratio")
    # Host-adjusted like wall_s: raw pass times differ by more than the
    # overhead when the host's speed changes between the two passes.
    adjusted = [sum(p) for p in host_adjusted([l for l in lines if "jobs" in l])]
    metrics["trace.overhead_s"] = (statistics.median(
        t - u for u, t in zip(adjusted[0::2], adjusted[1::2])), "s")
    by_cmd = {}
    for i, per in enumerate(layers[0]["per_job"]):
        cmd = by_cmd.setdefault(jobs[i]["command"], {})
        for layer, t in per.items():
            cmd[layer] = cmd.get(layer, 0.0) + t
    for cmd, per in sorted(by_cmd.items()):
        top = sorted(per.items(), key=lambda kv: -kv[1])[:2]
        whole = sum(per.values())
        notes.append(f"{cmd}: " + ", ".join(f"{l} {100 * t / whole:.0f}%" for l, t in top))
    notes.insert(0, f"per-layer: median of {len(traced_passes)} traced passes, each after "
                    f"an untraced one; Σ self time is within {100 * max(gaps):.2f}% of the "
                    f"traced wall (tolerance {SELF_TIME_TOLERANCE:.0%})")
    return metrics, checker, notes, problems


def _print_workload(workload, seed, traced, metrics, checker, notes, problems):
    mode = "traced" if traced else "untraced"
    print(f"== {workload} (seed {seed}, {mode}) ==")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {unit}")
    failed = checker.n_failed
    print(f"  {'failed_frac':<42} {failed / checker.attempted:>14.6g} ratio "
          f"({failed} of {checker.attempted} jobs)")
    for note in notes:
        print(f"  - {note}")
    for jid, (n, probs) in sorted(checker.failed.items()):
        known = checker.known_defect(jid)
        tag = f"known seed defect: {known}" if known else "UNEXPECTED"
        print(f"  ! {jid} failed {n}x ({tag}): {'; '.join(probs)[:300]}")
    for p in problems:
        print(f"  ! trace self-check: {p}")


def _metric_units(spec, key):
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for need in ("src/branchdual/cli.py", "tests/oracles.py", "schema/report.schema.json",
                 "BENCHMARK.json"):
        if not (ROOT / need).is_file():
            print(f"perfbench: {need} not found under {ROOT}; run from a checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "tests"))
    import jobs as joblist

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {False: _metric_units(spec, "end_to_end"), True: _metric_units(spec, "per_layer")}
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    seed = joblist.DEFAULT_SEED if args.seed is None else args.seed
    if args.workload == "all":
        plan = [(w, t) for w in joblist.WORKLOADS for t in (False, True)]
    elif args.workload in joblist.WORKLOADS:
        plan = [(args.workload, bool(args.trace))]
    else:
        ap.error(f"--workload must be one of {', '.join(joblist.WORKLOADS)} or all")

    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload, traced in plan:
            metrics, checker, notes, problems = run_workload(workload, seed, seconds, traced)
            _print_workload(workload, seed, traced, metrics, checker, notes, problems)
            out["correct"] &= not checker.unexpected() and not problems
            out["attempted"] += checker.attempted
            out["failed"] += checker.n_failed
            prefix = f"{workload}/" if args.workload == "all" else ""
            for name, unit in wanted[traced].items():
                out["metrics"][prefix + name] = {"value": metrics[name][0], "unit": unit}
    except BenchError as ex:
        print(f"perfbench: {ex}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
