"""The benchmark's one client: runs a job list through ``branchdual.cli.run``
in a closed loop, one job at a time, in a process of its own.

Reads ``{"mode", "seconds", "jobs"}`` as JSON on stdin and writes one JSON
line per pass to stdout, after the pass's timed span.  Modes:

* ``setup``: import ``branchdual.cli`` and load the job list, report the
  time and the times of a few reference slices run after it.
* ``run``: untraced passes until ``seconds`` are spent (at least one).
* ``trace``: pairs of one untraced and one traced pass, likewise.

Every job of a pass is followed by a reference slice, outside every span.

The last line carries the process's peak RSS and, when traced, the per-layer
aggregates of every traced pass.
"""

import json
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

T0 = time.perf_counter()

_REF_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, (i * j) % 5 + 1) for j in range(11)]
               for i in range(10)]


def reference_slice():
    """Row-reduce a fixed 10 x 11 rational matrix (about 6 ms); returns the
    time it took.  The work never changes, so its time measures how fast the
    host runs this process at the moment."""
    t = time.perf_counter()
    rows = [r[:] for r in _REF_MATRIX]
    r0 = 0
    for c in range(len(rows[0])):
        p = next((i for i in range(r0, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r0], rows[p] = rows[p], rows[r0]
        inv = 1 / rows[r0][c]
        rows[r0] = [x * inv for x in rows[r0]]
        for i, row in enumerate(rows):
            if i != r0 and row[c]:
                f = row[c]
                rows[i] = [a - f * b for a, b in zip(row, rows[r0])]
        r0 += 1
    return time.perf_counter() - t


def _pass(cli, jobs, phase, tracer=None, first_job=0):
    """Run the job list once, a reference slice after each job; returns the
    pass's output line.  ``wall_s`` is the sum of the jobs' times, ``ref``
    lists the slices' times."""
    out, refs = [], []
    for i, job in enumerate(jobs):
        if tracer:
            tracer.job = first_job + i
        t = time.perf_counter()
        try:
            report, code = cli.run(job)
        except Exception:  # a crash is a failed job, not a failed run
            report, code = None, traceback.format_exc(limit=3)
        out.append((time.perf_counter() - t, code, report))
        refs.append(reference_slice())
    return {"phase": phase, "wall_s": sum(t for t, _, _ in out), "jobs": out, "ref": refs}


def _peak_rss_kb():
    """This process's peak RSS.  ru_maxrss would also count the parent's peak,
    which the kernel carries across the exec that started this process."""
    try:
        with open("/proc/self/status") as fh:
            return int(next(l.split()[1] for l in fh if l.startswith("VmHWM:")))
    except (OSError, StopIteration):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main():
    import branchdual.cli as cli

    req = json.load(sys.stdin)
    jobs = [cli.JobSpec(j["command"], list(j["generators"]), dict(j["options"]))
            for j in req["jobs"]]
    setup_s = time.perf_counter() - T0
    emit = lambda obj: print(json.dumps(obj), flush=True)  # noqa: E731
    if req["mode"] == "setup":
        emit({"setup_s": setup_s, "ref": [reference_slice() for _ in range(5)]})
        return

    import tracing

    deadline = time.perf_counter() + req["seconds"]
    rounds = []
    if req["mode"] == "run":
        while not rounds or time.perf_counter() + statistics.median(rounds) < deadline:
            start = time.perf_counter()
            emit(_pass(cli, jobs, "untraced"))
            rounds.append(time.perf_counter() - start)
        tracing.assert_unpatched()
        emit({"peak_rss_kb": _peak_rss_kb()})
        return

    # Untraced and traced passes alternate, so drift in machine speed falls on
    # both sides of trace.overhead_s alike.
    tracer = tracing.Tracer()
    ranges = []
    while not rounds or time.perf_counter() + statistics.median(rounds) < deadline:
        tracing.assert_unpatched()
        start = time.perf_counter()
        plain = _pass(cli, jobs, "untraced")
        emit(plain)
        lo = len(tracer.spans)
        tracer.install()
        try:
            line = _pass(cli, jobs, "traced", tracer, len(ranges) * len(jobs))
        finally:
            tracer.uninstall()
        ranges.append((lo, len(tracer.spans)))
        line["counts"] = dict(tracer.counts)
        tracer.counts.clear()
        emit(line)
        rounds.append(time.perf_counter() - start)
    self_t = tracing.self_times(tracer.spans)
    layers = []
    for lo, hi in ranges:
        per_job = [{} for _ in jobs]  # job index -> {layer: self time}
        closure_calls = [0] * len(jobs)
        for s, t in zip(tracer.spans[lo:hi], self_t[lo:hi]):
            job = per_job[s.job % len(jobs)]
            job[s.layer] = job.get(s.layer, 0.0) + t
            closure_calls[s.job % len(jobs)] += s.layer == "subalgebra.closure"
        layers.append({"per_job": per_job, "closure_calls": closure_calls})
    emit({"layers": layers, "peak_rss_kb": _peak_rss_kb()})


if __name__ == "__main__":
    main()
