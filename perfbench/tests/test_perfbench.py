"""The benchmark's own tests:  python3 -m pytest perfbench/tests"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for p in (ROOT / "perfbench", ROOT / "src", ROOT / "tests"):
    sys.path.insert(0, str(p))

import check  # noqa: E402
import jobs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from branchdual import cli  # noqa: E402


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(list(range(1, 101))) == (90.0, 90)
    pct, value = run.tail_percentile(list(range(24, 0, -1)))
    assert value == 14 and pct == pytest.approx(100 * 14 / 24)
    assert sum(v > value for v in range(1, 25)) == 10
    with pytest.raises(run.BenchError):
        run.tail_percentile(list(range(10)))


def test_host_adjustment_cancels_the_host_speed():
    def pass_(times, refs):
        return {"jobs": [[t, 0, None] for t in times], "ref": refs}

    [fast] = run.host_adjusted([pass_([0.1, 0.2], [0.005, 0.005])])
    [slow] = run.host_adjusted([pass_([0.2, 0.4], [0.01, 0.01])])
    assert fast == pytest.approx(slow)
    assert fast[0] == pytest.approx(0.1 / 0.005 * run.REF_SLICE_S)
    # One slow slice among its neighbours moves no job: the window's median.
    [spiky] = run.host_adjusted([pass_([0.1] * 5, [0.005, 0.005, 0.05, 0.005, 0.005])])
    assert spiky == pytest.approx([0.1 / 0.005 * run.REF_SLICE_S] * 5)


def test_self_time_subtracts_child_cover():
    S = tracing.Span
    spans = [
        S("root", 0.0, 10.0, -1, 0),
        S("a", 1.0, 4.0, 0, 0),
        S("b", 5.0, 9.0, 0, 0),
        S("a", 6.0, 7.0, 2, 0),
        S("root", 10.5, 11.0, -1, 1),
    ]
    self_t = tracing.self_times(spans)
    assert self_t == [3.0, 3.0, 3.0, 1.0, 0.5]
    assert sum(self_t) == 10.5  # Σ self time = Σ root durations


def test_tracer_patches_every_import_site_and_restores():
    import branchdual

    inverse_system = sys.modules["branchdual.inverse_system"]
    subalgebra = sys.modules["branchdual.subalgebra"]
    orig = subalgebra.closure
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.closure is inverse_system.closure is subalgebra.closure
        assert cli.closure is not orig
        assert branchdual.closure is cli.closure  # the package re-export too
        with pytest.raises(RuntimeError):
            tracing.assert_unpatched()
        cli.run(cli.JobSpec("filtration", ["t^3+t^4", "t^5"]))
    finally:
        tracer.uninstall()
    tracing.assert_unpatched()
    assert cli.closure is orig and inverse_system.closure is orig
    assert tracer.counts["subalgebra.closure.calls"] == 4 + 1  # δ + 1
    assert sum(tracing.self_times(tracer.spans)) == pytest.approx(
        sum(s.end - s.start for s in tracer.spans if s.parent < 0))


def _job(command, gens, **options):
    return {"id": "t", "command": command, "generators": gens, "options": options,
            "small": False, "expect": {"exit": 0}}


def test_checker_accepts_right_and_rejects_tampered_reports():
    job = _job("analyze", ["t^6", "t^8+t^11", "t^10+t^13"])
    report, code = cli.run(cli.JobSpec(job["command"], job["generators"]))
    assert check.check(job, report, code) == []
    assert check.facts(tuple(job["generators"]))["delta"] == 11  # not the README's 12

    assert check.check(job, report, 1)  # wrong exit code
    bad = dict(report, result=dict(report["result"], delta=12))
    assert check.check(job, bad, code)
    bad = dict(report, result=dict(report["result"], gaps=report["result"]["gaps"][:-1]))
    assert check.check(job, bad, code)
    assert check.check(job, dict(report, diagnostics={"elapsed_ms": 1.5}), code)  # float
    assert check.check(job, dict(report, extra=1), code)  # schema violation
    assert check.check(job, None, "Traceback ...")


def test_checker_verifies_algebra_forming_witness():
    job = _job("check-af", ["t^5+t^6", "t^7"], v="u^12")
    report, code = cli.run(cli.JobSpec(job["command"], job["generators"], job["options"]))
    assert report["result"]["verdict"] is False
    assert check.check(job, report, code) == []
    bad = dict(report, result=dict(report["result"], witness="t^7"))
    assert check.check(job, bad, code)


def test_expected_exit_code_is_checked_for_error_jobs():
    job = _job("inverse-system", ["t^4", "t^6"])
    job["expect"] = {"exit": 2, "error": "InfiniteCodimension"}
    report, code = cli.run(cli.JobSpec(job["command"], job["generators"]))
    assert check.check(job, report, code) == []
    assert check.check(job, report, 3)


def test_job_lists_follow_the_seed():
    a = jobs.build("duality", 7)
    assert a == jobs.build("duality", 7)
    assert a != jobs.build("duality", 8)
    assert sorted(j["id"] for j in a) == sorted(j["id"] for j in jobs.build("duality", 8))
    assert [oracles.semigroup_data(g)[2] for g in jobs.SMALL_MENU] == list(range(1, 13))
    for w in jobs.WORKLOADS:
        small = [j for j in jobs.build(w, jobs.DEFAULT_SEED) if j["small"]]
        assert len(small) >= 40


def test_seeds_differ_by_mirrored_branches_of_equal_invariants():
    a = {j["id"]: j for j in jobs.build("invariants", 1)}
    b = {j["id"]: j for j in jobs.build("invariants", 2)}
    mirrored = [i for i in a if a[i]["generators"] != b[i]["generators"]]
    assert mirrored and all(a[i]["small"] for i in mirrored)
    for i in mirrored:
        fa, fb = (check.facts(tuple(x[i]["generators"])) for x in (a, b))
        assert (fa["delta"], fa["gaps"]) == (fb["delta"], fb["gaps"])
    assert jobs._mirror({3: 1, 4: 2, 7: -1}, 3, True) == {3: 1, 4: -2, 7: -1}


def test_parse_terms_reads_cli_output():
    assert check.parse_terms("u^3 - 1/4 u^4") == {3: 1, 4: check.Fraction(-1, 4)}
    assert check.parse_terms("t^7+3/5 t^8-7/11 t^9") == {
        7: 1, 8: check.Fraction(3, 5), 9: check.Fraction(-7, 11)}
    assert check.parse_terms("-2 t + 3") == {1: -2, 0: 3}
    with pytest.raises(ValueError):
        check.parse_terms("t^3+^t^4")
