"""Inverse systems, algebra-forming certificates, filtrations, transport."""

import importlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchdual.errors import NotAlgebraForming, PrecisionExhausted
from branchdual import cli, linalg
from branchdual.expressions import parse_operators, parse_series
from branchdual.inverse_system import (
    InverseSystem,
    _reduce_ops,
    annihilator,
    cutting_derivation,
    inverse_system,
    is_algebra_forming,
    is_derivation,
    natural_set,
    residue,
    rosenlicht,
    standard_filtration,
    transport_dual,
    verify_duality,
)
from branchdual.linalg import QMatrix, nullspace, rref
from branchdual.series import DiffOp, Series, mul, order, perp, truncate
from branchdual.subalgebra import AlgebraInput, closure, membership

from test_subalgebra import LADDER as SUBALGEBRA_LADDER
from test_expressions import well_formed
from test_subalgebra import check_staircase_rows

from oracles import (
    algebra_span,
    brute_force_algebra_forming,
    canonical_operator_basis,
    coeff_dict_to_list,
    derivation_naive,
    enumerate_semigroups,
    gaps_to_generators,
    gauss_nullspace,
    maximal_ideal_rows,
    perp_list,
    poly_mul,
    quadric_algebra_forming,
    random_branch,
    span_rank,
    transport_solve_naive,
    two_pass_cutting_element,
)

F = Fraction


def S(d):
    n = max(d) + 1 if d else 0
    return Series.make([d.get(i, 0) for i in range(n)])


def alg(*dicts):
    return AlgebraInput.make([S(d) for d in dicts])


def op(d):
    n = max(d) + 1 if d else 0
    return DiffOp.make([d.get(i, 0) for i in range(n)])


def op_dict(g):
    return {i: c for i, c in enumerate(g.coeffs) if c}


TOY = alg({3: 1, 4: 1}, {5: 1})
GAMMA = alg({1: 1})

# Rungs of the benchmark ladder, named by delta.
LADDER = {
    "d4": "t^3+t^4, t^5",
    "d11": "t^6, t^8+t^11, t^10+t^13",
    "d27": "t^7+3/5 t^8-7/11 t^9+2/9 t^10, t^10+13/17 t^11-1/19 t^13",
    "d30": "t^7+t^9, t^11+1/3 t^12",
}


# Rungs of the benchmark ladder from the Hilbert-function tests, with d21.
RUNGS = ["d4", "d11", "d21", "d27", "d30"]


def rung_input(name):
    return AlgebraInput.make([parse_series(g) for g in SUBALGEBRA_LADDER[name].split(",")])


def ladder_gens(name):
    return [list(parse_series(g).coeffs) for g in LADDER[name].split(",")]


def op_rows(ops, width):
    return [[g.coeff(i) for i in range(width)] for g in ops]


# ---------------------------------------------------------------------------
# natural sets


def test_natural_set_toy():
    got = [
        {i: c for i, c in enumerate(h.coeffs) if c} for h in natural_set(TOY, 7)
    ]
    assert got == [{3: 1, 4: 1}, {5: 1}, {6: 1, 7: 2}]


def test_natural_set_whole_ring():
    got = natural_set(GAMMA, 1)
    assert len(got) == 1 and order(got[0]) == 1


def test_natural_set_monomial_prunes_above_bound():
    got = [order(h) for h in natural_set(alg({4: 1}, {7: 1}, {9: 1}), 10)]
    assert got == [4, 7, 8, 9]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_natural_set_is_the_breadth_first_products_on_random_branches(seed):
    # the elements are the truncated products themselves, rational tails
    # included, not multiples of them
    dicts = random_branch(random.Random(seed), max_delta=6)
    A = AlgebraInput.make([S(x) for x in dicts])
    d = closure(A).conductor - 1
    base = [(coeff_dict_to_list(x) + [F(0)] * (d + 1))[: d + 1] for x in dicts]
    base = [b for b in base if any(b)]
    kept = []

    def adds_a_pivot(f):
        if span_rank(kept + [f], d + 1) == len(kept):
            return False
        kept.append(f)
        return True

    def lead(f):
        return next(i for i, x in enumerate(f) if x)

    out = [f for f in base if adds_a_pivot(f)]
    for f in out:
        for g in base:
            if lead(f) + lead(g) <= d and adds_a_pivot(p := poly_mul(f, g, d)):
                out.append(p)
    assert [list(h.coeffs) for h in natural_set(A, d)] == sorted(out, key=lead)


# ---------------------------------------------------------------------------
# inverse systems


def test_toy_inverse_system_exact():
    V = inverse_system(closure(TOY))
    assert [op_dict(g) for g in V.basis] == [
        {1: 1},
        {2: 1},
        {3: 1, 4: F(-1, 4)},
        {6: 1, 7: F(-1, 14)},
    ]
    assert V.dim == 4 and V.conductor_bound == 8


def test_monomial_inverse_system_gaps():
    A = alg({4: 1}, {7: 1}, {9: 1})
    V = inverse_system(closure(A))
    assert [op_dict(g) for g in V.basis] == [
        {1: 1},
        {2: 1},
        {3: 1},
        {5: 1},
        {6: 1},
        {10: 1},
    ]


def test_whole_ring_inverse_system_empty():
    V = inverse_system(closure(GAMMA))
    assert V.basis == () and V.dim == 0


def test_two_five_tail_algebra_coefficient_forced_by_solver():
    # For k[[t^2+t^3, t^5]] the only degree-3 condition is
    # 2 a_2 + 6 a_3 = 0, forcing the second basis element u^2 - u^3/3
    # (a scalar multiple of the commonly quoted 6 u^2 - ... form either
    # way; the solver's exact nullspace is authoritative here).
    A = alg({2: 1, 3: 1}, {5: 1})
    V = inverse_system(closure(A))
    assert [op_dict(g) for g in V.basis] == [{1: 1}, {2: 1, 3: F(-1, 3)}]
    for g in V.basis:
        assert perp(g, S({2: 1, 3: 1})) == 0


def test_even_sextic_branch_relation_pattern_from_solver():
    # Coefficient relations like a_8 = -990 a_11 come out of the exact
    # solve (the sign is forced by 8! a_8 + 11! a_11 = 0); the published
    # opposite sign cannot satisfy the pairing.
    A = alg({6: 1}, {8: 1, 11: 1}, {10: 1, 13: 1})
    V = inverse_system(closure(A))
    basis = {g.degree: op_dict(g) for g in V.basis}
    assert V.dim == 11
    assert basis[11] == {8: 1, 11: F(-1, 990)}
    assert basis[13] == {10: 1, 13: F(-1, 1716)}
    assert basis[17] == {14: 1, 17: F(-1, 4080)}
    assert 6 not in {g.degree for g in V.basis}  # a_6 = 0 is forced
    assert all(min(g.support()) != 12 for g in V.basis)  # a_12 = 0 is forced


def test_inverse_system_annihilates_generators():
    for A in [TOY, alg({2: 1, 3: 1}, {5: 1}), alg({4: 1}, {6: 1}, {9: 1})]:
        Sx = closure(A)
        V = inverse_system(Sx)
        for g in V.basis:
            for f in A.gens:
                assert perp(g, f) == 0
            for b in Sx.basis:
                assert perp(g, b) == 0


def oracle_inverse_system(gens, c):
    """Reduced operators killing the algebra mod t^c, from the oracles alone."""
    rows = [
        [math.factorial(i) * r[i] for i in range(1, c)] for r in algebra_span(gens, c - 1)
    ]
    vecs = gauss_nullspace(rows, c - 1)
    return canonical_operator_basis([[0] + v for v in vecs], c)


def check_inverse_system_against_oracle(gens):
    A = AlgebraInput.make([Series.make(g) for g in gens])
    Sx = closure(A)
    c = Sx.conductor
    V = inverse_system(Sx)
    assert [op_dict(g) for g in V.basis] == oracle_inverse_system(gens, c)
    # Facts that hold by construction, checked here against the oracles.
    rows = op_rows(V.basis, c)
    assert V.dim == len(V.basis) == span_rank(rows, c) == Sx.delta
    assert all(g.coeff(0) == 0 for g in V.basis)
    assert max(g.degree for g in V.basis) == c - 1
    for i in range(1, Sx.e0):
        assert span_rank(rows + op_rows([DiffOp.monomial(i)], c), c) == len(rows)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_inverse_system_matches_oracle_nullspace_on_random_branches(seed):
    dicts = random_branch(random.Random(seed), max_delta=6)
    check_inverse_system_against_oracle([coeff_dict_to_list(d) for d in dicts])


@pytest.mark.parametrize("name", ["d4", "d11", "d27", "d30"])
def test_ladder_inverse_system_matches_oracle_nullspace(name):
    check_inverse_system_against_oracle(ladder_gens(name))


def test_low_degree_monomials_always_present():
    for A in [TOY, alg({4: 1}, {6: 1}, {9: 1}), alg({5: 1}, {7: 1}, {9: 1}, {11: 1})]:
        Sx = closure(A)
        V = inverse_system(Sx)
        degs = {g.degree for g in V.basis}
        for i in range(1, Sx.e0):
            assert any(d == i for d in degs) or any(
                op_dict(g).get(i) for g in V.basis
            )


# ---------------------------------------------------------------------------
# algebra-forming


def test_af_u2_on_whole_ring_fails_with_witness_t():
    cert = is_algebra_forming([op({2: 1})], closure(GAMMA))
    assert not cert.verdict
    f = cert.witness
    assert perp(op({2: 1}), f) == 0
    assert perp(op({2: 1}), mul(f, f)) != 0


def test_af_u_on_whole_ring_holds():
    assert is_algebra_forming([op({1: 1})], closure(GAMMA)).verdict


def test_af_element_for_three_four_five():
    B2 = closure(alg({3: 1}, {4: 1}, {5: 1}))
    cert = is_algebra_forming([op({3: 1, 5: F(-1, 20)})], B2)
    assert cert.verdict


def test_af_witness_is_b_when_ab_and_b_squared_fail():
    # in k[[t^2, t^3]] under u^6 - u^5 the first failing pair is (t^2, t^3):
    # (t^2)^2 = t^4 passes, (t^3)^2 = t^6 fails, so the witness is t^3
    B = closure(alg({2: 1}, {3: 1}))
    ops = [op({5: -1, 6: 1})]
    cert = is_algebra_forming(ops, B)
    assert not cert.verdict and cert.witness == S({3: 1})
    check_witness(cert.witness, ops, B)


def test_af_rejects_constant_term():
    with pytest.raises(ValueError):
        is_algebra_forming([op({0: 1, 2: 1})], closure(GAMMA))


def test_af_empty_space_trivially_true():
    assert is_algebra_forming([], closure(TOY)).verdict


def test_af_matches_brute_force_on_random_pairs():
    rng = random.Random(20240823)
    checked = 0
    while checked < 40:
        dicts = random_branch(rng, max_delta=5)
        gens = [coeff_dict_to_list(d) for d in dicts]
        Sx = closure(AlgebraInput.make([S(d) for d in dicts]))
        dim_v = rng.randint(1, 3)
        ops = []
        for _ in range(dim_v):
            deg = rng.randint(1, 8)
            coeffs = {deg: F(1)}
            for e in range(1, deg):
                if rng.random() < 0.4:
                    coeffs[e] = F(rng.randint(-3, 3))
            ops.append(op(coeffs))
        cert = is_algebra_forming(ops, Sx)
        maxdeg = max(g.degree for g in ops)
        T = max(2 * maxdeg + 2, Sx.conductor + 1)
        expected = brute_force_algebra_forming(
            [list(g.coeffs) for g in ops], gens, T
        )
        assert cert.verdict == expected
        if not cert.verdict:
            f = cert.witness
            assert all(perp(g, f) == 0 for g in ops)
            assert any(perp(g, mul(f, f)) != 0 for g in ops)
        checked += 1


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_af_matches_quadric_reference_on_random_branches(seed):
    # same verdict as the Q-matrix form of the quadric test over the natural
    # set; the witness comes from another basis of the solutions, so it is
    # checked for what it must be: f in B, V perp f = 0, V perp f^2 != 0
    rng = random.Random(seed)
    A = AlgebraInput.make([S(d) for d in random_branch(rng, max_delta=5)])
    Sx = closure(A)
    ops = []
    for _ in range(rng.randint(1, 3)):
        deg = rng.randint(1, 8)
        ops.append(op({deg: 1, **{e: F(rng.randint(-3, 3)) for e in range(1, deg) if rng.random() < 0.4}}))
    cert = is_algebra_forming(ops, Sx)
    d = max(Sx.conductor - 1, 1 + max(g.degree for g in ops))
    hs = natural_set(A, d)
    null = nullspace(QMatrix.from_rows([[perp(g, h) for h in hs] for g in ops]))
    verdict, _ = quadric_algebra_forming(
        [list(g.coeffs) for g in ops], [list(h.coeffs) for h in hs], null, d
    )
    assert cert.verdict == verdict
    if not verdict:
        check_witness(cert.witness, ops, Sx)
    else:
        assert cert.witness is None


def check_witness(f, ops, B):
    assert f.exact and order(f) > 0 and f.coeff(order(f)) == 1
    assert membership(f, B)
    assert all(perp(g, f) == 0 for g in ops)
    assert any(perp(g, mul(f, f)) != 0 for g in ops)


# ---------------------------------------------------------------------------
# annihilators


def test_annihilator_u2_inside_cusp():
    B3 = closure(alg({2: 1}, {3: 1}))
    C = annihilator([op({2: 1})], B3)
    assert C.gaps == (1, 2) and C.conductor == 3  # k[[t^3, t^4, t^5]]


def test_annihilator_af_element_inside_three_four_five():
    B2 = closure(alg({3: 1}, {4: 1}, {5: 1}))
    C = annihilator([op({3: 1, 5: F(-1, 20)})], B2)
    expected = closure(alg({3: 1, 5: 1}, {4: 1}))
    assert C == expected


def test_annihilator_empty_space_is_identity():
    Sx = closure(TOY)
    assert annihilator([], Sx) == Sx


def test_annihilator_raises_on_non_algebra_forming():
    with pytest.raises(NotAlgebraForming) as ex:
        annihilator([op({2: 1})], closure(GAMMA))
    assert ex.value.certificate.witness is not None


def test_annihilator_inclusion_reversing_with_inverse_system():
    # Ann of the full inverse system recovers the algebra itself
    Sx = closure(TOY)
    V = inverse_system(Sx)
    assert annihilator(list(V.basis), Sx) == Sx


def oracle_annihilator(gens, ops, n):
    """Staircase of Ann(V) in the algebra of ``gens``, from the oracles' solution span.

    n must be at least the algebra's conductor and above every operator
    degree.  The solutions mod t^n, from ``algebra_span`` and
    ``gauss_nullspace``, are exact polynomials in the annihilator, and so
    are t^n..t^(2n-1); ``closure`` of them, constant terms dropped, is it.
    """
    span = algebra_span(gens, n - 1)
    cond = [[perp_list(list(g.coeffs), b) for b in span] for g in ops]
    sols = [Series.monomial(j) for j in range(n, 2 * n)]
    for v in gauss_nullspace(cond, len(span)):
        f = [sum(x * b[i] for x, b in zip(v, span)) for i in range(n)]
        if any(f[1:]):
            sols.append(Series.make([0] + f[1:]))
    return closure(AlgebraInput.make(sols))


def check_annihilator_against_oracle(gens, ops):
    B = closure(AlgebraInput.make([Series.make(g) for g in gens]))
    C = annihilator(ops, B)
    dmax = max(g.degree for g in ops)
    assert C == oracle_annihilator(gens, ops, max(B.conductor, dmax + 1))
    assert (C.gaps, C.delta, C.e0) == (
        tuple(sorted(set(range(C.conductor)) - set(C.values))),
        C.conductor - len(C.values),
        min([v for v in C.values if v] + [C.conductor]),
    )
    check_staircase_rows(C)
    # what ``annihilator`` checked after its closure before, now a test
    for b in C.basis:
        assert membership(b, B) and all(perp(g, b) == 0 for g in ops)
    for j in range(C.conductor, dmax + 1):
        assert all(perp(g, Series.monomial(j)) == 0 for g in ops)
    return C


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_annihilator_matches_oracle_solution_span_on_random_branches(seed):
    rng = random.Random(seed)
    dicts = random_branch(rng, max_delta=5)
    gens = [coeff_dict_to_list(d) for d in dicts]
    B = closure(AlgebraInput.make([S(d) for d in dicts]))
    ops = []
    for _ in range(rng.randint(1, 2)):
        deg = rng.randint(1, 9)
        ops.append(op({deg: 1, **{e: F(rng.randint(-3, 3)) for e in range(1, deg) if rng.random() < 0.4}}))
    if rng.random() < 0.5:  # one element of the inverse system: C = B
        ops.append(rng.choice(inverse_system(B).basis))
    cert = is_algebra_forming(ops, B)
    if not cert.verdict:
        with pytest.raises(NotAlgebraForming) as ex:
            annihilator(ops, B)
        assert ex.value.certificate == cert
        check_witness(cert.witness, ops, B)
        return
    check_annihilator_against_oracle(gens, ops)


@pytest.mark.parametrize("name, v", [("d4", "u^2"), ("d27", "u^3;u^9"), ("d30", "u^5")])
def test_ladder_annihilator_matches_oracle_solution_span(name, v):
    # the operators of the benchmark's check-af jobs on these rungs
    C = check_annihilator_against_oracle(ladder_gens(name), parse_operators(v))
    assert C.delta > 0


def test_annihilate_high_degree_operator_exits_4_with_a_valid_witness():
    gens = ["t^5+t^6", "t^7"]
    report, code = cli.run(cli.JobSpec("annihilate", gens, {"v": "u^1000"}))
    assert code == 4 and report["error"]["type"] == "NotAlgebraForming"
    B = closure(AlgebraInput.make([parse_series(g) for g in gens]))
    check_witness(parse_series(report["error"]["witness"]), [DiffOp.monomial(1000)], B)


def test_check_af_and_annihilate_close_only_the_job_and_run_no_fraction_elimination(monkeypatch):
    closures = []

    def counting(A, ceiling):
        closures.append(ceiling)
        return closure(A, ceiling)

    def refuse(*args, **kwargs):
        raise AssertionError("called on the algebra-forming path")

    # the package's ``inverse_system`` attribute is the function, not the module
    module = importlib.import_module("branchdual.inverse_system")
    monkeypatch.setattr(cli, "closure", counting)
    for name in ("closure", "natural_set"):
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(linalg, "_reduced_rows", refuse)  # rref, nullspace and solve
    jobs = [
        ("check-af", ["t^5+t^6", "t^7"], "u^2", 0),
        ("check-af", ["t^5+t^6", "t^7"], "u^12", 0),
        ("annihilate", ["t^5+t^6", "t^7"], "u^4;u^3", 0),
        ("annihilate", ["t^5+t^6", "t^7"], "u^12", 4),
        ("annihilate", LADDER["d30"].split(","), "u^5", 0),
    ]
    for command, gens, v, code in jobs:
        closures.clear()
        report, got = cli.run(cli.JobSpec(command, gens, {"v": v}))
        assert (got, len(closures)) == (code, 1), report


# ---------------------------------------------------------------------------
# filtration and cutting derivations


def test_standard_filtration_toy_chain():
    filt = standard_filtration(closure(TOY))
    assert [st.gap_exponent for st in filt.steps] == [7, 4, 2, 1]
    expected_chain = [
        closure(alg({3: 1, 4: 1}, {5: 1}, {7: 1})),
        closure(alg({3: 1}, {4: 1}, {5: 1})),
        closure(alg({2: 1}, {3: 1})),
        closure(alg({1: 1})),
    ]
    for step, exp in zip(filt.steps, expected_chain):
        assert step.new_algebra == exp
    ls = [
        {i: c for i, c in enumerate(st.cutting_element.coeffs) if c}
        for st in filt.steps
    ]
    assert ls[1] == {3: 1, 4: F(-1, 4)}
    assert ls[2] == {2: 1}
    assert ls[3] == {1: 1}


def test_standard_filtration_whole_ring_empty():
    assert standard_filtration(closure(GAMMA)).steps == ()


def test_standard_filtration_monomial_gap_order():
    A = alg({4: 1}, {6: 1}, {9: 1})
    filt = standard_filtration(closure(A))
    assert [st.gap_exponent for st in filt.steps] == [11, 7, 5, 3, 2, 1]


def check_filtration_steps_match_closure_at_the_default_ceiling(A):
    # each step is closed in its own window, c_i + e0_i - 1; the reference
    # closes A's own generators and the adjoined monomials at the default ceiling
    Sx = closure(A)
    gaps = sorted(Sx.gaps, reverse=True)
    filt = standard_filtration(Sx)
    assert [step.gap_exponent for step in filt.steps] == gaps
    for i, step in enumerate(filt.steps):
        adjoined = tuple([Series.monomial(j) for j in gaps[: i + 1]])
        assert step.new_algebra == closure(AlgebraInput(A.gens + adjoined))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_filtration_steps_match_closure_at_the_default_ceiling(seed):
    A = AlgebraInput.make([S(d) for d in random_branch(random.Random(seed), max_delta=6)])
    check_filtration_steps_match_closure_at_the_default_ceiling(A)


@pytest.mark.parametrize("name", RUNGS)
def test_ladder_filtration_steps_match_closure_at_the_default_ceiling(name):
    check_filtration_steps_match_closure_at_the_default_ceiling(rung_input(name))


@pytest.mark.parametrize("name", RUNGS)
def test_filtration_closes_each_step_in_its_own_window(name, monkeypatch):
    ceilings = []

    def recording(A, ceiling):
        ceilings.append(ceiling)
        return closure(A, ceiling)

    # the package's ``inverse_system`` attribute is the function, not the module
    monkeypatch.setattr(importlib.import_module("branchdual.inverse_system"), "closure", recording)
    A = rung_input(name)
    Sx = closure(A)
    gaps = sorted(Sx.gaps, reverse=True)
    filt = standard_filtration(Sx)
    assert len(ceilings) == len(filt.steps) == Sx.delta
    for i, (ceiling, step) in enumerate(zip(ceilings, filt.steps)):
        B, g = step.new_algebra, step.gap_exponent
        c_i = gaps[i + 1] + 1 if i + 1 < len(gaps) else 0
        assert (B.conductor, B.e0) == (c_i, min(Sx.e0, g))
        assert ceiling == max(c_i + B.e0 - 1, 1) < Sx.work_trunc


def test_cutting_derivation_examples():
    cusp = closure(alg({2: 1}, {3: 1}))
    gamma = closure(GAMMA)
    b2 = closure(alg({3: 1}, {4: 1}, {5: 1}))
    b1 = closure(alg({3: 1, 4: 1}, {5: 1}, {7: 1}))
    cd1 = cutting_derivation(cusp, gamma)
    assert cd1.l.coeffs == (F(0), F(1))
    cd2 = cutting_derivation(b2, cusp)
    assert cd2.l.coeffs == (F(0), F(0), F(1))
    cd3 = cutting_derivation(b1, b2)
    assert {i: c for i, c in enumerate(cd3.l.coeffs) if c} == {3: 1, 4: F(-1, 4)}


def test_cutting_derivation_kernel_both_ways():
    b2 = closure(alg({3: 1}, {4: 1}, {5: 1}))
    b1 = closure(alg({3: 1, 4: 1}, {5: 1}, {7: 1}))
    cd = cutting_derivation(b1, b2)
    bound = max(b1.conductor, b2.conductor)
    # vanishes on a spanning set of the smaller maximal ideal ...
    for f in maximal_ideal_rows(b1, bound):
        assert perp_list(cd.operator.coeffs, f) == 0
    # ... and is nonzero somewhere on the bigger one
    assert any(
        perp_list(cd.operator.coeffs, f) != 0 for f in maximal_ideal_rows(b2, bound)
    )


def test_cutting_derivation_rejects_wrong_codimension():
    with pytest.raises(ValueError):
        cutting_derivation(closure(alg({3: 1}, {4: 1}, {5: 1})), closure(GAMMA))


def test_cutting_derivation_rejects_non_inclusion():
    a = closure(alg({2: 1}, {5: 1}))
    b = closure(alg({3: 1}, {4: 1}, {5: 1}))
    with pytest.raises(ValueError):
        cutting_derivation(a, b)
    # k + t^5 k[[t]] has only the constant below its conductor, so every
    # basis element lies in k[[t^2, t^7]]; t^5 does not
    a = closure(alg(*[{j: 1} for j in range(5, 10)]))
    b = closure(alg({2: 1}, {7: 1}))
    assert (a.delta, a.conductor, b.delta, b.conductor) == (4, 5, 3, 6)
    with pytest.raises(ValueError):
        cutting_derivation(a, b)


def _codimension_one_annihilator(B, rng):
    """Ann(g) inside B for a random algebra-forming g nonzero on B, or None."""
    for _ in range(20):
        if rng.random() < 0.5:  # zero on m^2: a derivation
            support = range(1, 2 * B.e0)
        else:
            support = rng.sample(range(1, B.conductor + B.e0), 2)
        g = op({i: F(rng.randint(-3, 3), rng.randint(1, 3)) for i in support})
        if g.is_zero() or not is_algebra_forming([g], B).verdict:
            continue
        C = annihilator([g], B)
        if C.delta == B.delta + 1:
            return C
    return None


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_cutting_derivation_matches_two_pass_reference_on_annihilators(seed):
    rng = random.Random(seed)
    B = closure(AlgebraInput.make([S(d) for d in random_branch(rng, max_delta=5)]))
    C = _codimension_one_annihilator(B, rng)
    if C is None:
        return
    cd = cutting_derivation(C, B)
    assert list(cd.l.coeffs) == two_pass_cutting_element(C, B)
    # its kernel inside B is C
    assert all(perp(cd.operator, b) == 0 for b in C.basis)
    assert any(perp_list(cd.operator.coeffs, f) != 0 for f in maximal_ideal_rows(B, C.conductor))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_cutting_elements_match_two_pass_reference_along_filtrations(seed):
    A = AlgebraInput.make([S(d) for d in random_branch(random.Random(seed), max_delta=6)])
    prev = closure(A)
    at_gap = dict(zip(prev.gaps, inverse_system(prev).basis))  # each one is S's own
    for step in standard_filtration(prev).steps:
        assert list(step.cutting_element.coeffs) == two_pass_cutting_element(
            prev, step.new_algebra)
        assert step.cutting_element.coeffs == at_gap[step.gap_exponent].coeffs
        prev = step.new_algebra
    assert prev.delta == 0  # the last step reaches k[[t]]


@pytest.mark.parametrize("name", RUNGS)
def test_ladder_cutting_elements_are_the_inverse_system_of_S(name):
    # phi_g of each step's previous algebra is phi_g of S: S's inverse system
    # holds every cutting element, and cutting_derivation on the previous
    # step's own staircase gives the same one
    prev = closure(rung_input(name))
    at_gap = dict(zip(prev.gaps, inverse_system(prev).basis))
    for step in standard_filtration(prev).steps:
        assert step.cutting_element.coeffs == at_gap[step.gap_exponent].coeffs
        assert step.cutting_element.coeffs == cutting_derivation(prev, step.new_algebra).l.coeffs
        prev = step.new_algebra


def test_inverse_systems_shrink_along_filtration():
    filt = standard_filtration(closure(TOY))
    prev_S = closure(TOY)
    prev_V = inverse_system(prev_S)
    for step in filt.steps:
        cur_S = step.new_algebra
        cur_V = inverse_system(cur_S)
        # smaller algebra has the bigger inverse system; check span inclusion
        width = prev_S.conductor
        prev_rows = op_rows(prev_V.basis, width)
        for g in cur_V.basis:
            rows = prev_rows + op_rows([g], width)
            assert span_rank(rows, width) == span_rank(prev_rows, width)
        prev_S, prev_V = cur_S, cur_V


@pytest.mark.parametrize("name", ["d4", "d11", "d30"])
def test_cutting_elements_separate_each_filtration_step(name):
    gens = ladder_gens(name)
    A = AlgebraInput.make([Series.make(g) for g in gens])
    filt = standard_filtration(closure(A))
    prev = list(gens)
    for step in filt.steps:
        l = list(step.cutting_element.coeffs)
        monomial = [0] * step.gap_exponent + [1]
        # zero on the previous algebra's maximal ideal, up to l's degree ...
        for r in algebra_span(prev, len(l) - 1)[1:]:
            assert perp_list(l, r) == 0
        # ... and not on the adjoined gap monomial
        assert perp_list(l, monomial) != 0
        prev.append(monomial)


# ---------------------------------------------------------------------------
# derivations


def test_is_derivation_high_power_fails():
    A = alg({4: 1}, {7: 1}, {17: 1})
    Sx = closure(A)
    assert not is_derivation(op({11: 1}), Sx)


def test_is_derivation_on_whole_ring():
    assert is_derivation(op({1: 1}), closure(GAMMA))


def test_is_derivation_toy_element():
    A = alg({3: 1}, {4: 1}, {5: 1})
    Sx = closure(A)
    assert is_derivation(op({3: 1, 4: F(-1, 4)}), Sx)
    assert is_derivation(DiffOp.make([]), Sx)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_is_derivation_matches_the_pair_loop_on_random_branches(seed):
    rng = random.Random(seed)
    B = closure(AlgebraInput.make([S(d) for d in random_branch(rng, max_delta=6)]))
    w = max(B.conductor, 1) + B.e0  # the window of ``is_derivation``
    ops = []
    for deg in (rng.randint(0, w - 1), w - 1, rng.randint(w, w + 6)):
        ops.append(op({deg: 1, **{e: F(rng.randint(-3, 3), rng.randint(1, 3))
                                  for e in range(deg) if rng.random() < 0.4}}))
    if B.delta:  # an inverse-system element kills B, so m^2: a derivation
        ops.append(rng.choice(inverse_system(B).basis) + DiffOp.monomial(0, rng.randint(-2, 2)))
    for g in ops:
        assert is_derivation(g, B) == derivation_naive(list(g.coeffs), B)


# The derivations jobs of the benchmark ladder, with their operators.
DERIVATION_JOBS = [
    ("t^3+t^4, t^5", "u;u^2;u^5;u^9"),
    ("t^4+t^5, t^6", "u;u^2;u^5;u^9"),
    ("t^4, t^6+t^7", "u;u^2;u^5;u^9"),
    ("t^6, t^8+t^11, t^10+t^13", "u;u^2;u^5;u^9"),
    ("t^5+t^6, t^7", "u;u^2;u^5;u^9"),
    ("t^5+t^6, t^7", "u;u^2;u^11"),
]


@pytest.mark.parametrize("gens, v", DERIVATION_JOBS)
def test_ladder_derivations_match_the_pair_loop(gens, v):
    B = closure(AlgebraInput.make([parse_series(g) for g in gens.split(",")]))
    for g in parse_operators(v):
        assert is_derivation(g, B) == derivation_naive(list(g.coeffs), B)


def test_is_derivation_tests_products_at_the_top_of_the_window():
    # k[[t^4, t^5]]: c + e0 - 1 = 15 = 5 + 10, and t^5 * t^10 lies in m^2
    B = closure(alg({4: 1}, {5: 1}))
    assert max(B.conductor, 1) + B.e0 - 1 == 15
    assert not is_derivation(op({15: 1}), B)
    assert is_derivation(op({11: 1}), B)  # 11 is a gap


def test_derivations_of_a_high_degree_operator_stop_at_the_window():
    # u^9000 reads t^9000, which lies in m^2 as 9000 >= c + e0 = 11
    report, code = cli.run(cli.JobSpec("derivations", ["t^3+t^4", "t^5"], {"v": "u^9000"}))
    assert code == 0
    assert report["result"]["results"] == [{"operator": "u^9000", "is_derivation": False}]


# ---------------------------------------------------------------------------
# transport


def test_transport_identity():
    A = alg({2: 1}, {7: 1})
    Sx = closure(A)
    V2 = inverse_system(Sx)
    M, V1 = transport_dual(Series.make([0, 1], trunc=16), Sx.conductor, V2)
    assert V1.basis == V2.basis
    assert all(
        M.at(i, j) == (1 if i == j else 0)
        for i in range(M.rows)
        for j in range(M.cols)
    )


@pytest.mark.parametrize("trunc, required", [(2, 3), (1, 2)])
def test_transport_of_an_inexact_reparametrization_asks_for_precision(trunc, required):
    # h = t + t^2 mod t^(trunc+1): the columns of M read h^j mod t^c, c = 8,
    # so h's unknown coefficients past trunc may not be taken as zero
    Sx = closure(AlgebraInput.make([parse_series("t^3+t^4"), parse_series("t^5")]))
    assert Sx.conductor == 8
    with pytest.raises(PrecisionExhausted) as err:
        transport_dual(Series.make([0, 1, 1], trunc=trunc), Sx.conductor, inverse_system(Sx))
    assert err.value.required == required


def test_transport_matrix_columns_are_powers():
    h = S({1: 1, 2: 1, 3: F(1, 2)})
    c = 6
    A = alg({2: 1}, {7: 1})
    M, _ = transport_dual(h, c, inverse_system(closure(A)))
    p = Series.make([1], c - 1)
    for j in range(c):
        for i in range(c):
            assert M.at(i, j) == p.coeff(i)
        p = mul(p, truncate(h, c - 1))


def test_transport_six_by_six_entries():
    # h = t + h2 t^2 with h2 = 1: second-power column picks up 2*h2,
    # third power 3*h2 and 3*h2^2, fourth 4*h2 -- direct coefficient
    # extraction of h^j.
    h = S({1: 1, 2: 1})
    A = alg({2: 1}, {7: 1})
    Sx = closure(A)
    M, _ = transport_dual(h, 6, inverse_system(Sx))
    assert M.at(2, 2) == 1 and M.at(3, 2) == 2  # (t+t^2)^2 = t^2 + 2t^3 + ...
    assert M.at(4, 3) == 3 and M.at(5, 3) == 3  # coefficient rows of h^3
    assert M.at(5, 4) == 4  # h^4 = t^4 + 4 t^5 + ...
    assert all(M.at(i, j) == 0 for j in range(6) for i in range(j))


def test_transport_annihilates_reparametrized_generators():
    A = alg({2: 1}, {7: 1})
    Sx = closure(A)
    V2 = inverse_system(Sx)
    h = S({1: 1, 2: 1})
    _, V1 = transport_dual(h, Sx.conductor, V2)
    hc = truncate(h, Sx.conductor - 1)
    h2 = mul(hc, hc)
    h7 = Series.make([1], Sx.conductor - 1)
    for _ in range(7):
        h7 = mul(h7, hc)
    for g in V1.basis:
        assert perp(g, h2) == 0
        assert perp(g, h7) == 0


@pytest.mark.parametrize("name", ["d4", "d11", "d27"])
@pytest.mark.parametrize("h", ["t+t^2", "2 t-1/3 t^2+5/7 t^5", "-1/2 t+t^3-3/4 t^4"])
def test_transport_back_substitution_matches_an_rref_solve(name, h):
    A = AlgebraInput.make([parse_series(g) for g in LADDER[name].split(",")])
    Sx = closure(A)
    c = Sx.conductor
    V2 = inverse_system(Sx)
    M, V1 = transport_dual(parse_series(h), c, V2)
    hc, p, powers = truncate(parse_series(h), c - 1), Series.make([1], c - 1), []
    for _ in range(c):
        powers.append([p.coeff(i) for i in range(c)])
        p = mul(p, hc)
    assert M.to_rows() == [[powers[j][i] for j in range(c)] for i in range(c)]
    # reference: the reduced echelon form of [M^T | D] is [I | X]
    rhs = [[g.coeff(i) * math.factorial(i) for g in V2.basis] for i in range(c)]
    R, pivots = rref(QMatrix.from_rows([powers[i] + rhs[i] for i in range(c)]))
    assert pivots == list(range(c))
    ops = [DiffOp.make([R.at(i, c + j) / math.factorial(i) for i in range(c)])
           for j in range(V2.dim)]
    assert V1.basis == tuple(_reduce_ops(ops, c))
    assert V1.dim == V2.dim


def random_ops(rng, top):
    """Random rational operators of degree < top: a dependent one, a zero one and constant terms included."""
    ops = []
    for _ in range(rng.randint(0, 6)):
        ops.append(DiffOp.make([F(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.6 else 0
                                for _ in range(rng.randint(0, top))]))
    if len(ops) >= 2:
        ops.append(ops[0].scale(F(rng.randint(-3, 3), rng.randint(1, 3))) + ops[-1])
    ops.append(DiffOp.make([]))
    rng.shuffle(ops)
    return ops


def random_reparametrization(rng, top):
    """A uniformizer with h_1 among 1, -1, 5, 2, -1/2, 3/2 and a rational tail, or now and then not one."""
    if rng.random() < 0.1:
        return rng.choice([S({0: 1, 1: 1}), S({2: 1, 3: 1}), S({})])
    h1 = rng.choice([F(1), F(-1), F(5), F(2), F(-1, 2), F(3, 2)])
    tail = [F(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.5 else 0 for _ in range(rng.randint(0, top))]
    return Series.make([0, h1] + tail)


def check_transport_against_oracle(h, c, V2):
    try:
        M, V1 = transport_solve_naive(h, c, V2)
    except ValueError as e:
        with pytest.raises(ValueError, match=str(e)):
            transport_dual(h, c, V2)
        return
    got_M, got_V1 = transport_dual(h, c, V2)
    assert got_M.to_rows() == M
    assert [op_dict(g) for g in got_V1.basis] == V1
    assert got_V1.dim == len(V1) and got_V1.conductor_bound == c


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_transport_matches_the_dual_solve_on_random_branches(seed):
    rng = random.Random(seed)
    Sx = closure(AlgebraInput.make([S(d) for d in random_branch(rng, max_delta=9)]))
    V2 = inverse_system(Sx)
    for _ in range(2):
        check_transport_against_oracle(random_reparametrization(rng, Sx.conductor), Sx.conductor, V2)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_transport_matches_the_dual_solve_on_arbitrary_operator_lists(seed):
    # dependent lists, constant terms, degrees >= c and c = 0
    rng = random.Random(seed)
    c = rng.randint(0, 14)
    ops = random_ops(rng, c + 4)
    V2 = InverseSystem(tuple(ops), len(ops), c)
    check_transport_against_oracle(random_reparametrization(rng, c + 1), c, V2)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_reduce_ops_matches_the_canonical_basis(seed):
    rng = random.Random(seed)
    width = rng.randint(1, 12)
    ops = random_ops(rng, width)
    got = _reduce_ops(ops, width)
    assert [op_dict(g) for g in got] == canonical_operator_basis([list(g.coeffs) for g in ops], width)
    assert all(type(x) is Fraction for g in got for x in g.coeffs)


def test_reduce_ops_reads_no_degree_at_or_above_width():
    ops = [op({1: 1, 5: 2}), op({2: 3, 7: 1}), op({6: 1}), op({0: 2, 3: -1})]
    got = [op_dict(g) for g in _reduce_ops(ops, 5)]
    assert got == canonical_operator_basis([[g.coeff(i) for i in range(5)] for g in ops], 5)
    assert got == [{1: 1}, {2: 1}, {0: 1, 3: F(-1, 2)}]


def test_transport_rejects_non_uniformizer():
    V = inverse_system(closure(TOY))
    with pytest.raises(ValueError):
        transport_dual(S({2: 1}), 8, V)


# ---------------------------------------------------------------------------
# duality round trip


def test_verify_duality_examples():
    assert verify_duality(TOY, closure(TOY))
    assert verify_duality(GAMMA, closure(GAMMA))
    A = alg({2: 1, 3: 1}, {5: 1})
    assert verify_duality(A, closure(A))


@pytest.mark.parametrize(
    "A", [TOY, alg({4: 1}, {7: 1}, {9: 1}), alg({6: 1}, {8: 1, 11: 1}, {10: 1, 13: 1})]
)
def test_verify_duality_rejects_a_perturbed_inverse_system(A, monkeypatch):
    exact = inverse_system

    def perturbed(S):
        V = exact(S)
        g = V.basis[-1]
        bumped = g + DiffOp.monomial(g.degree)
        return InverseSystem(V.basis[:-1] + (bumped,), V.dim, V.conductor_bound)

    assert verify_duality(A, closure(A))
    # the package's ``inverse_system`` attribute is the function, not the module
    module = importlib.import_module("branchdual.inverse_system")
    monkeypatch.setattr(module, "inverse_system", perturbed)
    assert not verify_duality(A, closure(A))


# Ways to break a property of the inverse system that ``verify_duality``'s
# certificate proves: its size, its degrees, its constant terms, its normal form.
CERTIFICATE_BREAKS = {
    "one element dropped": lambda basis, c: basis[:-1],
    "a term at degree c": lambda basis, c: basis[:-1] + (basis[-1] + DiffOp.monomial(c),),
    "a constant term": lambda basis, c: (basis[0] + DiffOp.monomial(0),) + basis[1:],
    "not monic": lambda basis, c: (basis[0].scale(2),) + basis[1:],
}


@pytest.mark.parametrize("A", [TOY, alg({6: 1}, {8: 1, 11: 1}, {10: 1, 13: 1})])
@pytest.mark.parametrize("brk", sorted(CERTIFICATE_BREAKS))
def test_verify_duality_rejects_each_broken_certificate_clause(A, brk, monkeypatch):
    exact = inverse_system

    def broken(S):
        V = exact(S)
        return InverseSystem(CERTIFICATE_BREAKS[brk](V.basis, S.conductor), V.dim, V.conductor_bound)

    assert verify_duality(A, closure(A))
    # the package's ``inverse_system`` attribute is the function, not the module
    monkeypatch.setattr(importlib.import_module("branchdual.inverse_system"), "inverse_system", broken)
    assert not verify_duality(A, closure(A))


@pytest.mark.parametrize("A", [TOY, alg({6: 1}, {8: 1, 11: 1}, {10: 1, 13: 1})])
def test_verify_duality_rejects_a_natural_set_one_short(A, monkeypatch):
    # verify_duality reads the natural set as int rows, in natural_set's order
    module = importlib.import_module("branchdual.inverse_system")
    exact = module._natural_rows
    monkeypatch.setattr(module, "_natural_rows", lambda A, d: exact(A, d)[:-1])
    assert not verify_duality(A, closure(A))


def test_verify_duality_rejects_the_staircase_of_another_algebra(monkeypatch):
    # k[[t^3, t^5]] has TOY's semigroup, so every count of the certificate holds
    other = closure(alg({3: 1}, {5: 1}))
    assert other.gaps == closure(TOY).gaps
    # its inverse system does not kill TOY's natural set ...
    assert not verify_duality(TOY, other)
    # ... and TOY's does not kill its staircase rows
    mine = inverse_system(closure(TOY))
    module = importlib.import_module("branchdual.inverse_system")
    monkeypatch.setattr(module, "inverse_system", lambda S: mine)
    assert not verify_duality(TOY, other)


def test_verify_duality_closes_nothing(monkeypatch):
    # it works on the staircase it is given
    def refuse(*args, **kwargs):
        raise AssertionError("verify_duality called closure")

    A = alg({6: 1}, {8: 1, 11: 1}, {10: 1, 13: 1})
    Sx = closure(A)
    # the package's ``inverse_system`` attribute is the function, not the module
    monkeypatch.setattr(importlib.import_module("branchdual.inverse_system"), "closure", refuse)
    assert verify_duality(A, Sx)


def test_verify_duality_monomial_small_genus():
    for gaps in enumerate_semigroups(4):
        gens = gaps_to_generators(set(gaps)) if gaps else (1,)
        A = alg(*[{a: 1} for a in gens])
        assert verify_duality(A, closure(A))


# ---------------------------------------------------------------------------
# canonical representatives


def test_rosenlicht_monomials():
    assert rosenlicht(op({1: 1}), 11) == {-2: 1}
    assert rosenlicht(op({10: 1}), 11) == {-11: math.factorial(10)}


def test_rosenlicht_zero():
    assert rosenlicht(DiffOp.make([]), 5) == {}


def test_rosenlicht_mixed():
    assert rosenlicht(op({3: 1, 4: F(-1, 4)}), 8) == {-4: 6, -5: -6}


def test_rosenlicht_degree_bound():
    with pytest.raises(ValueError):
        rosenlicht(op({9: 1}), 8)


def test_residue_monomial_pairs():
    for i in range(6):
        r = rosenlicht(op({i: 1}) if i else DiffOp.make([1]), 8)
        for j in range(6):
            f = Series.make([0] * j + [1], trunc=8)
            expected = math.factorial(i) if i == j else 0
            assert residue(f, r) == expected


def test_residue_equals_perp_on_example():
    g = op({3: 1, 4: F(-1, 4)})
    f = Series.make([0, 0, 0, 1, 1], trunc=7)
    assert residue(f, rosenlicht(g, 8)) == perp(g, f) == 0


coeff = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@given(
    st.lists(coeff, min_size=0, max_size=7),
    st.lists(coeff, min_size=0, max_size=8),
)
@settings(max_examples=80, deadline=None)
def test_residue_pairing_identity_property(g_coeffs, f_coeffs):
    g = DiffOp.make(g_coeffs)
    c = max(g.degree + 1, 1)
    f = Series.make(f_coeffs, trunc=max(len(f_coeffs), c) + 1)
    assert residue(f, rosenlicht(g, c)) == perp(g, f)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_series_and_operators_built_without_make_are_well_formed(seed):
    # monomials, cutting elements and inverse-system bases skip ``make``:
    # each holds only Fractions, with no trailing zero, as ``make`` would give
    rng = random.Random(seed)
    exp, coeff = rng.randint(0, 9), rng.choice([1, -2, F(1, 3), 0])
    m = Series.monomial(exp, coeff)
    assert well_formed(m) and m == Series.make([0] * exp + [coeff])
    sc = closure(AlgebraInput.make([S(d) for d in random_branch(rng, max_delta=7)]))
    for g in inverse_system(sc).basis:
        assert well_formed(g) and g == DiffOp.make(g.coeffs)
    prev = sc
    for step in standard_filtration(sc).steps:
        l = step.cutting_element
        assert well_formed(l) and l.exact and l == Series.make(l.coeffs)
        cut = cutting_derivation(prev, step.new_algebra)
        assert well_formed(cut.l) and well_formed(cut.operator) and cut.l == l
        prev = step.new_algebra
