"""Inverse systems, algebra-forming certificates, filtrations, transport."""

import importlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchdual.errors import NotAlgebraForming
from branchdual.expressions import parse_series
from branchdual.inverse_system import (
    InverseSystem,
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
from branchdual.linalg import QMatrix, nullspace
from branchdual.series import DiffOp, Series, mul, order, perp, truncate
from branchdual.subalgebra import AlgebraInput, closure

from oracles import (
    algebra_span,
    brute_force_algebra_forming,
    canonical_operator_basis,
    coeff_dict_to_list,
    enumerate_semigroups,
    gaps_to_generators,
    gauss_nullspace,
    perp_list,
    quadric_algebra_forming,
    random_branch,
    span_rank,
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


# ---------------------------------------------------------------------------
# inverse systems


def test_toy_inverse_system_exact():
    V = inverse_system(TOY, closure(TOY))
    assert [op_dict(g) for g in V.basis] == [
        {1: 1},
        {2: 1},
        {3: 1, 4: F(-1, 4)},
        {6: 1, 7: F(-1, 14)},
    ]
    assert V.dim == 4 and V.conductor_bound == 8


def test_monomial_inverse_system_gaps():
    A = alg({4: 1}, {7: 1}, {9: 1})
    V = inverse_system(A, closure(A))
    assert [op_dict(g) for g in V.basis] == [
        {1: 1},
        {2: 1},
        {3: 1},
        {5: 1},
        {6: 1},
        {10: 1},
    ]


def test_whole_ring_inverse_system_empty():
    V = inverse_system(GAMMA, closure(GAMMA))
    assert V.basis == () and V.dim == 0


def test_two_five_tail_algebra_coefficient_forced_by_solver():
    # For k[[t^2+t^3, t^5]] the only degree-3 condition is
    # 2 a_2 + 6 a_3 = 0, forcing the second basis element u^2 - u^3/3
    # (a scalar multiple of the commonly quoted 6 u^2 - ... form either
    # way; the solver's exact nullspace is authoritative here).
    A = alg({2: 1, 3: 1}, {5: 1})
    V = inverse_system(A, closure(A))
    assert [op_dict(g) for g in V.basis] == [{1: 1}, {2: 1, 3: F(-1, 3)}]
    for g in V.basis:
        assert perp(g, S({2: 1, 3: 1})) == 0


def test_even_sextic_branch_relation_pattern_from_solver():
    # Coefficient relations like a_8 = -990 a_11 come out of the exact
    # solve (the sign is forced by 8! a_8 + 11! a_11 = 0); the published
    # opposite sign cannot satisfy the pairing.
    A = alg({6: 1}, {8: 1, 11: 1}, {10: 1, 13: 1})
    V = inverse_system(A, closure(A))
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
        V = inverse_system(A, Sx)
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
    V = inverse_system(A, Sx)
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
        V = inverse_system(A, Sx)
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
    # same verdict and witness as the Q-matrix form of the quadric test
    rng = random.Random(seed)
    A = AlgebraInput.make([S(d) for d in random_branch(rng, max_delta=5)])
    Sx = closure(A)
    ops = []
    for _ in range(rng.randint(1, 3)):
        deg = rng.randint(1, 8)
        ops.append(op({deg: 1, **{e: F(rng.randint(-3, 3)) for e in range(1, deg) if rng.random() < 0.4}}))
    cert = is_algebra_forming(ops, Sx, A)
    d = max(Sx.conductor - 1, 1 + max(g.degree for g in ops))
    hs = natural_set(A, d)
    null = nullspace(QMatrix.from_rows([[perp(g, h) for h in hs] for g in ops]))
    verdict, witness = quadric_algebra_forming(
        [list(g.coeffs) for g in ops], [list(h.coeffs) for h in hs], null, d
    )
    assert cert.verdict == verdict
    if not verdict:
        assert [cert.witness.coeff(i) for i in range(d + 1)] == witness


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
    V = inverse_system(TOY, Sx)
    assert annihilator(list(V.basis), Sx) == Sx


# ---------------------------------------------------------------------------
# filtration and cutting derivations


def test_standard_filtration_toy_chain():
    filt = standard_filtration(TOY, closure(TOY))
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
    assert standard_filtration(GAMMA, closure(GAMMA)).steps == ()


def test_standard_filtration_monomial_gap_order():
    A = alg({4: 1}, {6: 1}, {9: 1})
    filt = standard_filtration(A, closure(A))
    assert [st.gap_exponent for st in filt.steps] == [11, 7, 5, 3, 2, 1]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_filtration_steps_match_closure_at_the_default_ceiling(seed):
    # each step is closed within S.work_trunc; the reference closes the
    # same generators at the default ceiling
    A = AlgebraInput.make([S(d) for d in random_branch(random.Random(seed), max_delta=6)])
    Sx = closure(A)
    gaps = sorted(Sx.gaps, reverse=True)
    filt = standard_filtration(A, Sx)
    assert [step.gap_exponent for step in filt.steps] == gaps
    for i, step in enumerate(filt.steps):
        adjoined = tuple([Series.monomial(j) for j in gaps[: i + 1]])
        assert step.new_algebra == closure(AlgebraInput(Sx.algebra_generators() + adjoined))


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
    for f in b1.maximal_ideal_spanning(bound):
        assert perp(cd.operator, f) == 0
    # ... and is nonzero somewhere on the bigger one
    assert any(
        perp(cd.operator, f) != 0 for f in b2.maximal_ideal_spanning(bound)
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
    assert any(perp(cd.operator, f) != 0 for f in B.maximal_ideal_spanning(C.conductor))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_cutting_elements_match_two_pass_reference_along_filtrations(seed):
    A = AlgebraInput.make([S(d) for d in random_branch(random.Random(seed), max_delta=6)])
    prev = closure(A)
    for step in standard_filtration(A, prev).steps:
        assert list(step.cutting_element.coeffs) == two_pass_cutting_element(
            prev, step.new_algebra)
        prev = step.new_algebra


def test_inverse_systems_shrink_along_filtration():
    filt = standard_filtration(TOY, closure(TOY))
    prev_A = TOY
    prev_S = closure(TOY)
    prev_V = inverse_system(prev_A, prev_S)
    for step in filt.steps:
        cur_S = step.new_algebra
        cur_A = AlgebraInput(cur_S.algebra_generators())
        cur_V = inverse_system(cur_A, cur_S)
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
    filt = standard_filtration(A, closure(A))
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
    assert not is_derivation(op({11: 1}), A, Sx)


def test_is_derivation_on_whole_ring():
    assert is_derivation(op({1: 1}), GAMMA, closure(GAMMA))


def test_is_derivation_toy_element():
    A = alg({3: 1}, {4: 1}, {5: 1})
    Sx = closure(A)
    assert is_derivation(op({3: 1, 4: F(-1, 4)}), A, Sx)
    assert is_derivation(DiffOp.make([]), A, Sx)


# ---------------------------------------------------------------------------
# transport


def test_transport_identity():
    A = alg({2: 1}, {7: 1})
    Sx = closure(A)
    V2 = inverse_system(A, Sx)
    M, V1 = transport_dual(Series.make([0, 1], trunc=16), Sx.conductor, V2)
    assert V1.basis == V2.basis
    assert all(
        M.at(i, j) == (1 if i == j else 0)
        for i in range(M.rows)
        for j in range(M.cols)
    )


def test_transport_matrix_columns_are_powers():
    h = S({1: 1, 2: 1, 3: F(1, 2)})
    c = 6
    A = alg({2: 1}, {7: 1})
    M, _ = transport_dual(h, c, inverse_system(A, closure(A)))
    p = Series.one(c - 1)
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
    M, _ = transport_dual(h, 6, inverse_system(A, Sx))
    assert M.at(2, 2) == 1 and M.at(3, 2) == 2  # (t+t^2)^2 = t^2 + 2t^3 + ...
    assert M.at(4, 3) == 3 and M.at(5, 3) == 3  # coefficient rows of h^3
    assert M.at(5, 4) == 4  # h^4 = t^4 + 4 t^5 + ...
    assert all(M.at(i, j) == 0 for j in range(6) for i in range(j))


def test_transport_annihilates_reparametrized_generators():
    A = alg({2: 1}, {7: 1})
    Sx = closure(A)
    V2 = inverse_system(A, Sx)
    h = S({1: 1, 2: 1})
    _, V1 = transport_dual(h, Sx.conductor, V2)
    hc = truncate(h, Sx.conductor - 1)
    h2 = mul(hc, hc)
    h7 = Series.one(Sx.conductor - 1)
    for _ in range(7):
        h7 = mul(h7, hc)
    for g in V1.basis:
        assert perp(g, h2) == 0
        assert perp(g, h7) == 0


def test_transport_rejects_non_uniformizer():
    V = inverse_system(TOY, closure(TOY))
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

    def perturbed(A, S):
        V = exact(A, S)
        g = V.basis[-1]
        bumped = g + DiffOp.monomial(g.degree)
        return InverseSystem(V.basis[:-1] + (bumped,), V.dim, V.conductor_bound)

    assert verify_duality(A, closure(A))
    # the package's ``inverse_system`` attribute is the function, not the module
    module = importlib.import_module("branchdual.inverse_system")
    monkeypatch.setattr(module, "inverse_system", perturbed)
    assert not verify_duality(A, closure(A))


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
