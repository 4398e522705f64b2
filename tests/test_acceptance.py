"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

All arithmetic is exact rational; every comparison below is exact
equality.  Timing bounds are asserted where the criterion carries one.
"""

import math
import random
import time
from fractions import Fraction

from branchdual.inverse_system import (
    inverse_system,
    is_algebra_forming,
    rosenlicht,
    residue,
    standard_filtration,
    transport_dual,
    verify_duality,
)
from branchdual.semigroup import (
    Characteristic,
    from_generators,
    gorenstein_check,
    is_symmetric,
    saturation_from_characteristic,
)
from branchdual.series import DiffOp, Series, mul, order, perp
from branchdual.subalgebra import AlgebraInput, blowup_chain, closure, hilbert

from oracles import (
    brute_force_algebra_forming,
    coeff_dict_to_list,
    enumerate_semigroups,
    gaps_to_generators,
    maximal_ideal_rows,
    perp_list,
    poly_mul,
    random_branch,
    span_orders,
    support,
)

F = Fraction


def series(d):
    n = max(d) + 1 if d else 0
    return Series.make([d.get(i, 0) for i in range(n)])


def op(d):
    n = max(d) + 1 if d else 0
    return DiffOp.make([d.get(i, 0) for i in range(n)])


def op_dict(g):
    return {i: c for i, c in enumerate(g.coeffs) if c != 0}


def alg(*dicts):
    return AlgebraInput.make([series(d) for d in dicts])


def test_criterion_01_toy_branch_invariants_and_inverse_system():
    t0 = time.monotonic()
    A = alg({3: 1, 4: 1}, {5: 1})
    S = closure(A)
    assert S.delta == 4
    assert S.conductor == 8
    V = inverse_system(S)
    assert [op_dict(g) for g in V.basis] == [
        {1: F(1)},
        {2: F(1)},
        {3: F(1), 4: F(-1, 4)},
        {6: F(1), 7: F(-1, 14)},
    ]
    assert time.monotonic() - t0 < 1.0


def test_criterion_02_three_generator_even_branch_blowup_chain():
    # f2*f3 - f1^3 = 2t^21 + t^24, f2^2 - f1*f3 = t^19 + t^22: c = 18, delta = 11.
    # B' = k[[t^6, t^2+t^5, t^4+t^7]] holds (t^2+t^5)^2 - (t^4+t^7) = t^7 + t^10,
    # so B' = <2,7> (delta' = 3, e1 = 11 - 3 = 8), then <2,5> -> <2,3> -> N.
    t0 = time.monotonic()
    gens = [{6: 1}, {8: 1, 11: 1}, {10: 1, 13: 1}]
    A = alg(*gens)
    S = closure(A)
    assert S.delta == 11
    assert S.conductor == 18
    assert S.values == (0, 6, 8, 10, 12, 14, 16)
    T = 2 * S.conductor
    assert span_orders([coeff_dict_to_list(d) for d in gens], T) == set(
        S.values
    ) | set(range(S.conductor, T + 1))
    ch = blowup_chain(closure(A))
    assert ch.multiplicities() == (6, 2, 2, 2, 1)
    assert ch.e1_sequence() == (8, 1, 1, 1, 0)
    assert sum(ch.e1_sequence()) == S.delta
    first_blowup = [{6: 1}, {2: 1, 5: 1}, {4: 1, 7: 1}]
    blowup_values = span_orders([coeff_dict_to_list(d) for d in first_blowup], T)
    blowup_delta = sum(1 for n in range(T + 1) if n not in blowup_values)
    assert S.delta - blowup_delta == ch.e1_sequence()[0]
    assert hilbert(S).e1 == 8
    assert time.monotonic() - t0 < 10.0


def test_criterion_03_monomial_branch_dual_basis_and_laurent_forms():
    A = alg({4: 1}, {7: 1}, {9: 1})
    S = closure(A)
    assert S.conductor == 11
    assert S.delta == 6
    V = inverse_system(S)
    assert [support(g.coeffs) for g in V.basis] == [(1,), (2,), (3,), (5,), (6,), (10,)]
    laurent_exponents = []
    for g in V.basis:
        (a,) = support(g.coeffs)
        rep = rosenlicht(g, S.conductor)
        # a scalar multiple of a single negative power of t
        assert set(rep) == {-a - 1}
        assert rep[-a - 1] == math.factorial(a) * g.coeff(a) != 0
        laurent_exponents.append(-a - 1)
    assert laurent_exponents == [-2, -3, -4, -6, -7, -11]


def test_criterion_04_gorenstein_triples():
    good = gorenstein_check(from_generators([4, 6, 9]))
    assert (good.symmetric, good.c_equals_2delta, good.palindromic_inverse) == (
        True,
        True,
        True,
    )
    D = from_generators([4, 6, 9])
    assert D.conductor == 2 * D.genus
    bad = gorenstein_check(from_generators([4, 7, 9]))
    assert (bad.symmetric, bad.c_equals_2delta, bad.palindromic_inverse) == (
        False,
        False,
        False,
    )


def test_criterion_05_saturation_minimal_generators():
    D = saturation_from_characteristic(Characteristic.make(6, [8, 11]))
    assert D.generators == (6, 8, 10, 11, 13, 15)


def test_criterion_06_duality_round_trip_exhaustive_and_random():
    t0 = time.monotonic()
    count = 0
    for gaps in enumerate_semigroups(6):
        gens = gaps_to_generators(set(gaps)) if gaps else (1,)
        A = AlgebraInput.make([Series.monomial(a) for a in gens])
        assert verify_duality(A, closure(A))
        count += 1
    assert count == 50  # every numerical semigroup of genus <= 6
    rng = random.Random(20260823)
    for _ in range(200):
        dicts = random_branch(rng, max_delta=6)
        A = AlgebraInput.make([series(d) for d in dicts])
        assert verify_duality(A, closure(A))
    assert time.monotonic() - t0 < 300.0


def test_criterion_07_symmetry_conductor_palindrome_equivalence():
    counterexamples = 0
    for gaps in enumerate_semigroups(8):
        gens = gaps_to_generators(set(gaps)) if gaps else (1,)
        D = from_generators(list(gens))
        chk = gorenstein_check(D)
        same = chk.symmetric == chk.c_equals_2delta == chk.palindromic_inverse
        if not same or chk.symmetric != (D.conductor == 2 * D.genus):
            counterexamples += 1
        assert is_symmetric(D) == chk.symmetric
    assert counterexamples == 0


def test_criterion_08_algebra_forming_matches_brute_force():
    rng = random.Random(20260824)
    false_verdicts = 0
    for _ in range(100):
        dicts = random_branch(rng, max_delta=6)
        gens = [coeff_dict_to_list(d) for d in dicts]
        S = closure(AlgebraInput.make([series(d) for d in dicts]))
        ops = []
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(1, 8)
            coeffs = {deg: F(1)}
            for e in range(1, deg):
                if rng.random() < 0.4:
                    coeffs[e] = F(rng.randint(-3, 3))
            ops.append(op(coeffs))
        cert = is_algebra_forming(ops, S)
        maxdeg = max(g.degree for g in ops)
        T = max(2 * maxdeg + 2, S.conductor + 1)
        expected = brute_force_algebra_forming(
            [list(g.coeffs) for g in ops], gens, T
        )
        assert cert.verdict == expected
        if not cert.verdict:
            false_verdicts += 1
            # independent witness check on raw coefficient lists
            fc = list(cert.witness.coeffs)
            assert all(perp_list(list(g.coeffs), fc) == 0 for g in ops)
            sq = poly_mul(fc, fc, 2 * len(fc))
            assert any(perp_list(list(g.coeffs), sq) != 0 for g in ops)
    assert false_verdicts > 0  # the sample exercises both verdicts


def test_criterion_09_standard_filtration_chain_and_cutting_kernels():
    A = alg({3: 1, 4: 1}, {5: 1})
    filt = standard_filtration(closure(A))
    expected_chain = [
        closure(alg({3: 1, 4: 1}, {5: 1}, {7: 1})),
        closure(alg({3: 1}, {4: 1}, {5: 1})),
        closure(alg({2: 1}, {3: 1})),
        closure(alg({1: 1})),
    ]
    assert [s.new_algebra for s in filt.steps] == expected_chain
    assert [s.gap_exponent for s in filt.steps] == [7, 4, 2, 1]
    cuts = [op_dict(DiffOp.make(s.cutting_element.coeffs)) for s in filt.steps]
    assert cuts == [
        {6: F(1), 7: F(-1, 14)},
        {3: F(1), 4: F(-1, 4)},
        {2: F(1)},
        {1: F(1)},
    ]
    chain = [closure(A)] + expected_chain
    for i, step in enumerate(filt.steps):
        small, big = chain[i], chain[i + 1]
        g = DiffOp.make(step.cutting_element.coeffs)
        # Ker contains the smaller algebra ...
        for b in small.basis[1:]:
            assert perp(g, b) == 0
        for j in range(small.conductor, g.degree + 1):
            assert perp(g, Series.monomial(j)) == 0
        # ... and nothing more: l is nonzero on the bigger algebra, so the
        # kernel has codimension one inside it, i.e. equals the smaller.
        assert any(
            perp_list(g.coeffs, f) != 0 for f in maximal_ideal_rows(big, g.degree)
        )


def test_criterion_10_transport_matrix_identity_and_residue_pairing():
    A = alg({2: 1}, {7: 1})
    S = closure(A)
    c = S.conductor
    assert c == 6
    V = inverse_system(S)
    # h with h_2 = 1 and all higher coefficients zero
    h = series({1: 1, 2: 1})
    M, _ = transport_dual(h, c, V)
    p = Series.make([1], c - 1)
    for j in range(c):
        assert [M.row(i)[j] for i in range(c)] == [p.coeff(i) for i in range(c)]
        p = mul(p, Series.make(h.coeffs[:c], c - 1))
    # h = t transports by the identity
    Mid, Vid = transport_dual(series({1: 1}), c, V)
    assert Mid.to_rows() == [[F(int(i == j)) for j in range(c)] for i in range(c)]
    assert [op_dict(g) for g in Vid.basis] == [op_dict(g) for g in V.basis]
    # residue of f against the Laurent representative recovers the pairing
    rng = random.Random(20260825)
    bound = 10
    for _ in range(500):
        g = DiffOp.make(
            [0] + [F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(bound)]
        )
        f = Series.make(
            [F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(bound + 3)]
        )
        assert residue(f, rosenlicht(g, bound + 1)) == perp(g, f)
