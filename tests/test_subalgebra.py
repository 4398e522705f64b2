"""Staircase closure, invariants, Hilbert data, blow-up chains."""

import random
from fractions import Fraction

import pytest

from branchdual.errors import InfiniteCodimension, PrecisionExhausted
from branchdual.expressions import parse_series
from branchdual.series import Series, mul, order
from branchdual.subalgebra import (
    AlgebraInput,
    blowup,
    blowup_chain,
    closure,
    hilbert,
    membership,
)

from oracles import coeff_dict_to_list, random_branch, semigroup_data, span_orders

F = Fraction


def S(d):
    n = max(d) + 1 if d else 0
    return Series.make([d.get(i, 0) for i in range(n)])


def alg(*dicts):
    return AlgebraInput.make([S(d) for d in dicts])


TOY = alg({3: 1, 4: 1}, {5: 1})
GAMMA = alg({1: 1})
CUSP = alg({2: 1}, {3: 1})


def test_toy_staircase():
    st = closure(TOY)
    assert st.delta == 4
    assert st.conductor == 8
    assert st.gaps == (1, 2, 4, 7)
    assert st.values == (0, 3, 5, 6)
    assert st.e0 == 3
    basis = {order(b): {i: c for i, c in enumerate(b.coeffs) if c} for b in st.basis}
    assert basis[0] == {0: 1}
    assert basis[3] == {3: 1, 4: 1}
    assert basis[5] == {5: 1}
    assert basis[6] == {6: 1, 7: 2}


def test_whole_ring():
    st = closure(GAMMA)
    assert st.delta == 0 and st.conductor == 0 and st.is_whole_ring()


def test_cusp():
    st = closure(CUSP)
    assert st.delta == 1 and st.conductor == 2 and st.gaps == (1,)


def test_monomial_values_match_sieve():
    for gens in [(4, 6, 9), (4, 7, 9), (3, 7, 8), (5, 6, 7, 8, 9)]:
        st = closure(alg(*[{a: 1} for a in gens]))
        gaps, conductor, genus = semigroup_data(list(gens))
        assert st.gaps == gaps
        assert st.conductor == conductor
        assert st.delta == genus


def test_infinite_codimension():
    with pytest.raises(InfiniteCodimension) as ex:
        closure(alg({2: 1, 3: 0}))
    assert ex.value.gcd == 2
    with pytest.raises(InfiniteCodimension):
        closure(alg({2: 1}, {4: 1, 6: 1}))


def test_unit_generator_rejected():
    with pytest.raises(ValueError):
        closure(alg({0: 1, 1: 1}))


def test_tail_generators_change_values():
    # even-order generators with odd tails reach odd values
    st = closure(alg({2: 1, 3: 1}, {5: 1}))
    assert st.gaps == (1, 3)
    assert st.conductor == 4
    assert st.delta == 2


def test_membership():
    st = closure(TOY)
    assert membership(S({3: 1, 4: 1}), st)
    assert membership(S({6: 1, 7: 2}), st)
    assert membership(S({8: 1}), st)  # above the conductor
    assert membership(mul(S({3: 1, 4: 1}), S({5: 1})), st)
    assert not membership(S({3: 1}), st)
    assert not membership(S({4: 1}), st)


def test_membership_needs_precision():
    st = closure(TOY)
    with pytest.raises(PrecisionExhausted):
        membership(Series.make([0, 0, 0, 1], trunc=3), st)


def test_hilbert_tail_cusp():
    A = alg({2: 1}, {5: 1})
    h = hilbert(A, closure(A))
    assert h.hf1 == (1, 3, 5)
    assert h.hf == (1, 2, 2)
    assert h.e1 == 1


def test_hilbert_toy():
    h = hilbert(TOY, closure(TOY))
    assert h.e1 == 3
    assert h.hf[0] == 1 and h.hf[1] == 2


def test_blowup_of_cusp_is_whole_ring():
    st = closure(CUSP)
    st2 = closure(blowup(CUSP, st))
    assert st2.is_whole_ring()


def test_blowup_chain_cusp():
    assert blowup_chain(CUSP).steps == ((2, 1), (1, 0))


def test_blowup_chain_whole_ring_empty():
    assert blowup_chain(GAMMA).steps == ()


def test_blowup_chain_e1_sums_to_delta():
    for A in [TOY, CUSP, alg({4: 1}, {6: 1}, {9: 1})]:
        st = closure(A)
        ch = blowup_chain(A)
        assert sum(ch.e1_sequence()) == st.delta
        assert ch.multiplicities()[-1] == 1
        # multiplicities never increase along the chain
        ms = ch.multiplicities()
        assert all(a >= b for a, b in zip(ms, ms[1:]))


def test_three_generator_even_semigroup_with_tails():
    # The two independent routes (value-set closure and blow-up e1 sums)
    # agree on delta = 11 here; in particular 2t^21 + t^24 is a product
    # combination of the generators, so 21 is a value and c = 18.
    A = alg({6: 1}, {8: 1, 11: 1}, {10: 1, 13: 1})
    st = closure(A)
    assert st.values == (0, 6, 8, 10, 12, 14, 16)
    assert st.conductor == 18
    assert st.delta == 11
    f1, f2, f3 = A.gens
    combo = mul(f2, f3) - mul(mul(f1, f1), f1)
    assert order(combo) == 21
    assert membership(combo.extended(17) if combo.exact else combo, st)
    ch = blowup_chain(A)
    assert ch.multiplicities() == (6, 2, 2, 2, 1)
    assert ch.e1_sequence() == (8, 1, 1, 1, 0)
    assert hilbert(A, st).e1 == 8


def test_closure_values_match_naive_span_oracle():
    rng = random.Random(20240817)
    for _ in range(8):
        dicts = random_branch(rng, max_delta=5)
        st = closure(AlgebraInput.make([S(d) for d in dicts]))
        T = st.conductor + st.e0 + 2
        oracle = span_orders([coeff_dict_to_list(d) for d in dicts], T)
        got = set(st.values) | set(range(st.conductor, T + 1))
        assert got == oracle


def test_staircase_equality_semantics():
    a = closure(alg({2: 1}, {3: 1}))
    b = closure(alg({2: 1}, {3: 1}, {4: 1}))
    c = closure(alg({2: 1}, {5: 1}))
    assert a == b
    assert a != c


@pytest.mark.parametrize(
    "gens",
    [
        # dense rational coefficients, delta 27
        "t^7+3/5 t^8-7/11 t^9+2/9 t^10, t^10+13/17 t^11-1/19 t^13",
        # the delta 48 rung of the ladder, c = 96
        "t^9+t^10, t^13+t^17",
    ],
    ids=["dense-rational-d27", "d48"],
)
def test_ladder_closure_matches_naive_span_oracle(gens):
    series = [parse_series(g) for g in gens.split(",")]
    st = closure(AlgebraInput.make(series))
    T = st.conductor + st.e0 + 2
    orders = span_orders([list(g.coeffs) for g in series], T)
    gaps = tuple(sorted(set(range(1, T + 1)) - orders))
    assert st.values == tuple(sorted(v for v in orders if v < st.conductor))
    assert st.gaps == gaps
    assert st.delta == len(gaps)
    assert st.conductor == gaps[-1] + 1


@pytest.mark.parametrize(
    "gens, delta",
    [
        ("t^3+t^4, t^5", 4),
        ("t^4+t^5, t^6", 8),
        ("t^4, t^6+t^7", 8),
        ("t^6, t^8+t^11, t^10+t^13", 11),
        ("t^5+t^6, t^7", 12),
        ("t^4+1/2 t^5, t^6-2/3 t^7", 8),
    ],
    ids=["d4", "d8", "d8b", "d11", "d12", "rational-d8"],
)
def test_blowup_delta_matches_naive_span_oracle(gens, delta):
    A = AlgebraInput.make([parse_series(g) for g in gens.split(",")])
    st = closure(A)
    assert st.delta == delta
    B1 = blowup(A, st)
    # B ⊆ B′, so the gaps of B′ lie below B's conductor
    T = st.conductor
    orders = span_orders([list(g.coeffs[: T + 1]) for g in B1.gens], T)
    delta1 = len(set(range(1, T + 1)) - orders)
    assert closure(B1).delta == delta1
    # Northcott: e1 = ℓ(B′/B) = δ(B) − δ(B′)
    assert blowup_chain(A).e1_sequence()[0] == st.delta - delta1
