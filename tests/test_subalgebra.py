"""Staircase closure, invariants, Hilbert data, blow-up chains."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchdual import subalgebra
from branchdual.cli import JobSpec, run
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

from oracles import (
    algebra_span,
    coeff_dict_to_list,
    hilbert_naive,
    perp_list,
    random_branch,
    semigroup_data,
    span_orders,
    span_rank,
    staircase_naive,
)

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


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=60, deadline=None)
def test_membership_matches_span_rank_oracle(seed, off_the_algebra):
    # f = sum lambda_v b_v + mu t^j, j a gap, plus a tail above the conductor
    rng = random.Random(seed)
    stc = closure(AlgebraInput.make([S(d) for d in random_branch(rng, max_delta=6)]))
    c = stc.conductor
    coeffs = [F(0)] * (c + 3)
    for b in stc.basis:
        lam = F(rng.randint(-3, 3), rng.randint(1, 3))
        for i, x in enumerate(b.coeffs):
            coeffs[i] += lam * x
    mu = F(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3)) if off_the_algebra else 0
    coeffs[rng.choice(stc.gaps)] += mu
    coeffs[c + rng.randint(0, 2)] += F(rng.randint(-3, 3))
    rows = [[b.coeff(i) for i in range(c)] for b in stc.basis]
    in_span = span_rank(rows + [coeffs[:c]], c) == span_rank(rows, c)
    assert in_span == (mu == 0)
    assert membership(Series.make(coeffs), stc) == in_span


def test_hilbert_tail_cusp():
    A = alg({2: 1}, {5: 1})
    h = hilbert(closure(A))
    assert h.hf1 == (1, 3, 5)
    assert h.hf == (1, 2, 2)
    assert h.e1 == 1


def test_hilbert_toy():
    h = hilbert(closure(TOY))
    assert h.e1 == 3
    assert h.hf[0] == 1 and h.hf[1] == 2


def test_blowup_of_cusp_is_whole_ring():
    st = closure(CUSP)
    st2 = closure(blowup(st))
    assert st2.is_whole_ring()


def test_blowup_chain_cusp():
    assert blowup_chain(closure(CUSP)).steps == ((2, 1), (1, 0))


def test_blowup_chain_whole_ring_empty():
    assert blowup_chain(closure(GAMMA)).steps == ()


def test_blowup_chain_e1_sums_to_delta():
    for A in [TOY, CUSP, alg({4: 1}, {6: 1}, {9: 1})]:
        st = closure(A)
        ch = blowup_chain(closure(A))
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
    ch = blowup_chain(closure(A))
    assert ch.multiplicities() == (6, 2, 2, 2, 1)
    assert ch.e1_sequence() == (8, 1, 1, 1, 0)
    assert hilbert(st).e1 == 8


def check_staircase_against_span(st, gen_coeff_lists):
    # the whole staircase, not only its values: a wrong row at a value
    # (a monomial put in where the algebra has none) shows in its tail
    gaps, rows = staircase_naive(gen_coeff_lists, st.conductor + st.e0 + 2)
    c = st.conductor
    assert st.gaps == gaps
    assert st.delta == len(gaps)
    assert c == gaps[-1] + 1
    assert [list(b.coeffs) + [0] * (c - len(b.coeffs)) for b in st.basis] == rows


def test_closure_values_match_naive_span_oracle():
    rng = random.Random(20240817)
    for _ in range(40):
        dicts = random_branch(rng, max_delta=9)
        st = closure(AlgebraInput.make([S(d) for d in dicts]))
        check_staircase_against_span(st, [coeff_dict_to_list(d) for d in dicts])


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
    check_staircase_against_span(closure(AlgebraInput.make(series)), [list(g.coeffs) for g in series])


@pytest.mark.parametrize("ceiling", [64, 128])
@pytest.mark.parametrize(
    "gens",
    [f"t^4, t^6+t^{m}" for m in (7, 13, 29, 41, 51, 53, 61)]
    + [f"t^6, t^9+t^{k}" for k in (10, 11, 20, 31, 44, 53, 61)],
)
def test_near_miss_gcd_family_closes_or_runs_out_of_precision(gens, ceiling):
    # every value below the tail's order is even (a multiple of 3), so the
    # reach of the pivots covers no run until the cancellations reveal a
    # coprime value; the gcd is 1, so codimension is finite
    series = [parse_series(g) for g in gens.split(",")]
    try:
        st = closure(AlgebraInput.make(series), ceiling)
    except PrecisionExhausted as ex:
        assert ex.required > ceiling
        return
    check_staircase_against_span(st, [list(g.coeffs) for g in series])


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
    B1 = blowup(st)
    # B ⊆ B′, so the gaps of B′ lie below B's conductor
    T = st.conductor
    orders = span_orders([list(g.coeffs[: T + 1]) for g in B1.gens], T)
    delta1 = len(set(range(1, T + 1)) - orders)
    assert closure(B1).delta == delta1
    # Northcott: e1 = ℓ(B′/B) = δ(B) − δ(B′)
    assert blowup_chain(closure(A)).e1_sequence()[0] == st.delta - delta1


# ---------------------------------------------------------------------------
# Hilbert function and blow-up chain against the naive oracles

# Rungs of the benchmark ladder, named by delta, and branches of embedding
# dimension 3 and more.
LADDER = {
    "d4": "t^3+t^4, t^5",
    "d11": "t^6, t^8+t^11, t^10+t^13",
    "d21": "t^6+t^7, t^9",
    "d27": "t^7+3/5 t^8-7/11 t^9+2/9 t^10, t^10+13/17 t^11-1/19 t^13",
    "d30": "t^7+t^9, t^11+1/3 t^12",
    "d48": "t^9+t^10, t^13+t^17",
    "embdim3": "t^4, t^6+t^7, t^9",
    "embdim4": "t^5, t^7, t^9, t^11",
    "plane-d8": "t^4, t^6+t^7+t^9",
}


def ladder_input(name):
    return AlgebraInput.make([parse_series(g) for g in LADDER[name].split(",")])


def check_hilbert_against_oracle(A):
    st_ = closure(A)
    h = hilbert(st_)
    n = len(h.hf1) - 1
    oracle = hilbert_naive([list(g.coeffs) for g in A.gens], n, max(st_.conductor, 1) + n * st_.e0)
    assert list(h.hf1) == oracle
    assert list(h.hf) == [oracle[0]] + [b - a for a, b in zip(oracle, oracle[1:])]
    assert h.e1 == st_.e0 * (n + 1) - oracle[n]
    # the sequences close with two values e0, and HF <= e0 throughout
    assert h.hf[-2:] == (st_.e0, st_.e0) and max(h.hf) == st_.e0


def oracle_delta(gens, T):
    """delta of the algebra the generators span, from the naive span mod t^(T+1).

    The window must end in a run of e0 values, which puts every gap in it.
    """
    orders = span_orders([list(g.coeffs[: T + 1]) for g in gens], T)
    e0 = min(o for o in orders if o > 0)
    assert all(v in orders for v in range(T - e0 + 1, T + 1)), "window below the conductor"
    return len(set(range(1, T + 1)) - orders)


def oracle_chain_e1(A):
    """Successive delta differences along the iterated blow-ups, by the span oracle."""
    st_ = closure(A)
    deltas = [oracle_delta(A.gens, st_.conductor + st_.e0)]
    while deltas[-1]:
        A = blowup(st_)
        st_ = closure(A)
        deltas.append(oracle_delta(A.gens, st_.conductor + st_.e0))
    return tuple([a - b for a, b in zip(deltas, deltas[1:])]) + ((0,) if len(deltas) > 1 else ())


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_hilbert_matches_naive_oracle_on_random_branches(seed):
    dicts = random_branch(random.Random(seed), max_delta=6)
    check_hilbert_against_oracle(AlgebraInput.make([S(d) for d in dicts]))


@pytest.mark.parametrize(
    "name", ["d4", "d11", "d21", "d27", "d30", "embdim3", "embdim4", "plane-d8"]
)
def test_ladder_hilbert_matches_naive_oracle(name):
    check_hilbert_against_oracle(ladder_input(name))


def test_hilbert_of_the_whole_ring():
    h = hilbert(closure(GAMMA))
    assert (h.hf, h.hf1, h.e1) == ((1, 1, 1), (1, 2, 3), 0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_chain_first_e1_equals_hilbert_e1_on_random_branches(seed):
    # two independent routes to e1: the Hilbert function, and Northcott's
    # delta(B) - delta(B') that the chain uses
    A = AlgebraInput.make([S(d) for d in random_branch(random.Random(seed), max_delta=8)])
    st_ = closure(A)
    assert blowup_chain(closure(A)).e1_sequence()[0] == hilbert(st_).e1


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_chain_e1_sequence_matches_oracle_deltas_on_random_branches(seed):
    A = AlgebraInput.make([S(d) for d in random_branch(random.Random(seed), max_delta=6)])
    assert blowup_chain(closure(A)).e1_sequence() == oracle_chain_e1(A)


@pytest.mark.parametrize("name", ["d4", "d11", "d21", "embdim3", "embdim4", "plane-d8"])
def test_ladder_chain_e1_sequence_matches_oracle_deltas(name):
    A = ladder_input(name)
    assert blowup_chain(closure(A)).e1_sequence() == oracle_chain_e1(A)


def test_blowup_chain_makes_no_hilbert_call(monkeypatch):
    def refuse(*args):
        raise AssertionError("blowup_chain called hilbert")

    monkeypatch.setattr(subalgebra, "hilbert", refuse)
    A = ladder_input("d11")
    assert blowup_chain(closure(A)).steps == ((6, 8), (2, 1), (2, 1), (2, 1), (1, 0))


@pytest.mark.parametrize("name", ["d30", "d48"])
def test_large_delta_analyze_and_blowup_chain_match_oracles(name):
    gens = [g.strip() for g in LADDER[name].split(",")]
    A = ladder_input(name)
    report, code = run(JobSpec("analyze", gens))
    assert code == 0
    res = report["result"]
    c, e0 = res["conductor"], res["e0"]
    T = c + e0
    orders = span_orders([list(g.coeffs) for g in A.gens], T)
    gaps = sorted(set(range(1, T + 1)) - orders)
    assert res["gaps"] == gaps and res["delta"] == len(gaps) and c == gaps[-1] + 1
    assert e0 == min(o for o in orders if o > 0)
    hf = res["hilbert_function"]
    assert hf[-2:] == [e0, e0] and res["e1"] == e0 * len(hf) - sum(hf)
    chain_report, code = run(JobSpec("blowup-chain", gens))
    assert code == 0
    chain = chain_report["result"]
    e1s = oracle_chain_e1(A)
    assert chain["e1_sequence"] == list(e1s)
    assert res["e1"] == e1s[0]
    assert chain["delta"] == res["delta"] == sum(e1s)
    assert chain["multiplicities"][0] == e0 and chain["multiplicities"][-1] == 1


@pytest.mark.parametrize("name", ["d30", "d48"])
def test_large_delta_filtration_matches_oracles(name):
    # a guard on the step windows, not a timing gate
    gens = [g.strip() for g in LADDER[name].split(",")]
    A = ladder_input(name)
    report, code = run(JobSpec("filtration", gens))
    assert code == 0
    steps = report["result"]["steps"]
    c = steps[0]["gap_exponent"] + 1
    T = c + min(order(g) for g in A.gens) - 1  # the run of e0 values from c
    span = algebra_span([list(g.coeffs) for g in A.gens], T)
    values = sorted(next(i for i, x in enumerate(r) if x) for r in span)
    gaps = sorted(set(range(1, T + 1)) - set(values))
    assert gaps[-1] + 1 == c
    assert [step["gap_exponent"] for step in steps] == gaps[::-1]
    rows = span[1:]
    for i, step in enumerate(steps):
        g = step["gap_exponent"]
        remaining = gaps[: len(gaps) - i - 1]
        c_i = remaining[-1] + 1 if remaining else 0
        values = sorted(values + [g])
        alg = step["algebra"]
        assert alg["gaps"] == remaining and alg["delta"] == len(remaining)
        assert alg["conductor"] == c_i and alg["e0"] == values[1]
        assert alg["values_below_conductor"] == [v for v in values if v < max(c_i, 1)]
        cut = list(parse_series(step["cutting_element"]).coeffs)
        monomial = [0] * g + [1]
        assert all(perp_list(cut, r) == 0 for r in rows) and perp_list(cut, monomial) != 0
        rows.append(monomial)
