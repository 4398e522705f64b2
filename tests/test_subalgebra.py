"""Staircase closure, invariants, Hilbert data, blow-up chains."""

import contextlib
import math
import pickle
import random
import signal
import time
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchdual import subalgebra
from branchdual.cli import JobSpec, run
from branchdual.errors import GeneratorError, InfiniteCodimension, InternalError, PrecisionExhausted
from branchdual.expressions import parse_series
from branchdual.linalg import _dense
from branchdual.inverse_system import inverse_system
from branchdual.semigroup import from_staircase, gorenstein_check
from branchdual.series import Series, mul, mul_coeffs, order
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
    closure_naive,
    coeff_dict_to_list,
    euclid_multiplicities,
    hilbert_naive,
    perp_list,
    plane_branch_facts,
    random_branch,
    reduced_per_column,
    semigroup_data,
    span_orders,
    span_rank,
    staircase_naive,
)

F = Fraction
DEFAULT_CEILING = subalgebra.DEFAULT_TRUNC_CEILING


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
    assert st.delta == 0 and st.conductor == 0


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
    assert st2.delta == 0


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
    assert membership(Series.make(list(combo.coeffs), 17) if combo.exact else combo, st)
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


def check_staircase_rows(sc):
    """Everything a staircase reports must read off its rows as defined.

    A staircase stores one view, ``rows`` or ``sparse_rows``, and derives the
    other.  One built lazily (``closure``'s, whose rows are back-substituted
    on first read) reports what reads no rows off its sparse rows' keys:
    those must be what the rows give, and reading them must not force the
    rows.  The sparse rows are an element of the algebra of each value, in
    the rows' span mod t^max(c, 1)."""
    c = sc.conductor
    top = max(c, 1)
    lazy = "rows" not in sc.__dict__
    unread = (sc.values, sc.gaps, sc.delta, sc.e0, hash(sc), sc.sparse_rows)
    assert ("rows" not in sc.__dict__) == lazy
    if lazy:
        eager = subalgebra.Staircase(sc.rows, c, sc.work_trunc)
        assert unread[:5] == (eager.values, eager.gaps, eager.delta, eager.e0, hash(eager)) and eager == sc
    assert list(sc.sparse_rows) == list(sc.values)
    for v, e in sc.sparse_rows.items():
        assert min(e) == v and max(e) < top and e[v] > 0 and math.gcd(*e.values()) == 1
        assert all(type(x) is int and x for x in e.values())
        combo = [sum([F(e.get(w, 0), r[w]) * r[k] for w, r in sc.rows.items()]) for k in range(top)]
        assert combo == [e.get(k, 0) for k in range(top)]
    assert sc.values == tuple(sorted(sc.rows)) and sc.values[0] == 0
    assert sc.gaps == tuple(sorted(set(range(1, c)) - set(sc.values)))
    assert sc.delta == len(sc.gaps) == top - len(sc.values)
    assert sc.e0 == min([v for v in sc.values if v] + [top])
    for (v, r), b in zip(sc.rows.items(), sc.basis, strict=True):
        assert len(r) == top and all(type(x) is int for x in r)
        assert r[v] > 0 and math.gcd(*r) == 1 and not any(r[:v])
        assert all(r[w] == 0 for w in sc.values if w != v)  # reduced
        assert b.exact and b == Series.make([F(x, r[v]) for x in r])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_staircase_reads_everything_off_its_rows_on_random_branches(seed):
    dicts = random_branch(random.Random(seed), max_delta=9)
    sc = closure(AlgebraInput.make([S(d) for d in dicts]))
    assert "rows" not in sc.__dict__ and "sparse_rows" in sc.__dict__  # closure's staircase is built lazily
    check_staircase_rows(sc)
    check_staircase_rows(subalgebra.Staircase(sc.rows, sc.conductor, sc.work_trunc))  # and eagerly


@pytest.mark.parametrize("gens", ["t", "t^2, t+t^3", "t^3, t^2, t+t^5"])
def test_closure_of_the_whole_ring_takes_the_one_path(gens):
    sc = closure(AlgebraInput.make([parse_series(g) for g in gens.split(",")]))
    assert (sc.values, sc.basis, sc.conductor, sc.e0) == ((0,), (Series.make([1]),), 0, 1)
    assert (sc.gaps, sc.delta, sc.rows) == ((), 0, {0: (1,)})
    check_staircase_rows(sc)


@given(st.integers(0, 2**32 - 1), st.integers(1, 48), st.booleans())
@settings(max_examples=60, deadline=None)
def test_precision_exhausted_requires_more_than_the_ceiling(seed, ceiling, cut):
    # ``required`` is the next window the doubling would try: above the
    # ceiling, or above a generator's own truncation when that is lower,
    # though not always the least window that suffices
    rng = random.Random(seed)
    gens = [S(d) for d in random_branch(rng, max_delta=9)]
    if cut:
        s = rng.randint(order(gens[0]), 40)
        gens[0] = Series.make(gens[0].coeffs[: s + 1], s)
    cap = min([ceiling] + [g.trunc for g in gens if not g.exact])
    try:
        closure(AlgebraInput.make(gens), ceiling)
    except PrecisionExhausted as ex:
        assert ex.required > cap


def test_closure_values_match_naive_span_oracle():
    rng = random.Random(20240817)
    for _ in range(40):
        dicts = random_branch(rng, max_delta=9)
        st = closure(AlgebraInput.make([S(d) for d in dicts]))
        check_staircase_against_span(st, [coeff_dict_to_list(d) for d in dicts])


def closure_outcome(gens, ceiling):
    """``closure``'s result in ``oracles.closure_naive``'s terms."""
    try:
        sc = closure(AlgebraInput.make(gens), ceiling)
    except PrecisionExhausted as ex:
        return ("precision", ex.required)
    except InfiniteCodimension as ex:
        return ("infinite", ex.gcd, ex.values)
    return ("ok", sc.gaps, [[F(x, r[v]) for x in r] for v, r in sc.rows.items()], sc.work_trunc)


def check_closure_against_naive_oracle(gens, ceiling):
    # staircase rows, gaps and work_trunc, or the error with its gcd or ``required``
    expected = closure_naive([(list(g.coeffs), g.trunc) for g in gens], ceiling)
    assert closure_outcome(gens, ceiling) == expected


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_closure_matches_naive_oracle_with_repeated_and_dependent_generators(seed):
    # a repeated generator, one in the span of two earlier ones and a product
    # add no pivot, so they are no factors of the closure: nothing may change
    gens = [S(d) for d in random_branch(random.Random(seed), max_delta=6)]
    g0, g1 = gens[0], gens[-1]
    gens += [g0, g0.scale(F(-2, 3)) + g1, mul(g0, g1)]
    for ceiling in (4, 9, 17, 33):
        check_closure_against_naive_oracle(gens, ceiling)
    check_closure_against_naive_oracle(gens[::-1], 17)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_closure_matches_naive_oracle_on_blowup_generators(seed):
    # blowup(S, w)'s inexact generators, with the truncated staircase basis,
    # which lies in the blow-up: many inexact generators, most of them dependent
    st_ = closure(AlgebraInput.make([S(d) for d in random_branch(random.Random(seed), max_delta=6)]))
    for w in (8, 16, 24):
        basis = [Series.make(b.coeffs[: w + 1], w) for v, b in zip(st_.values, st_.basis) if 0 < v <= w]
        gens = list(blowup(st_, w).gens) + basis
        for ceiling in (w // 2, DEFAULT_CEILING):
            check_closure_against_naive_oracle(gens, ceiling)


@pytest.mark.parametrize("gens, ceiling", [("t^2+t^4, t^6", 64), ("t^2+t^4, t^6", 40), ("t^4, t^6+t^10", 64)])
def test_closure_matches_naive_oracle_on_even_branches(gens, ceiling):
    # gcd 2: infinite codimension from max(gcd window 64, (n-1)(n-2) + 1) on,
    # below it a window to ask for; degree n = 10 puts that bound at 73 > 64
    check_closure_against_naive_oracle([parse_series(g) for g in gens.split(",")], ceiling)


def test_gcd_is_conclusive_from_the_genus_degree_bound_on():
    # degree 10: (10-1)(10-2) + 1 = 73, so the window 64 proves nothing yet
    gens = AlgebraInput.make([parse_series("t^4"), parse_series("t^6+t^10")])
    with pytest.raises(PrecisionExhausted) as ex:
        closure(gens, 64)
    assert ex.value.required == 65
    with pytest.raises(InfiniteCodimension) as inf:
        closure(gens, 128)
    # windows 40, then 80 >= 73, which concludes
    assert (inf.value.gcd, inf.value.values) == (2, tuple(range(4, 81, 2)))


def test_late_odd_value_branch_closes_at_its_conductor():
    # characteristic (16; 24, 28, 30, 31): every value below 213 is even, and
    # 213 lies past the gcd window 188, where an infinite verdict came before
    gens = [parse_series(g) for g in "t^16, t^24+t^28+t^30+t^31".split(",")]
    sc = closure(AlgebraInput.make(gens))
    assert (sc.gaps, sc.conductor, sc.delta) == semigroup_data([16, 24, 52, 106, 213])
    assert (sc.delta, sc.conductor, sc.work_trunc) == (190, 380, 512)


@pytest.mark.parametrize(
    "gens, required",
    [
        # characteristic (32; 48, 56, 60, 62, 63), finite codimension, first
        # odd value 853: the bound 62 * 61 + 1 = 3,783 lies past the default
        # ceiling
        (["t^32", "t^48+t^56+t^60+t^62+t^63"], 513),
        # infinite codimension (B lies in k[[t^3]]), but the bound
        # 59 * 58 + 1 = 3,423 lies past the default ceiling: exit 5, not 2
        (["t^6", "t^9+t^60"], 513),
    ],
)
def test_high_degree_even_windows_run_out_of_precision(gens, required):
    report, code = run(JobSpec("inverse-system", gens))
    assert code == 5
    assert report["error"]["type"] == "PrecisionExhausted"
    assert report["error"]["required"] == required


def test_inexact_generators_never_prove_infinite_codimension():
    # t^2 known mod t^201: every window has gcd 2, but the tail is unknown;
    # it counts as degree 200, so the gcd window 402 lies past the cap 200
    with pytest.raises(PrecisionExhausted) as ex:
        closure(AlgebraInput.make([Series.make([0, 0, 1], 200)]))
    assert ex.value.required > 200


def test_closure_multiplies_each_row_by_the_generators_only(monkeypatch):
    # a guard by count, not by time: products of every pair of rows took
    # 1,165 here, one product per (row, generator) pair at most 2 * 145
    products = []

    def counting(a, b, n):
        products.append(n)
        return mul_coeffs(a, b, n)

    monkeypatch.setattr(subalgebra, "mul_coeffs", counting)
    gens = [parse_series("t^12+t^13"), parse_series("t^17+t^19")]
    sc = closure(AlgebraInput.make(gens))
    assert (sc.delta, sc.conductor, sc.work_trunc) == (88, 176, 232)
    pivots = len(sc.values) + sc.work_trunc + 1 - sc.conductor  # the values of B mod t^(w+1)
    assert 0 < len(products) <= pivots * len(gens)


class _FillChecked(subalgebra.Echelon):
    """An ``Echelon`` that records, before each insert and after each fill,
    whether column ``filled`` - 1 has no pivot."""

    checks = []

    def insert_coeffs(self, coeffs):
        self.checks.append(self.filled - 1 not in self.table)
        return super().insert_coeffs(coeffs)

    def set_monomials(self, lo):
        super().set_monomials(lo)
        self.checks.append(self.filled - 1 not in self.table)


@pytest.mark.parametrize("seed", range(4))
def test_no_pivot_just_below_the_fill(seed, monkeypatch):
    # closure and hilbert skip a product of order >= filled, and closure reads
    # its conductor as filled: both need column filled - 1 to be no pivot
    monkeypatch.setattr(subalgebra, "Echelon", _FillChecked)
    monkeypatch.setattr(_FillChecked, "checks", [])
    rng = random.Random(seed)
    branches = [AlgebraInput.make([S(d) for d in random_branch(rng, max_delta=8)]) for _ in range(12)]
    branches += [AlgebraInput.make(random_plane_branch(rng, max_delta=60)[2]) for _ in range(2)]
    branches += [ladder_input(name) for name in list(LADDER)[seed::4]]
    for A in branches:
        sc = closure(A)
        hilbert(sc)
        blowup_chain(sc)
    assert _FillChecked.checks and all(_FillChecked.checks)


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


@pytest.mark.parametrize("gens", ["t^12+t^13, t^17+t^19", LADDER["embdim4"]], ids=["d88", "embdim4"])
def test_hilbert_multiplies_by_the_semigroup_generators_only(monkeypatch, gens):
    # every power, the first too, takes one element of B at each minimal
    # generator v of the value semigroup as its factors: no product of two
    # rows of m; their terms ascend, as mul_coeffs needs
    calls = []
    products = subalgebra._products

    def recording(rows, factors, L, values):
        calls.append(factors)
        return products(rows, factors, L, values)

    monkeypatch.setattr(subalgebra, "_products", recording)
    sc = closure(AlgebraInput.make([parse_series(g) for g in gens.split(",")]))
    h = hilbert(sc)
    c = sc.conductor
    assert len(calls) == len(h.hf1) - 2
    for factors in calls:
        assert tuple([v for v, _ in factors]) == from_staircase(sc.values, c).generators
        for v, terms in factors:
            exps = [k for k, _ in terms]
            assert exps == sorted(exps) and exps[0] == v
            # made monic and cut at c (at v + 1 for t^v, v >= c): an element of B of order v
            r = _dense(dict(terms), max(c, v + 1))
            f = Series.make([F(x, r[v]) for x in r[: max(c, v + 1)]])
            assert order(f) == v and membership(f, sc)


@pytest.mark.parametrize(
    "gens, ceiling",
    [
        (LADDER["d27"], DEFAULT_CEILING),
        (LADDER["d30"], DEFAULT_CEILING),
        (LADDER["d48"], DEFAULT_CEILING),
        ("t^12+t^13, t^17+t^19", DEFAULT_CEILING),
        (LADDER["embdim4"], DEFAULT_CEILING),
        # unsorted factor terms gave HF(1) = 0 here, and nowhere below
        ("t^16, t^24+t^28+t^30+t^31", 1024),
    ],
    ids=["d27", "d30", "d48", "d88", "embdim4", "d190"],
)
def test_hilbert_on_closure_rows_matches_the_reduced_rows(gens, ceiling):
    sc = closure(AlgebraInput.make([parse_series(g) for g in gens.split(",")]), ceiling)
    reduced = subalgebra.Staircase(sc.rows, sc.conductor, sc.work_trunc)
    # hilbert reads closure's echelon rows on sc, the reduced rows made sparse on the other
    assert "sparse_rows" not in reduced.__dict__ and reduced == sc
    assert hilbert(sc) == hilbert(reduced)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_hilbert_on_closure_rows_matches_the_reduced_rows_on_random_branches(seed):
    sc = closure(AlgebraInput.make([S(d) for d in random_branch(random.Random(seed), max_delta=9)]))
    assert hilbert(sc) == hilbert(subalgebra.Staircase(sc.rows, sc.conductor, sc.work_trunc))


def test_hilbert_at_delta_150_is_fast():
    # a regression guard: products of the reduced rows with no fill need
    # about 18 s here, closure's echelon rows with the fill about 15 ms
    sc = closure(AlgebraInput.make([parse_series("t^16+t^17"), parse_series("t^21+t^23")]), 1024)
    assert sc.delta == 150
    t0 = time.perf_counter()
    h = hilbert(sc)
    assert time.perf_counter() - t0 < 2.0
    assert h.hf == tuple([min(n + 1, 16) for n in range(17)])


@pytest.mark.parametrize(
    "gens, e0",
    [(LADDER["d48"], 9), ("t^12+t^13, t^17+t^19", 12), ("t^8, t^12+t^14+t^15", 8)],
    ids=["d48", "d88", "d42"],
)
def test_hilbert_of_a_plane_branch_is_min_n_plus_1_e0(gens, e0):
    # k[[x, y]]/(f) with ord f = e0: HF(n) = min(n + 1, e0), first equal to
    # e0 at n = e0 - 1, so e1 = e0(e0 - 1)/2
    h = hilbert(closure(AlgebraInput.make([parse_series(g) for g in gens.split(",")])))
    assert h.hf == tuple([min(n + 1, e0) for n in range(e0 + 1)])
    assert h.e1 == e0 * (e0 - 1) // 2


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


@pytest.mark.parametrize("name", ["d4", "d11", "d30", "embdim4", "plane-d8"])
def test_blowup_chain_closes_each_blowup_once_in_its_window(monkeypatch, name):
    # one closure per step, at W = 2(delta - e0 + 1) + e0 + 2 of the ring blown up
    calls = []
    close = subalgebra._close

    def recording(gens, ceiling):
        calls.append((ceiling, close(gens, ceiling)))
        return calls[-1][1]

    sc = closure(ladder_input(name))
    monkeypatch.setattr(subalgebra, "_close", recording)
    chain = blowup_chain(sc)
    assert len(calls) == len(chain.steps) - 1
    for ceiling, nxt in calls:
        assert ceiling == 2 * (sc.delta - sc.e0 + 1) + sc.e0 + 2
        sc = nxt
    assert sc.delta == 0


def close_outcome(close):
    """Rows, conductor and work_trunc of a closure, or its error's type, required and message."""
    try:
        sc = close()
    except (GeneratorError, InfiniteCodimension, PrecisionExhausted) as ex:
        return type(ex), getattr(ex, "required", None), str(ex)
    return sc.rows, sc.conductor, sc.work_trunc


def check_chain_rows_match_the_blown_up_series(sc):
    # every step of the chain's int-row path, on closure's echelon rows
    # (``sparse_rows``), closes to what the public blowup's series, on the
    # reduced rows, close to, in the chain's window W and around it
    while sc.delta:
        W = 2 * (sc.delta - sc.e0 + 1) + sc.e0 + 2
        for w in (W, W // 2, W + 7):
            rows = close_outcome(lambda: subalgebra._close(subalgebra._blowup_rows(sc, w, sc.sparse_rows), w))
            assert rows == close_outcome(lambda: closure(blowup(sc, w), w)), w
        sc = subalgebra._close(subalgebra._blowup_rows(sc, W, sc.sparse_rows), W)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_chain_rows_match_the_blown_up_series_on_random_branches(seed):
    A = AlgebraInput.make([S(d) for d in random_branch(random.Random(seed), max_delta=9)])
    check_chain_rows_match_the_blown_up_series(closure(A))


@pytest.mark.parametrize("name", ["d4", "d11", "d27", "d30", "d48", "embdim4", "plane-d8"])
def test_ladder_chain_rows_match_the_blown_up_series(name):
    check_chain_rows_match_the_blown_up_series(closure(ladder_input(name)))


@pytest.mark.parametrize(
    "gens, prec, orders",
    [
        ("t^4, t^6+t^7", 3, [2]),  # x (order 4) and b_13/x (order 9) dropped
        ("t^4, t^6+t^7", 8, [4, 2]),  # b_13/x dropped
        ("t^4, t^6+t^7", 9, [4, 2, 9]),
        ("t^5, t^7, t^9, t^11", 4, [2, 4]),
        ("t^5, t^7, t^9, t^11", 5, [5, 2, 4]),
        ("t^2, t^3", 1, [1]),  # e0 = c: x = t^2, dropped
        ("t^3+t^4, t^5", 1, []),
        (LADDER["d27"], 6, [3]),  # x, with rational tails, dropped
    ],
)
def test_blowup_drops_the_generators_of_order_above_prec(gens, prec, orders):
    sc = closure(AlgebraInput.make([parse_series(g) for g in gens.split(",")]))
    B = blowup(sc, prec).gens
    assert [order(g) for g in B] == orders
    # the kept ones are monic, and the generators of a finer blow-up cut at prec
    full = [g for g in blowup(sc, 40).gens if order(g) <= prec]
    assert list(B) == [Series.make(g.coeffs[: prec + 1], prec) for g in full]
    assert all(g.coeff(order(g)) == 1 for g in B)
    rows = close_outcome(lambda: subalgebra._close(subalgebra._blowup_rows(sc, prec, sc.sparse_rows), prec))
    assert rows == close_outcome(lambda: closure(blowup(sc, prec), prec))


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


def check_generators_on_the_blowup_chain(sc):
    # on every ring of the chain: one generator per minimal generator of the
    # value semigroup, in order, and they generate the ring
    while True:
        gens = sc.algebra_generators()
        assert "basis" not in vars(sc)  # only the generators' rows become series
        assert tuple([order(g) for g in gens]) == from_staircase(sc.values, sc.conductor).generators
        assert closure(AlgebraInput.make(gens)) == sc
        if not sc.delta:
            return
        sc = closure(blowup(sc))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_algebra_generators_are_the_minimal_generators_on_random_chains(seed):
    A = AlgebraInput.make([S(d) for d in random_branch(random.Random(seed), max_delta=9)])
    check_generators_on_the_blowup_chain(closure(A))


@pytest.mark.parametrize("gens", [LADDER["d27"], LADDER["d48"], "t^12+t^13, t^17+t^19"])
def test_algebra_generators_are_the_minimal_generators_on_the_ladder(gens):
    check_generators_on_the_blowup_chain(closure(AlgebraInput.make([parse_series(g) for g in gens.split(",")])))


@pytest.mark.parametrize(
    "gens, e0, betas, head, ceiling",
    [
        ("t^8, t^12+t^14+t^15", 8, (12, 14, 15), (8, 4, 4, 2, 2, 1), 512),
        ("t^9, t^12+t^14", 9, (12, 14), (9, 3, 3, 3, 2, 1), 512),
        ("t^12, t^18+t^20+t^21", 12, (18, 20, 21), (12, 6, 6, 2, 2, 2, 1), 512),
        ("t^16, t^24+t^28+t^30+t^31", 16, (24, 28, 30, 31), (16, 8, 8, 4, 4, 2, 2, 1), 1024),
    ],
)
def test_blowup_chain_follows_euclid_on_plane_branches(gens, e0, betas, head, ceiling):
    # x = t^e0, y = sum of t^beta: the multiplicities are Euclid's (Enriques),
    # each e1 is m(m-1)/2 and they add up to delta (Noether); the delta 190
    # branch is the one whose chain the fill cut shortens most
    sc = closure(AlgebraInput.make([parse_series(g) for g in gens.split(",")]), ceiling)
    ch = blowup_chain(sc)
    assert euclid_multiplicities(e0, betas) == head
    assert ch.multiplicities() == head
    assert ch.e1_sequence() == tuple([m * (m - 1) // 2 for m in head])
    assert sum(ch.e1_sequence()) == sc.delta


def random_plane_branch(rng, max_delta=150):
    """(e0, betas, generators) of x = t^e0, y = sum a_j t^j with characteristic
    (e0; betas), random nonzero rational a_j, random non-characteristic terms
    and delta at most max_delta."""
    while True:
        e0 = rng.randint(2, 16)
        betas, e, b = [], e0, e0
        while e > 1:
            b = rng.choice([j for j in range(b + 1, b + 2 * e0 + 1) if j % e])
            betas.append(b)
            e = math.gcd(e, b)
        if plane_branch_facts(e0, betas)["delta"] <= max_delta:
            break
    # a non-characteristic term t^j, e0 < j, is divisible by the gcd of e0
    # and the characteristic exponents below it
    extra = [j for j in range(e0 + 1, betas[-1] + e0) if j not in betas
             and j % math.gcd(e0, *[b for b in betas if b < j]) == 0]
    y = {j: rng.choice([1, -1, 2, F(1, 3), F(-5, 2)]) for j in betas + rng.sample(extra, min(len(extra), rng.randint(0, 3)))}
    return e0, tuple(betas), [S({e0: 1}), S(y)]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_plane_branches_match_their_characteristic(seed):
    # closed-form invariants from the characteristic exponents, up to delta
    # 150: a plane branch is Gorenstein, and its inverse system has dimension
    # delta and top degree c - 1
    e0, betas, gens = random_plane_branch(random.Random(seed))
    facts = plane_branch_facts(e0, betas)
    sc = closure(AlgebraInput.make(gens))
    assert (sc.gaps, sc.delta, sc.conductor, sc.e0) == (facts["gaps"], facts["delta"], facts["conductor"], e0)
    assert from_staircase(sc.values, sc.conductor).generators == facts["generators"]
    chk = gorenstein_check(from_staircase(sc.values, sc.conductor))
    assert chk.symmetric and chk.c_equals_2delta and chk.palindromic_inverse
    V = inverse_system(sc)
    assert V.dim == len(V.basis) == facts["delta"]
    assert max(g.degree for g in V.basis) == facts["conductor"] - 1
    h = hilbert(sc)
    assert h.hf == facts["hf"] and h.e1 == e0 * (e0 - 1) // 2
    ch = blowup_chain(sc)
    assert ch.multiplicities() == facts["multiplicities"]
    assert ch.e1_sequence() == tuple([m * (m - 1) // 2 for m in facts["multiplicities"]])
    assert sum(ch.e1_sequence()) == sc.delta


class _Recorded(subalgebra.Echelon):
    """An ``Echelon`` that keeps every instance made, in order."""

    made = []

    def __init__(self, trunc):
        super().__init__(trunc)
        self.made.append(self)


def check_rows_read_lazily(gens, ceiling):
    # closure hands its staircase the echelon rows; rows read later must be
    # the eager reduced form of the table of the window that concluded, cut
    # at max(c, 1) (its rows have no column at or past c = filled), as
    # closure computed them before, and the oracle's one pivot column at a time
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subalgebra, "Echelon", _Recorded)
        mp.setattr(_Recorded, "made", [])
        sc = closure(AlgebraInput.make(gens), ceiling)
        ech = _Recorded.made[-1]
    top = max(sc.conductor, 1)
    assert "rows" not in sc.__dict__
    assert (ech.trunc, ech.filled) == (sc.work_trunc, sc.conductor)
    # the fill's monomials are pivots with no row; the one below top is t^0, of k[[t]] (c = 0)
    eager = {p: r[:top] for p, r in ech.reduced().items() if p < top} or {0: (1,)}
    assert {p: eager[p] for p in ech.table} == reduced_per_column(ech.table, ech.table, top)
    assert sc.rows == eager and list(sc.values) == list(eager)


LAZY_RUNGS = {
    "k[[t]]": ("t", DEFAULT_CEILING),
    "k[[t]]-2": ("t^2, t+t^3", DEFAULT_CEILING),
    "d4": (LADDER["d4"], DEFAULT_CEILING),
    "d27": (LADDER["d27"], DEFAULT_CEILING),
    "d190": ("t^16, t^24+t^28+t^30+t^31", 1024),
}


def lazy_rung(name):
    gens, ceiling = LAZY_RUNGS[name]
    return [parse_series(g) for g in gens.split(",")], ceiling


@pytest.mark.parametrize("name", list(LAZY_RUNGS))
def test_rows_read_lazily_are_the_eager_back_substitution(name):
    check_rows_read_lazily(*lazy_rung(name))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_rows_read_lazily_are_the_eager_back_substitution_on_random_branches(seed):
    check_rows_read_lazily([S(d) for d in random_branch(random.Random(seed), max_delta=9)], DEFAULT_CEILING)


@pytest.mark.parametrize("name", list(LAZY_RUNGS))
def test_a_lazy_staircase_compares_hashes_prints_and_pickles_as_its_rows(name):
    # ==, hash, repr and a pickled copy are the same before and after rows is
    # read, and the same as the staircase built from the rows by the public
    # constructor
    gens, ceiling = lazy_rung(name)
    read = closure(AlgebraInput.make(gens), ceiling)
    eager = subalgebra.Staircase(read.rows, read.conductor, read.work_trunc)
    assert hash(closure(AlgebraInput.make(gens), ceiling)) == hash(read) == hash(eager)
    copy = pickle.loads(pickle.dumps(closure(AlgebraInput.make(gens), ceiling)))
    assert "rows" not in copy.__dict__ and copy == read and repr(copy) == repr(eager)
    unread = closure(AlgebraInput.make(gens), ceiling)
    assert unread == read == eager and "rows" in unread.__dict__
    for sc in (closure(AlgebraInput.make(gens), ceiling), read):
        assert repr(sc) == repr(eager) and hash(sc) == hash(eager)
        copy = pickle.loads(pickle.dumps(sc))
        assert copy == eager and repr(copy) == repr(eager) and hash(copy) == hash(eager)


@pytest.mark.parametrize("name", ["d4", "d11", "d27", "d30", "embdim4", "plane-d8"])
def test_only_a_report_that_prints_the_staircase_back_substitutes_it(name, monkeypatch):
    # blowup-chain, gorenstein, check-af and derivations read values, the
    # conductor, e0 or any basis of B (``sparse_rows``): no back-substitution
    # of any staircase, the chain's included; analyze prints the staircase's
    # basis, one back-substitution
    calls = []
    rows = subalgebra.Staircase.__dict__["rows"]

    def counted(sc):
        calls.append(sc.conductor)
        return rows.func(sc)

    prop = cached_property(counted)
    prop.__set_name__(subalgebra.Staircase, "rows")
    monkeypatch.setattr(subalgebra.Staircase, "rows", prop)
    gens = [g.strip() for g in LADDER[name].split(",")]
    ops = "u^2; u^3 + 1/2 u^5"
    for command, options, want in [("blowup-chain", {}, 0), ("gorenstein", {}, 0), ("check-af", {"v": ops}, 0),
                                   ("derivations", {"v": ops}, 0), ("analyze", {}, 1)]:
        calls.clear()
        report, code = run(JobSpec(command, gens, options))
        assert (code, len(calls)) == (0, want), (command, report)


@contextlib.contextmanager
def within_a_second():
    """Raise TimeoutError in the block once a second has passed, so that a
    loop with no cap fails the test instead of hanging it."""
    def expire(signum, frame):
        raise TimeoutError("still running after a second")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(1)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_hilbert_power_loop_stops_past_e0_plus_1_powers(monkeypatch):
    # the stop rule fires by power max(1, e0 - 1); with each power left as
    # it is (_products returns it unchanged), HF never reaches e0, and the
    # loop raises once e0 + 1 = 4 powers are taken
    sc = closure(TOY)
    monkeypatch.setattr(subalgebra, "_products", lambda power, factors, L, values: power)
    with within_a_second(), pytest.raises(InternalError, match="after 4 powers"):
        hilbert(sc)


def test_blowup_chain_stops_past_delta_steps(monkeypatch):
    # each blow-up lowers delta by e1 >= e0 - 1 >= 1; with every step closing
    # to the same algebra (_close returns it), delta never falls, and the
    # chain raises once delta = 4 steps are taken
    sc = closure(TOY)
    monkeypatch.setattr(subalgebra, "_close", lambda gens, ceiling: sc)
    with within_a_second(), pytest.raises(InternalError, match="past 4 steps"):
        blowup_chain(sc)
