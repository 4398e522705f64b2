"""Numerical semigroups, Gorenstein predicates, saturations."""

import math
import random
import time

import pytest

from branchdual.errors import GeneratorError, NonCoprime
from branchdual.inverse_system import inverse_system
from branchdual.semigroup import (
    MAX_SIEVE,
    Characteristic,
    NumericalSemigroup,
    from_generators,
    from_staircase,
    gorenstein_check,
    is_symmetric,
    monomial_inverse_system,
    saturation_from_characteristic,
)
from branchdual.series import Series
from branchdual.subalgebra import AlgebraInput, closure

from oracles import enumerate_semigroups, gaps_to_generators, semigroup_data, sieve


def test_from_generators_examples():
    D = from_generators([4, 6, 9])
    assert D.gaps == (1, 2, 3, 5, 7, 11)
    assert D.conductor == 12 and D.genus == 6 and D.e0 == 4
    assert D.generators == (4, 6, 9)

    D2 = from_generators([2, 3])
    assert D2.gaps == (1,) and D2.conductor == 2

    D3 = from_generators([1])
    assert D3.gaps == () and D3.conductor == 0 and D3.generators == (1,)


def test_from_generators_non_coprime():
    with pytest.raises(NonCoprime):
        from_generators([2, 4])
    with pytest.raises(ValueError):
        from_generators([])
    with pytest.raises(ValueError):
        from_generators([0, 3])


def test_from_generators_redundant_input_minimalized():
    D = from_generators([4, 6, 9, 10, 13])
    assert D.generators == (4, 6, 9)


def random_coprime_generators(seed, count):
    """count seeded lists of 1-5 integers in 1..30 with gcd 1."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        gens = [rng.randint(1, 30) for _ in range(rng.randint(1, 5))]
        if math.gcd(*gens) == 1:
            out.append(gens)
    return out


FIXED_GENERATORS = [[3, 5], [5, 7, 9], [4, 7, 9], [6, 8, 10, 11, 13, 15]]


def test_from_generators_matches_sieve_oracle():
    for gens in FIXED_GENERATORS + random_coprime_generators(27, 60):
        D = from_generators(gens)
        gaps, conductor, genus = semigroup_data(gens)
        assert D.gaps == gaps and D.conductor == conductor and D.genus == genus, gens
        assert D.e0 == min(gens)
        assert D.generators == (gaps_to_generators(set(gaps)) if gaps else (1,)), gens


def window(D):
    """The members of D below its conductor."""
    return tuple(k for k in range(D.conductor) if D.contains(k))


def test_from_staircase_of_each_window_is_from_generators():
    for gens in FIXED_GENERATORS + random_coprime_generators(28, 300):
        D = from_generators(gens)
        assert from_staircase(window(D), D.conductor) == D
    for gaps in enumerate_semigroups(8):
        D = from_generators(list(gaps_to_generators(set(gaps))) if gaps else [1])
        assert D.gaps == tuple(sorted(gaps))
        assert from_staircase(window(D), D.conductor) == D


def test_from_staircase_ignores_values_past_the_conductor():
    # 100 is at or past c, so a member anyway: it is ignored
    assert from_staircase((0, 3, 100), 5) == from_generators([3, 5, 7])
    # c - 1 = 4 is a value, so this is no staircase window: the conductor is the true one
    D = from_staircase((0, 3, 4), 5)
    assert D == from_generators([3, 4, 5])
    assert D.conductor == 3 and D.gaps == (1, 2)
    assert from_staircase((0,), 1) == from_staircase((), 0) == from_generators([1])


def test_contains_and_frobenius():
    D = from_generators([4, 6, 9])
    assert D.contains(0) and D.contains(4) and D.contains(100)
    assert not D.contains(11) and not D.contains(-1)
    assert D.frobenius == 11


def test_contains_agrees_with_the_sieve_on_enumerated_semigroups():
    for gaps in enumerate_semigroups(6):
        gens = gaps_to_generators(set(gaps)) if gaps else (1,)
        D = from_generators(list(gens))
        member = sieve(list(gens), D.conductor + 3)
        assert [D.contains(n) for n in range(-2, D.conductor + 4)] == [False, False] + member


def test_wide_two_generator_semigroup_is_sieved_and_symmetric():
    # contains bisects the gaps: the symmetry check over c = 89,700 is not quadratic
    D = from_generators([300, 301])
    assert D.conductor == 89_700 and D.genus == 44_850
    assert is_symmetric(D)


def test_sieve_bound_above_the_cap_is_refused_before_sieving():
    # the Schur bound of <3, k> is 2k + 2, and its conductor 2(k - 1)
    assert 2 * 49_999 + 2 == MAX_SIEVE
    assert from_generators([3, 49_999]).conductor == 99_996
    with pytest.raises(GeneratorError):
        from_generators([3, 50_000])
    with pytest.raises(GeneratorError):
        from_generators([20000, 20001])
    with pytest.raises(GeneratorError):
        saturation_from_characteristic(Characteristic.make(2, [100001]))
    # e0 = 1: the middle families would list every integer up to beta_g
    assert saturation_from_characteristic(Characteristic.make(1, [])).generators == (1,)


def test_saturation_with_a_bound_just_under_the_cap_is_fast():
    # Schur bound 99,998 with 16,665 exponents: a member adds nothing to the sieve
    started = time.perf_counter()
    D = saturation_from_characteristic(Characteristic.make(4, [6, 33329]))
    assert time.perf_counter() - started < 2
    assert D.generators == (4, 6, 33329, 33331)
    assert D.conductor == 33_328


def test_is_symmetric_examples():
    assert is_symmetric(from_generators([4, 6, 9]))
    assert not is_symmetric(from_generators([4, 7, 9]))
    assert is_symmetric(from_generators([2, 3]))


def test_from_staircase():
    st = closure(AlgebraInput.make([Series.make([0, 0, 0, 1, 1]), Series.make([0, 0, 0, 0, 0, 1])]))
    D = from_staircase(st.values, st.conductor)
    assert D.gaps == st.gaps
    assert D.conductor == st.conductor
    assert D.generators == (3, 5)
    assert from_staircase((0,), 0).generators == (1,)


def test_monomial_inverse_system_examples():
    D = from_generators([4, 7, 9])
    V = monomial_inverse_system(D)
    assert [g.support() for g in V.basis] == [(1,), (2,), (3,), (5,), (6,), (10,)]
    assert monomial_inverse_system(from_generators([2, 3])).basis[0].support() == (1,)
    V469 = monomial_inverse_system(from_generators([4, 6, 9]))
    assert [g.support() for g in V469.basis] == [(1,), (2,), (3,), (5,), (7,), (11,)]


def test_gorenstein_check_examples():
    g1 = gorenstein_check(from_generators([4, 6, 9]))
    assert (g1.symmetric, g1.c_equals_2delta, g1.palindromic_inverse) == (
        True,
        True,
        True,
    )
    g2 = gorenstein_check(from_generators([4, 7, 9]))
    assert (g2.symmetric, g2.c_equals_2delta, g2.palindromic_inverse) == (
        False,
        False,
        False,
    )
    g3 = gorenstein_check(from_generators([2, 5]))
    assert (g3.symmetric, g3.c_equals_2delta, g3.palindromic_inverse) == (
        True,
        True,
        True,
    )


def test_gorenstein_predicates_constant_small_genus():
    for gaps in enumerate_semigroups(6):
        gens = gaps_to_generators(set(gaps)) if gaps else (1,)
        chk = gorenstein_check(from_generators(list(gens)))
        assert chk.symmetric == chk.c_equals_2delta == chk.palindromic_inverse


def test_monomial_inverse_system_agrees_with_solver_small_genus():
    for gaps in enumerate_semigroups(5):
        gens = gaps_to_generators(set(gaps)) if gaps else (1,)
        D = from_generators(list(gens))
        A = AlgebraInput.make(
            [Series.make([0] * a + [1]) for a in gens]
        )
        V = inverse_system(closure(A))
        assert [g.support() for g in V.basis] == [
            (i,) for i in D.gaps
        ]


def test_characteristic_normalization():
    ch = Characteristic.make(6, [8, 11])
    assert ch.m == (4, 11) and ch.n == (3, 2)
    ch2 = Characteristic.make(2, [3])
    assert ch2.m == (3,) and ch2.n == (2,)


def test_characteristic_validation():
    with pytest.raises(ValueError):
        Characteristic.make(0, [])
    with pytest.raises(ValueError):
        Characteristic.make(4, [6])  # gcd chain never reaches 1
    with pytest.raises(ValueError):
        Characteristic.make(4, [7, 7])
    with pytest.raises(ValueError):
        Characteristic.make(4, [3])


@pytest.mark.parametrize(
    "e0, betas",
    [(6, [8, 10, 11]), (4, [8, 9]), (6, [9, 12, 13]), (4, [6, 8, 9]),
     (9, [12, 22, 25]), (1, [2, 10**12])],
)
def test_characteristic_refuses_exponents_that_keep_the_gcd(e0, betas):
    # each exponent lowers the gcd of e0 and the exponents before it, also once it is 1
    with pytest.raises(ValueError, match="invalid characteristic"):
        Characteristic.make(e0, betas)


def test_saturation_examples():
    D = saturation_from_characteristic(Characteristic.make(6, [8, 11]))
    assert D.generators == (6, 8, 10, 11, 13, 15)
    assert saturation_from_characteristic(Characteristic.make(2, [3])).generators == (
        2,
        3,
    )
    smooth = saturation_from_characteristic(Characteristic.make(1, []))
    assert smooth.generators == (1,) and smooth.conductor == 0


@pytest.mark.parametrize("m, n", [((5,), (3,)), ((4, 13), (3, 2))])
def test_saturation_derives_the_pairs_and_reads_none_stored(m, n):
    # a record built with wrong pairs m, n saturates as Characteristic.make's
    D = saturation_from_characteristic(Characteristic(6, (8, 11), m, n))
    assert (D.generators, D.conductor) == ((6, 8, 10, 11, 13, 15), 10)


def test_saturation_refuses_an_invalid_characteristic_with_stored_pairs():
    # 10 does not lower gcd(6, 8) = 2, whatever pairs the record carries
    with pytest.raises(ValueError, match="10 does not lower the gcd 2"):
        saturation_from_characteristic(Characteristic(6, (8, 10), (4, 5), (3, 2)))


def test_saturation_contains_multiplicity_and_is_coprime():
    for e0, betas in [(4, [6, 7]), (6, [8, 11]), (4, [10, 13]), (9, [12, 22])]:
        ch = Characteristic.make(e0, betas)
        D = saturation_from_characteristic(ch)
        assert D.e0 == e0
        assert D.contains(e0)
        # from_generators would have raised NonCoprime otherwise
        assert isinstance(D, NumericalSemigroup)


def test_enumeration_counts_match_known_sequence():
    counts = {}
    for gaps in enumerate_semigroups(8):
        counts[len(gaps)] = counts.get(len(gaps), 0) + 1
    assert [counts[g] for g in range(9)] == [1, 1, 2, 4, 7, 12, 23, 39, 67]
