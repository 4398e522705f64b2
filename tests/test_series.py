"""Truncated series and differential-operator arithmetic."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchdual.errors import PrecisionExhausted
from branchdual.series import (
    DiffOp,
    Series,
    divide_by_unit,
    mul,
    order,
    perp,
    truncate,
)
from oracles import divide_by_unit_naive, poly_mul

F = Fraction


def S(d, trunc=None):
    n = max(d) + 1 if d else 0
    return Series.make([d.get(i, 0) for i in range(n)], trunc)


def test_make_exact_strips_trailing_zeros():
    f = Series.make([1, 0, 2, 0, 0])
    assert f.coeffs == (F(1), F(0), F(2))
    assert f.exact


def test_make_truncated_pads():
    f = Series.make([1], trunc=3)
    assert f.coeffs == (F(1), F(0), F(0), F(0))


def test_order():
    assert order(S({3: 1, 5: 2})) == 3
    assert order(Series.make([])) is None
    assert order(Series.make([], 4)) is None


def test_coeff_beyond_truncation_raises():
    f = Series.make([0, 1], trunc=1)
    with pytest.raises(PrecisionExhausted):
        f.coeff(2)
    assert S({1: 1}).coeff(100) == 0  # exact series extend by zero


def test_add_sub_scale():
    f = S({1: 1, 2: 2})
    g = S({2: 1})
    assert (f + g).coeffs == (F(0), F(1), F(3))
    assert (f - g).coeffs == (F(0), F(1), F(1))
    assert f.scale(F(1, 2)).coeffs == (F(0), F(1, 2), F(1))


def test_mul_exact():
    f = S({1: 1, 2: 1})
    assert mul(f, f).coeffs == (F(0), F(0), F(1), F(2), F(1))


def test_mul_truncation_rule():
    f = Series.make([0, 1], trunc=3)
    g = Series.make([0, 1], trunc=5)
    p = mul(f, g)
    assert p.trunc == 3
    assert p.coeffs == (F(0), F(0), F(1), F(0))


def test_divide_by_unit_round_trip():
    f = S({0: 1, 1: 2, 3: 5})
    v = S({0: 1, 1: 1})
    q = divide_by_unit(f, v, prec=8)
    assert mul(q, Series.make(list(v.coeffs), 8)).coeffs == Series.make(list(f.coeffs), 8).coeffs


def test_divide_by_unit_requires_precision_for_exact():
    with pytest.raises(ValueError):
        divide_by_unit(S({0: 1}), S({0: 1, 1: 1}))


rational = st.fractions(min_value=-5, max_value=5, max_denominator=9)
truncs = st.none() | st.integers(min_value=0, max_value=12)


@given(
    f_coeffs=st.lists(rational, max_size=12),
    v0=st.sampled_from([F(1), F(-1), F(3), F(2, 7), F(0)]) | rational,
    v_tail=st.lists(rational, max_size=12),
    f_trunc=truncs,
    v_trunc=truncs,
    prec=st.none() | st.integers(min_value=0, max_value=16),
)
@settings(max_examples=200, deadline=None)
def test_divide_by_unit_matches_naive(f_coeffs, v0, v_tail, f_trunc, v_trunc, prec):
    f = Series.make(f_coeffs, f_trunc)
    v = Series.make([v0] + v_tail, v_trunc)
    try:
        expected, t = divide_by_unit_naive(f, v, prec)
    except ValueError as ex:
        with pytest.raises(ValueError, match=re.escape(str(ex))):
            divide_by_unit(f, v, prec)
        return
    q = divide_by_unit(f, v, prec)
    assert q.trunc == t
    assert q.coeffs == tuple(expected)
    assert all(type(c) is F for c in q.coeffs)
    # q*v = f mod t^(t+1)
    f_known = list(f.coeffs[: t + 1]) + [F(0)] * (t + 1 - len(f.coeffs))
    assert poly_mul(q.coeffs, v.coeffs, t) == f_known[: t + 1]


@pytest.mark.parametrize(
    "f, v, prec",
    [
        (S({0: 1}), S({1: 1}), 5),  # v(0) = 0
        (S({0: 1}), Series.make([]), 5),  # v = 0
        (S({0: 1}), Series.make([0, 1], trunc=3), None),  # v(0) = 0, inexact
        (S({0: 1, 2: F(1, 3)}), S({0: F(2, 7), 1: 1}), None),  # exact, no prec
    ],
)
def test_divide_by_unit_value_errors(f, v, prec):
    with pytest.raises(ValueError):
        divide_by_unit_naive(f, v, prec)
    with pytest.raises(ValueError):
        divide_by_unit(f, v, prec)


def test_truncate():
    f = S({1: 1, 5: 1})
    g = truncate(f, 3)
    assert g.trunc == 3 and g.coeffs == (F(0), F(1), F(0), F(0))
    with pytest.raises(PrecisionExhausted):
        truncate(Series.make([1], trunc=2), 5)


def test_diffop_normalization():
    g = DiffOp.make([0, 1, 0])
    assert g.coeffs == (F(0), F(1))
    assert g.degree == 1
    assert DiffOp.make([]).degree == -1
    assert DiffOp.make([0, 0]).is_zero()
    assert DiffOp.make([0, 2, 0, 3]).support() == (1, 3)


def test_perp_basic():
    # perp(u^i, t^j) = i! when i = j, else 0
    for i in range(5):
        for j in range(5):
            expected = math.factorial(i) if i == j else 0
            assert perp(DiffOp.monomial(i), S({j: 1})) == expected


def test_perp_example():
    g = DiffOp.make([0, 0, 0, 1, F(-1, 4)])
    assert perp(g, S({3: 1, 4: 1})) == 0
    assert perp(g, S({3: 1})) == 6


def test_perp_insufficient_precision():
    g = DiffOp.monomial(4)
    with pytest.raises(PrecisionExhausted):
        perp(g, Series.make([0, 1], trunc=2))


coeff = st.fractions(min_value=-4, max_value=4, max_denominator=5)
poly = st.lists(coeff, min_size=0, max_size=6)


@given(poly, poly, poly)
@settings(max_examples=80, deadline=None)
def test_mul_distributes(a, b, c):
    fa, fb, fc = Series.make(a), Series.make(b), Series.make(c)
    lhs = mul(fa, fb + fc)
    rhs = mul(fa, fb) + mul(fa, fc)
    assert lhs.coeffs == rhs.coeffs


@given(poly, poly)
@settings(max_examples=80, deadline=None)
def test_mul_commutes(a, b):
    assert mul(Series.make(a), Series.make(b)).coeffs == mul(
        Series.make(b), Series.make(a)
    ).coeffs


@given(poly, poly)
@settings(max_examples=80, deadline=None)
def test_perp_is_bilinear(g_coeffs, f_coeffs):
    g = DiffOp.make(g_coeffs)
    f = Series.make(f_coeffs)
    expected = sum(
        (
            gi * math.factorial(i) * f.coeff(i)
            for i, gi in enumerate(g.coeffs)
        ),
        F(0),
    )
    assert perp(g, f) == expected
