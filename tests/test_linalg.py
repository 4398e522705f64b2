"""Exact rational linear algebra."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchdual.linalg import Echelon, QMatrix, _integer_row, nullspace, rref, solve
from branchdual.series import mul_coeffs

from oracles import gauss_nullspace, span_rank

F = Fraction


def identity(n):
    return QMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])


def mat_vec(M, v):
    return [sum((M.at(i, j) * v[j] for j in range(M.cols)), F(0)) for i in range(M.rows)]


def test_rref_identity():
    M = identity(3)
    R, pivots = rref(M)
    assert R == M
    assert pivots == [0, 1, 2]


def test_rref_simple():
    M = QMatrix.from_rows([[2, 4], [1, 2]])
    R, pivots = rref(M)
    assert pivots == [0]
    assert R.row(0) == [F(1), F(2)]
    assert R.row(1) == [F(0), F(0)]


def test_rank_matches_oracle():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert len(rref(QMatrix.from_rows(rows))[1]) == span_rank(rows, 3)


def test_nullspace_simple():
    M = QMatrix.from_rows([[1, 2, 3]])
    basis = nullspace(M)
    assert len(basis) == 2
    for v in basis:
        assert sum(M.at(0, j) * v[j] for j in range(3)) == 0


def test_nullspace_full_rank_is_empty():
    assert nullspace(identity(4)) == []


def test_solve_unique():
    M = QMatrix.from_rows([[2, 0], [0, 3]])
    x, null = solve(M, [4, 9])
    assert x == [F(2), F(3)]
    assert null == []


def test_solve_inconsistent():
    M = QMatrix.from_rows([[1, 1], [1, 1]])
    assert solve(M, [1, 2]) is None


def test_solve_underdetermined():
    M = QMatrix.from_rows([[1, 1, 0]])
    x, null = solve(M, [5])
    assert sum(a * b for a, b in zip(M.row(0), x)) == 5
    assert len(null) == 2


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        QMatrix.from_rows([[1, 2], [3]])


small_fraction = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


@given(
    st.lists(
        st.lists(small_fraction, min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=60, deadline=None)
def test_nullspace_property(rows):
    M = QMatrix.from_rows(rows)
    basis = nullspace(M)
    # every basis vector is an exact kernel element
    for v in basis:
        assert all(
            sum(M.at(i, j) * v[j] for j in range(3)) == 0 for i in range(len(rows))
        )
    # rank-nullity, cross-checked against the independent elimination
    assert len(basis) == 3 - span_rank(rows, 3)
    oracle = gauss_nullspace(rows, 3)
    assert len(basis) == len(oracle)


@given(
    st.lists(
        st.lists(small_fraction, min_size=2, max_size=2),
        min_size=2,
        max_size=3,
    ),
    st.lists(small_fraction, min_size=2, max_size=2),
)
@settings(max_examples=60, deadline=None)
def test_solve_property(rows, x_true):
    M = QMatrix.from_rows(rows)
    b = mat_vec(M, x_true)
    res = solve(M, b)
    assert res is not None
    x, _ = res
    assert mat_vec(M, x) == b


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(
            st.fractions(min_value=-50, max_value=50, max_denominator=60),
            min_size=0,
            max_size=9,
        ),
        min_size=1,
        max_size=8,
    )
)
def test_echelon_rows_are_primitive_integer_rows(rows):
    ech = Echelon(6)
    for r in rows:
        ech.insert_coeffs(_integer_row(r, 7))
    for p, row in ech.table.items():
        assert isinstance(row, tuple) and len(row) == 7
        assert all(type(x) is int for x in row)
        assert all(x == 0 for x in row[:p]) and row[p] > 0
        assert math.gcd(*row) == 1
    for s in range(8):
        assert ech.complete_from(s) == all(j in ech.table for j in range(s, 7))
    for p in ech.pivots():
        full = ech.reduce_fully(p)
        assert all(type(x) is int for x in full)
        assert full[p] > 0 and math.gcd(*full) == 1
        assert all(full[q] == 0 for q in ech.table if q != p)
        for stop in range(p + 1, 8):
            prefix = full[:stop]
            content = math.gcd(*prefix)
            assert ech.reduce_fully(p, stop) == tuple([x // content for x in prefix])


int_rows = st.lists(st.integers(-9, 9), min_size=1, max_size=7)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(int_rows, int_rows, st.integers(1, 30)), min_size=1, max_size=8))
def test_int_product_rows_give_the_table_of_their_rational_copies(triples):
    # products of int rows go in as they are; the same rows as Fractions,
    # divided by d, have their denominators cleared on the rational path
    ints, rationals = Echelon(6), Echelon(6)
    for a, b, d in triples:
        row = mul_coeffs(a, b, 7)
        ints.insert_coeffs(row)
        rationals.insert_coeffs(_integer_row([F(x, d) for x in row], 7))
    assert ints.table == rationals.table
    assert all(type(x) is int for row in ints.table.values() for x in row)
