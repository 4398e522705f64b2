"""Exact rational linear algebra."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from branchdual.linalg import (
    Echelon,
    QMatrix,
    _back_substitute,
    _clear,
    _dense,
    _integer_row,
    _reduced_rows,
    _sparse,
    nullspace,
    solve,
)
from branchdual.series import mul_coeffs

from oracles import _gauss_jordan, gauss_nullspace, reduced_per_column, span_rank

F = Fraction


def qmatrix(rows):
    """The ``QMatrix`` of a nonempty list of equal-length rows, its entries made ``Fraction``s."""
    return QMatrix(len(rows), len(rows[0]), tuple([F(x) for r in rows for x in r]))


def identity(n):
    return qmatrix([[int(i == j) for j in range(n)] for i in range(n)])


def mat_vec(M, v):
    return [sum((a * x for a, x in zip(M.row(i), v)), F(0)) for i in range(M.rows)]


def test_rref_identity():
    # the reduced row echelon form behind nullspace and solve: the identity is its own
    assert _reduced_rows(identity(3).to_rows(), 3) == dict(enumerate(identity(3).to_rows()))
    assert nullspace(identity(3)) == []


def test_rref_simple():
    gj, pivots = _gauss_jordan([[2, 4], [1, 2]], 2)
    reduced = _reduced_rows(qmatrix([[2, 4], [1, 2]]).to_rows(), 2)
    assert reduced == dict(zip(pivots, gj)) == {0: [F(1), F(2)]}  # one pivot, no zero row


def test_rank_matches_oracle():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    M = qmatrix(rows)
    assert M.cols - len(nullspace(M)) == span_rank(rows, 3)


def test_nullspace_simple():
    M = qmatrix([[1, 2, 3]])
    basis = nullspace(M)
    assert len(basis) == 2
    for v in basis:
        assert sum(M.row(0)[j] * v[j] for j in range(3)) == 0


def test_nullspace_full_rank_is_empty():
    assert nullspace(identity(4)) == []


def test_solve_unique():
    M = qmatrix([[2, 0], [0, 3]])
    x, null = solve(M, [4, 9])
    assert x == [F(2), F(3)]
    assert null == []


def test_solve_inconsistent():
    M = qmatrix([[1, 1], [1, 1]])
    assert solve(M, [1, 2]) is None


def test_solve_underdetermined():
    M = qmatrix([[1, 1, 0]])
    x, null = solve(M, [5])
    assert sum(a * b for a, b in zip(M.row(0), x)) == 5
    assert len(null) == 2


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
    M = qmatrix(rows)
    basis = nullspace(M)
    # every basis vector is an exact kernel element
    for v in basis:
        assert all(
            sum(M.row(i)[j] * v[j] for j in range(3)) == 0 for i in range(len(rows))
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
    M = qmatrix(rows)
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
        ech.insert_coeffs(_sparse(_integer_row(r, 7)))
    for p, row in ech.table.items():
        # sparse: {column: nonzero int} over columns 0..6
        assert isinstance(row, dict) and all(0 <= k < 7 for k in row)
        assert all(type(x) is int and x != 0 for x in row.values())
        assert min(row) == p and row[p] > 0
        assert math.gcd(*row.values()) == 1
    assert ech.filled == 7  # no fill: no column counts as a pivot but the table's
    reduced = ech.reduced()
    assert list(reduced) == sorted(ech.table)
    for p in sorted(ech.table):
        full = reduced[p]
        assert isinstance(full, tuple) and len(full) == 7
        assert all(type(x) is int for x in full)
        assert full[p] > 0 and math.gcd(*full) == 1
        assert all(full[q] == 0 for q in ech.table if q != p)
        for stop in range(p + 1, 8):  # the reduced rows cut at t^stop
            prefix = full[:stop]
            content = math.gcd(*prefix)
            assert _back_substitute(ech.table, [q for q in ech.table if q < stop], stop)[p] == tuple(
                [x // content for x in prefix])


def _fully_reduced_on_its_own(table, p, n):
    """The row at pivot p cut at n, every later pivot column cleared in
    Fraction arithmetic against the rows as inserted; primitive, positive at p."""
    row = [F(x) for x in table[p][:n]]
    for j in range(p + 1, len(row)):
        if row[j] and j in table:
            f = row[j] / table[j][j]
            row = [x - f * y for x, y in zip(row, table[j])]
    den = math.lcm(*[x.denominator for x in row])
    ints = [int(x * den) for x in row]
    content = math.gcd(*ints)
    return tuple([x // content for x in ints])


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.lists(st.integers(-20, 20), min_size=12, max_size=12), min_size=1, max_size=14),
    st.integers(0, 12),
)
def test_back_substitution_equals_per_row_full_reduction(rows, lo):
    # ``_back_substitute`` reduces each row against rows already fully
    # reduced; a row reduced on its own clears every later pivot column
    # against the rows as inserted.  The reduced echelon form is unique, so
    # they agree on the pivots >= lo, cut at every n, and both are the naive
    # Gauss-Jordan form of the rows, made primitive.
    ech = Echelon(11)
    for r in rows:
        ech.insert_coeffs(_sparse(r))
    table = {p: _dense(r, 12) for p, r in ech.table.items()}
    assert ech.reduced() == _back_substitute(ech.table, ech.table, 12)
    for width in range(1, 13):
        got = _back_substitute(ech.table, {p for p in ech.table if lo <= p < width}, width)
        assert list(got) == [p for p in sorted(ech.table) if lo <= p < width]
        assert all(got[p] == _fully_reduced_on_its_own(table, p, width) for p in got)
        gj, pivots = _gauss_jordan([r[:width] for r in rows], width)
        monic = {p: [F(x, got[p][p]) for x in got[p]] for p in got}
        assert monic == {p: r for p, r in zip(pivots, gj) if p in got}


int_rows = st.lists(st.integers(-9, 9), min_size=1, max_size=7)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(int_rows, int_rows, st.integers(1, 30)), min_size=1, max_size=8))
def test_int_product_rows_give_the_table_of_their_rational_copies(triples):
    # products of int rows go in as they are; the same rows as Fractions,
    # divided by d, have their denominators cleared on the rational path
    ints, rationals = Echelon(6), Echelon(6)
    for a, b, d in triples:
        row = mul_coeffs(_sparse(a), list(_sparse(b).items()), 7)
        ints.insert_coeffs(row)
        rationals.insert_coeffs(_sparse(_integer_row([F(x, d) for x in _dense(row, 7)], 7)))
    assert ints.table == rationals.table
    assert all(type(x) is int for row in ints.table.values() for x in row.values())


@st.composite
def sparse_row(draw, width):
    """A row {column: nonzero int} with nonzeros in 10-30 % of its width columns (at least one)."""
    k = draw(st.integers(max(1, width // 10), max(1, 3 * width // 10)))
    cols = draw(st.lists(st.integers(0, width - 1), min_size=k, max_size=k, unique=True))
    return {c: draw(st.integers(-9, 9).filter(bool)) for c in sorted(cols)}


@st.composite
def sparse_insertions(draw):
    """(width, rows inserted first, the lo of set_monomials(lo) or None, rows inserted after)."""
    width = draw(st.integers(1, 40))
    rows = st.lists(sparse_row(width), max_size=12)
    return width, draw(rows), draw(st.none() | st.integers(0, width)), draw(rows)


@settings(max_examples=150, deadline=None)
@given(sparse_insertions(), st.integers(0, 40))
def test_sparse_echelon_matches_gauss_jordan(case, lo):
    # mostly-zero rows, some of them inserted after the fill: the reduced form
    # of the table is the naive Gauss-Jordan form of the rows and monomials at
    # the table's pivots, the fill's monomials are its other pivots, and the
    # back-substitution of the table's rows at pivots >= lo cut at every n is
    # its rows there, as dense primitive int tuples.  The fill at mono cuts every
    # row below it at mono, and a fill above it changes nothing.  The
    # monomials are pivots with no stored row: no table pivot or column is at
    # or past mono, before and after rows with columns there go in
    width, before, mono, after = case
    ech = Echelon(width - 1)
    dense = []
    for r in before:
        copy = dict(r)
        ech.insert_coeffs(r)
        assert r == copy  # the caller's row is left as it is
        dense.append(_dense(r, width))
    assert ech.filled == width
    if mono is not None:
        ech.set_monomials(mono)
        dense += [[int(k == j) for k in range(width)] for j in range(mono, width)]
        assert ech.filled == mono
        assert all(k < mono for p, row in ech.table.items() if p < mono for k in row)
        assert all(p < mono for p in ech.table)
        table = {p: dict(row) for p, row in ech.table.items()}
        ech.set_monomials(mono + 1)
        assert ech.table == table and ech.filled == mono
        if mono < width:
            after = [{**r, width - 1: 3} for r in after]  # each carries a column >= mono
    for r in after:
        ech.insert_coeffs(r)
        dense.append(_dense(r, width))
    if mono is not None:
        assert all(p < mono and max(row) < mono for p, row in ech.table.items())
        assert ech.filled == mono  # [mono, width) are pivots with no row stored
    for p, row in ech.table.items():
        assert min(row) == p and row[p] > 0 and all(x != 0 for x in row.values())
    for stop in [None] + list(range(width + 1)):
        n = width if stop is None else stop
        gj, pivots = _gauss_jordan([r[:n] for r in dense], n)
        if stop is None:  # the whole form: the table's rows, and the fill's monomials, which have none
            got, want = ech.reduced(), dict(zip(pivots, gj))
            assert set(want) - set(got) == set(range(ech.filled, width))
            want = {p: r for p, r in want.items() if p in got}
        else:
            got = _back_substitute(ech.table, [p for p in ech.table if lo <= p < n], n)
            want = {p: r for p, r in zip(pivots, gj) if p >= lo and p in ech.table}
        assert list(got) == list(want)
        for p, row in got.items():
            assert isinstance(row, tuple) and len(row) == n
            assert all(type(x) is int for x in row)
            assert row[p] > 0 and math.gcd(*row) == 1
            assert [F(x, row[p]) for x in row] == want[p]


@settings(max_examples=200, deadline=None)
@given(sparse_insertions(), st.integers(0, 40), st.integers(1, 41))
def test_one_combination_per_row_equals_clearing_one_column_at_a_time(case, lo, stop):
    # ``_back_substitute`` clears all of a row's later pivot columns in one
    # integer combination; the oracle clears them one at a time, with a gcd
    # each.  Both give the unique primitive reduced rows, with and without a
    # fill, of every pivot and of the pivots >= lo cut at t^stop, and the
    # table is only read.  Products of the rows carry larger entries.
    width, before, mono, after = case
    ech = Echelon(width - 1)
    for r in before + [mul_coeffs(a, list(b.items()), width) for a, b in zip(before, before[1:])]:
        ech.insert_coeffs(r)
    if mono is not None:
        ech.set_monomials(mono)
    for r in after:
        ech.insert_coeffs(r)
    table = {p: dict(r) for p, r in ech.table.items()}
    n = min(stop, width)
    for pivots, m in [(ech.table, width), ([p for p in ech.table if lo <= p < n], n)]:
        assert _back_substitute(ech.table, pivots, m) == reduced_per_column(ech.table, pivots, m)
    assert ech.table == table


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 30).flatmap(lambda w: st.tuples(st.just(w), sparse_row(w), sparse_row(w))),
       st.integers(-9, 9).filter(bool))
def test_clear_removes_the_column_and_divides_out_the_content(case, r):
    # one elimination step: column j of the row cleared against b, a rational
    # multiple of row - (row_j / b_j) b with no zero entry; when b_j does not
    # divide the row's entry, the row was scaled and its content divided out
    width, row, b = case
    j = min(b)
    row = dict(row)
    row[j] = r * row.get(j, 1)
    got = _clear(dict(row), b, j)
    assert j not in got and all(x != 0 for x in got.values())
    exact = [F(x) - F(row[j], b[j]) * y for x, y in zip(_dense(row, width), _dense(b, width))]
    scale = next((F(g, x) for g, x in zip(_dense(got, width), exact) if x), None)
    assert [x * scale for x in exact] == _dense(got, width) if scale else not got
    if b[j] // math.gcd(b[j], row[j]) != 1 and got:
        assert math.gcd(*got.values()) == 1
