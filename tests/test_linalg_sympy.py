"""Differential test: the reduced row echelon form behind nullspace and solve
(``linalg._reduced_rows``), nullspace and solve agree exactly with sympy.

sympy's exact Matrix routines are an elimination written independently of
the package's Echelon kernel, with the same conventions: reduced row
echelon form is unique, a nullspace vector sets one free column to 1 and
the others to 0, and the particular solution sets every free column to 0.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from branchdual.linalg import QMatrix, _reduced_rows, nullspace, solve

from test_linalg import qmatrix

sympy = pytest.importorskip("sympy")

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=5)
# Large primes: entries over them have big, pairwise coprime denominators,
# so clearing denominators on entry gives long integers.
PRIMES = (10007, 65537, 999983, 2147483647, 2305843009213693951)
coprime = st.builds(Fraction, st.integers(-10**12, 10**12), st.sampled_from(PRIMES))


def _vectors(draw, count, size, entries=fractions):
    return draw(st.lists(st.lists(entries, min_size=size, max_size=size),
                         min_size=count, max_size=count))


@st.composite
def systems(draw, entries=fractions):
    """(M, b) with M = C·B, B a random reduced row echelon form.

    The pivot columns of B are drawn, so every rank 0..min(n, m) and every
    pivot pattern occurs, free columns between pivots included.  b is M·x
    (consistent) or random (inconsistent whenever it leaves the column
    space).  ``entries`` draws the entries of B, C, x and b.
    """
    sparse = st.one_of(st.just(Fraction(0)), entries)
    n = draw(st.integers(0, 4))
    m = draw(st.integers(1, 4))
    rank = draw(st.integers(0, min(n, m)))
    pivots = sorted(draw(st.permutations(range(m)))[:rank])
    basis = []
    for p in pivots:
        row = [Fraction(0)] * m
        row[p] = Fraction(1)
        for j in range(p + 1, m):
            if j not in pivots:
                row[j] = draw(sparse)
        basis.append(row)
    mix = _vectors(draw, n, len(basis), entries)
    rows = [[sum((c * b[j] for c, b in zip(mix[i], basis)), Fraction(0))
             for j in range(m)] for i in range(n)]
    if draw(st.booleans()):
        x = _vectors(draw, 1, m, entries)[0]
        rhs = [sum((a * y for a, y in zip(row, x)), Fraction(0)) for row in rows]
    else:
        rhs = _vectors(draw, 1, n, entries)[0]
    return QMatrix(n, m, tuple(x for row in rows for x in row)), rhs


def _sympy(entries, rows, cols):
    return sympy.Matrix(rows, cols, [sympy.Rational(x.numerator, x.denominator)
                                     for x in entries])


def _fractions(vector):
    return [Fraction(int(x.p), int(x.q)) for x in vector]


@given(systems())
@example((QMatrix(0, 3, ()), []))  # no rows: the nullspace is the identity basis
@example((qmatrix([[0, 0, 0], [0, 0, 0]]), [0, 0]))  # rank 0, consistent
@example((qmatrix([[0, 0, 0], [0, 0, 0]]), [0, 1]))  # rank 0, inconsistent
@example((qmatrix([[2, 1], [1, 3]]), [1, 1]))  # full rank
@example((qmatrix([[1, 1], [2, 2]]), [1, 3]))  # inconsistent
@example((qmatrix([[1, 1, 1], [0, 0, 1]]), [1, 1]))  # free column before a pivot
@settings(max_examples=150, deadline=None)
def test_rref_nullspace_solve_match_sympy(system):
    _check_against_sympy(*system)


@given(systems(coprime))
@example((qmatrix([[Fraction(3, 10007), Fraction(-5, 65537), Fraction(7, 999983)],
                   [Fraction(1, 2147483647), Fraction(2, 10007), Fraction(-1, 65537)]]),
          [Fraction(1, 2305843009213693951), Fraction(4, 999983)]))
@settings(max_examples=100, deadline=None)
def test_coprime_denominators_match_sympy(system):
    _check_against_sympy(*system)


def _check_against_sympy(M, rhs):
    S = _sympy(M.entries, M.rows, M.cols)
    SR, spivots = S.rref()
    reduced = _reduced_rows(M.to_rows(), M.cols)
    assert list(reduced) == list(spivots)
    rows = list(reduced.values()) + [[0] * M.cols] * (M.rows - len(reduced))  # sympy keeps the zero rows
    assert [x for r in rows for x in r] == _fractions(SR)
    kernel = [_fractions(v) for v in S.nullspace()]
    assert nullspace(M) == kernel

    res = solve(M, rhs)
    try:
        sol, params = S.gauss_jordan_solve(_sympy(rhs, M.rows, 1))
    except ValueError:  # sympy: "Linear system has no solution"
        assert res is None
        return
    assert res is not None
    x, null = res
    assert x == _fractions(sol.subs({p: 0 for p in params}))
    assert null == kernel
