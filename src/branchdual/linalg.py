"""Exact linear algebra over the rationals.

:class:`Echelon` is the package's one elimination kernel.  It is
fraction-free and sparse: a row is a dict ``{column: nonzero int}``,
reduced by integer combinations (Bareiss) with the content divided out,
touching only the columns where the row or its pivot row is nonzero.  A
rational row has its denominators cleared once, by ``_integer_row``, and
a dense row is made sparse once, by ``_sparse``, where it enters;
a generator's int row is cached on its ``Series``, and the blow-up chain's
rows stay int from one staircase to the next.  Products of sparse int rows
(``series.mul_coeffs``) go straight in.  ``Echelon.set_monomials(lo)``
is the fill ``closure`` and ``hilbert`` share: t^lo..t^trunc become
pivots with no stored row, every row is cut at t^lo, and ``filled``
records where callers cut later products (its docstring proves no span
changes).
The reduced rows leave as dense primitive int tuples; ``_rational_row``
makes one exact rationals (``fractions.Fraction``).  ``rref``, ``nullspace``
and ``solve`` reduce ``Fraction`` matrices (:class:`QMatrix`) through the
same kernel, but no engine path calls them: :class:`QMatrix`, a read-only
record (``errors._Record``) that checks its entry count, only carries
the matrix M of ``transport_dual``'s report; transport composes int rows
and solves nothing.  No floating point is used anywhere.

Tuples built on hot paths, such as the rows ``reduced`` returns, come
from lists, not generators.  CPython builds a tuple from a generator by
resizing a 10-slot one, and frees the result onto the free list of its
final size, so those free lists fill up to 2,000 tuples each and keep
them until a full garbage collection, which integer rows, unlike
``Fraction`` rows, almost never trigger.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import _Record

QZERO = Fraction(0)
QONE = Fraction(1)


def _integer_row(coeffs, n: int) -> list:
    """Rational ``coeffs`` cut or zero-padded to n entries, times the lcm of their denominators."""
    row = list(coeffs[:n])
    row += [0] * (n - len(row))
    den = math.lcm(*[x.denominator for x in row if x])
    return [x.numerator * (den // x.denominator) if x else 0 for x in row]


def _sparse(row) -> dict:
    """The nonzero entries of a dense row, keyed by column, by increasing column."""
    return {k: x for k, x in enumerate(row) if x}


def _dense(row: dict, n: int) -> list:
    """The sparse row as a list of n entries, 0 where it has none."""
    out = [0] * n
    for k, x in row.items():
        out[k] = x
    return out


def _primitive(row, o: int) -> tuple:
    """The dense int row divided by its content, positive at column o."""
    content = math.gcd(*row) * (-1 if row[o] < 0 else 1)
    return tuple(row) if content == 1 else tuple([a // content for a in row])


def _primitive_sparse(row: dict, o: int) -> dict:
    """The sparse int row divided by its content, positive at column o."""
    content = math.gcd(*row.values()) * (-1 if row[o] < 0 else 1)
    return row if content == 1 else {k: x // content for k, x in row.items()}


def _clear(row: dict, b: dict, j: int) -> dict:
    """The sparse int row with column j cleared by an integer combination with b.

    b is zero before j and nonzero at j.  The result is a rational multiple
    of row - (row_j / b_j) b; an entry that becomes 0 is deleted.  row itself
    may be changed.
    """
    p, r = b[j], row[j]
    g = math.gcd(p, r)
    p //= g
    r //= g
    if p != 1:
        row = {k: p * x for k, x in row.items()}
    for k, y in b.items():
        x = row.get(k, 0) - r * y
        if x:
            row[k] = x
        else:
            del row[k]  # x = 0 != r * y: row had an entry at k
    if p != 1:
        content = math.gcd(*row.values())
        if content > 1:
            return {k: x // content for k, x in row.items()}
    return row


def _rational_row(row, o: int) -> list:
    """The int row divided by its entry at column o, as exact rationals."""
    return [Fraction(a, row[o]) if a else QZERO for a in row]


def _back_substitute(table: dict, pivots, n: int) -> dict:
    """Back-substitution: each pivot p of ``pivots``, all below n, -> the
    dense primitive int tuple, of n entries and positive at p, of the
    reduced echelon form of the rows ``table[p]`` (sparse, zero before p,
    nonzero at p) cut at t^n, by increasing p.  The rows go from the
    highest pivot down, and the table is only read.  A row at p meets only
    pivots above p, so the table's pivots >= lo give the rows there of the
    whole table's reduced form cut at t^n.

    One combination per row.  With O the rows done (at the pivots above p),
    P_q = out_q[q] > 0, Q the pivots of O at which the cut row r is nonzero
    and M = lcm over Q of P_q / gcd(P_q, r_q), each M r_q / P_q is an int,
    and the row becomes M r - sum over Q of (M r_q / P_q) out_q, its content
    divided out.  Proof.  out_q is zero before q > p and at O's other
    pivots, so each term changes, among column p and O's pivots, only
    column q, where it cancels M r_q: the clears do not interact.  The
    result lies in the span U of the cut rows, is zero before p and at U's
    other pivots, and is M r_p != 0 at p: a multiple of U's unique reduced
    row at p.  ``_clear`` per column reaches the same primitive row, with a
    rescale and a gcd per column instead of one per row.
    """
    out = {}
    for p in sorted(pivots, reverse=True):
        row = table[p]
        qs = [q for q in row if q in out]
        m = math.lcm(*[out[q][q] // math.gcd(out[q][q], row[q]) for q in qs]) if qs else 1
        s = {k: m * x for k, x in row.items() if k < n}
        for q in qs:
            a = m * row[q] // out[q][q]
            for k, y in out[q].items():
                x = s.get(k, 0) - a * y
                if x:
                    s[k] = x
                else:
                    del s[k]  # x = 0 != a * y: s had an entry at k
        out[p] = _primitive_sparse(s, p)
    return {p: tuple(_dense(out[p], n)) for p in reversed(out)}


class Echelon:
    """Row echelon accumulator for sparse int rows with columns 0..trunc.

    A row is a dict ``{column: nonzero int}``.  Table rows are primitive
    (gcd 1, positive leading entry), keyed by pivot column: the least
    column of the row (for series mod t^(trunc+1), its order).  ``filled``
    is the least lo of a fill (``set_monomials``), trunc+1 before any:
    every column in [filled, trunc] is a pivot, of the monomial there,
    with no row stored, and no table row has a column at or past it.  It
    is the one record of where the table is complete: ``closure`` and
    ``hilbert`` fill where no pivot lies just below ``filled`` (proof in
    ``subalgebra._closure_at``), so they skip every product of order
    >= filled, which can only reduce to zero, and no other.
    """

    def __init__(self, trunc: int):
        self.trunc = trunc
        self.table = {}
        self.filled = trunc + 1

    def reduce(self, coeffs: dict):
        """Reduce ``coeffs``, a sparse int row with columns in 0..trunc.

        Integer combinations with table rows clear its pivot columns up to
        its least column without a pivot.  Returns (row, that column), or
        (row, None) when the row reduces to zero, or to a row whose least
        column is at or past ``filled`` (a combination of the monomials
        there); the row is a rational multiple of the reduced input, which
        is left as it is.
        """
        row = dict(coeffs)
        while row:
            j = min(row)
            if j >= self.filled:
                break
            pivot_row = self.table.get(j)
            if pivot_row is None:
                return row, j
            row = _clear(row, pivot_row, j)
        return row, None

    def insert_coeffs(self, coeffs: dict):
        """Reduce a sparse int row with columns in 0..trunc and store it cut
        at ``filled``; returns the new pivot column or None."""
        row, o = self.reduce(coeffs)
        if o is None:
            return None
        if self.filled <= self.trunc and max(row) >= self.filled:  # products come cut already
            row = {k: x for k, x in row.items() if k < self.filled}
        self.table[o] = _primitive_sparse(row, o)
        return o

    def reduced(self) -> dict:
        """The reduced echelon form: each pivot p, by increasing p, -> its
        dense primitive int row of trunc+1 entries with every other pivot
        column eliminated, by ``_back_substitute`` over the table.  The
        pivots from ``filled`` on are their monomials: no table row has a
        column there.  The table is only read.
        """
        n = self.trunc + 1
        return _back_substitute(self.table, self.table, n) | {
            p: tuple([0] * p + [1] + [0] * (n - 1 - p)) for p in range(self.filled, n)}

    def set_monomials(self, lo: int):
        """The fill: t^lo..t^trunc become the pivots lo..trunc, with no row
        stored (the table rows there are dropped), every other row with a
        column >= lo is cut at t^lo and made primitive again (its pivot
        stays), and ``filled`` becomes lo.  Nothing when lo >= ``filled``.

        For a caller that knows t^lo..t^trunc lie in the space it builds.
        A row dropped or cut differs from the monomial or the new row at
        its pivot by a combination of t^lo..t^trunc, which now lie in the
        span: the span only grows, and stays in that space.  So a row
        reduced to one whose least column is >= lo is zero, every row
        stored later is cut at ``filled``, and the caller may cut at
        ``filled`` every product it forms, too.
        """
        if lo >= self.filled:
            return
        for q, r in list(self.table.items()):
            if q >= lo:
                del self.table[q]
            elif max(r) >= lo:
                self.table[q] = _primitive_sparse({k: x for k, x in r.items() if k < lo}, q)
        self.filled = lo


class QMatrix(_Record):
    """Dense row-major rational matrix."""

    def __init__(self, rows: int, cols: int, entries: tuple):
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match rows*cols")
        self.__dict__.update(rows=rows, cols=cols, entries=entries)

    @staticmethod
    def from_rows(rows) -> "QMatrix":
        rows = [list(r) for r in rows]
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        return QMatrix(len(rows), m, tuple([Fraction(x) for r in rows for x in r]))

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list:
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    def to_rows(self) -> list:
        return [self.row(i) for i in range(self.rows)]


def _reduced_rows(rows, width: int):
    """Reduced row echelon rows of a row list, keyed by pivot column."""
    ech = Echelon(width - 1)
    for r in rows:
        ech.insert_coeffs(_sparse(_integer_row(r, width)))
    return {p: _rational_row(r, p) for p, r in ech.reduced().items()}


def _kernel(reduced, n: int):
    """Nullspace basis in the first n columns, one vector per free column."""
    basis = []
    for fc in range(n):
        if fc in reduced:
            continue
        v = [QZERO] * n
        v[fc] = QONE
        for pc, row in reduced.items():
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def rref(M: QMatrix):
    """Reduced row echelon form.  Returns (R, pivot column indices)."""
    reduced = _reduced_rows(M.to_rows(), M.cols)
    rows = list(reduced.values()) + [[QZERO] * M.cols] * (M.rows - len(reduced))
    return QMatrix(M.rows, M.cols, tuple([x for r in rows for x in r])), list(reduced)


def nullspace(M: QMatrix):
    """Basis of {x : Mx = 0}, one vector per free column (set to 1)."""
    return _kernel(_reduced_rows(M.to_rows(), M.cols), M.cols)


def solve(M: QMatrix, b):
    """Solve Mx = b exactly.

    Returns (particular solution, nullspace basis) or None when the
    system is inconsistent.
    """
    if len(b) != M.rows:
        raise ValueError("dimension mismatch between matrix and right-hand side")
    reduced = _reduced_rows(
        [M.row(i) + [Fraction(b[i])] for i in range(M.rows)], M.cols + 1
    )
    if M.cols in reduced:
        return None
    x = [QZERO] * M.cols
    for pc, row in reduced.items():
        x[pc] = row[M.cols]
    return x, _kernel(reduced, M.cols)
