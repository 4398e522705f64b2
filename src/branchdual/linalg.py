"""Exact linear algebra over the rationals.

:class:`Echelon` is the package's one elimination kernel.  It is
fraction-free: rows are Python ints, reduced by integer combinations
(Bareiss) with the content divided out.  A rational row has its
denominators cleared once, by ``_integer_row``, where it enters; products
of int rows (``series.mul_coeffs``) go straight in.  Results leave as
exact rationals (``fractions.Fraction``).  ``rref``, ``nullspace`` and
``solve`` reduce ``Fraction`` matrices (:class:`QMatrix`) through the same
kernel, but no engine path calls them: :class:`QMatrix` only carries
``transport_dual``'s matrix.  No floating point is used anywhere.

Tuples built on hot paths come from lists, not generators.  CPython
builds a tuple from a generator by resizing a 10-slot one, and frees the
result onto the free list of its final size, so those free lists fill up
to 2,000 tuples each and keep them until a full garbage collection,
which integer rows, unlike ``Fraction`` rows, almost never trigger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

QZERO = Fraction(0)
QONE = Fraction(1)


def _integer_row(coeffs, n: int) -> list:
    """Rational ``coeffs`` cut or zero-padded to n entries, times the lcm of their denominators."""
    row = list(coeffs[:n])
    row += [0] * (n - len(row))
    den = math.lcm(*[x.denominator for x in row if x])
    return [x.numerator * (den // x.denominator) if x else 0 for x in row]


class Echelon:
    """Row echelon accumulator for rows with columns 0..trunc.

    Rows are stored as primitive integer tuples (gcd 1, positive leading
    entry), keyed by pivot column: the first nonzero column of the row
    (for series mod t^(trunc+1), its order).  The highest column with no
    pivot yet is kept, which lets callers skip products that can only
    reduce to zero.
    """

    def __init__(self, trunc: int):
        self.trunc = trunc
        self.table = {}
        self._free_top = trunc

    def pivots(self):
        return sorted(self.table)

    def complete_from(self, s: int) -> bool:
        """True when every column in [s, trunc] already has a pivot."""
        return self._free_top < s

    def reduce(self, coeffs, start: int = 0, full: bool = False):
        """Reduce ``coeffs``, an int row of at most trunc+1 entries.

        Integer combinations with table rows clear pivot columns from
        ``start`` on, up to the first nonzero entry in a column without a
        pivot.  Returns (row, that column), or (row, None) when the row is
        zero from ``start`` on; the row is a rational multiple of the
        reduced input.  With ``full`` the scan goes on and clears every
        later pivot column too: the reduced row echelon step.  A row of n
        entries is reduced as the first n columns of the table: a table
        row touches no column before its pivot, so the rest cannot matter.
        """
        row = list(coeffs)
        n = len(row)
        lo = next((i for i, x in enumerate(row) if x), n)  # row is zero before lo
        lead = None
        for j in range(max(start, lo), n):
            r = row[j]
            if not r:
                continue
            pivot_row = self.table.get(j)
            if pivot_row is None:
                if lead is None:
                    lead = j
                    if not full:
                        break
                continue
            p = pivot_row[j]
            g = math.gcd(p, r)
            p //= g
            r //= g
            if p == 1:
                row[j:] = [a - r * b for a, b in zip(row[j:], pivot_row[j:])]
            else:
                # pivot_row is zero before j, so this also scales row[lo:j]
                row[lo:] = [p * a - r * b for a, b in zip(row[lo:], pivot_row[lo:])]
                content = math.gcd(*row)
                if content > 1:
                    row = [a // content for a in row]
            if lo == j:
                lo = j + 1
        return row, lead

    def insert_coeffs(self, coeffs):
        """Reduce an int row of trunc+1 entries; returns the new pivot column or None."""
        row, o = self.reduce(coeffs)
        if o is None:
            return None
        content = math.gcd(*row)
        if row[o] < 0:
            content = -content
        if content != 1:
            row = [a // content for a in row]
        self.table[o] = tuple(row)
        while self._free_top in self.table:
            self._free_top -= 1
        return o

    def insert(self, f):
        """Insert a series by its coefficients, cut or zero-padded to trunc+1."""
        return self.insert_coeffs(_integer_row(f.coeffs, self.trunc + 1))

    def reduce_fully(self, o: int, stop: int | None = None):
        """Monic rational row at pivot o with every other pivot column eliminated.

        With ``stop`` only columns 0..stop-1 are reduced and returned: the
        row of the reduced echelon form cut at t^stop, with none of the
        work on the columns past it.
        """
        row = self.reduce(self.table[o][:stop], o + 1, full=True)[0]
        lead = row[o]
        return [Fraction(a, lead) if a else QZERO for a in row]

    def set_monomials(self, lo: int, hi: int):
        """Make t^lo..t^(hi-1) the rows at pivots lo..hi-1, with no reduction.

        For a caller that knows these monomials lie in the space it builds
        and that t^hi..t^trunc are in the span already: each row replaced
        has order >= lo, so the span only grows, and stays in that space.
        """
        n = self.trunc + 1
        for k in range(lo, hi):
            self.table[k] = (0,) * k + (1,) + (0,) * (n - 1 - k)
        while self._free_top in self.table:
            self._free_top -= 1


@dataclass(frozen=True)
class QMatrix:
    """Dense row-major rational matrix."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match rows*cols")

    @staticmethod
    def from_rows(rows) -> "QMatrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        entries = tuple([Fraction(x) for r in rows for x in r])
        return QMatrix(n, m, entries)

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
        ech.insert_coeffs(_integer_row(r, width))
    return {p: ech.reduce_fully(p) for p in ech.pivots()}


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
