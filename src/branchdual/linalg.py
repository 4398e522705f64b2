"""Exact linear algebra over the rationals.

:class:`Echelon` is the package's one elimination kernel: every row
reduction (staircases of subalgebras, operator spans, nullspaces and
linear solving) runs through it.  Dense matrices hold
``fractions.Fraction`` entries.  Everything is exact; no floating point
is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

Rational = Fraction

QZERO = Fraction(0)
QONE = Fraction(1)


class Echelon:
    """Row echelon accumulator for rows with columns 0..trunc.

    Rows are stored monic, keyed by pivot column: the first nonzero
    column of the row (for series mod t^(trunc+1), its order).
    ``missing`` tracks the columns with no pivot yet, which lets callers
    skip products that can only reduce to zero.
    """

    def __init__(self, trunc: int):
        self.trunc = trunc
        self.table = {}
        self.missing = set(range(trunc + 1))

    def pivots(self):
        return sorted(self.table)

    def complete_from(self, s: int) -> bool:
        """True when every column in [s, trunc] already has a pivot."""
        return all(m < s for m in self.missing)

    def reduce(self, coeffs, start: int = 0, full: bool = False):
        """Reduce a copy of ``coeffs``, cut or zero-padded to trunc+1 entries.

        Table rows are subtracted to clear pivot columns from ``start`` on,
        up to the first nonzero entry in a column without a pivot.  Returns
        (row, that column), or (row, None) when the row is zero from
        ``start`` on.  With ``full`` the scan goes on and clears every
        later pivot column too: the reduced row echelon step.
        """
        n = self.trunc + 1
        row = list(coeffs[:n])
        row += [QZERO] * (n - len(row))
        lead = None
        for j in range(start, n):
            f = row[j]
            if f == 0:
                continue
            pivot_row = self.table.get(j)
            if pivot_row is not None:
                row[j:] = [a - f * b for a, b in zip(row[j:], pivot_row[j:])]
            elif lead is None:
                lead = j
                if not full:
                    break
        return row, lead

    def insert_coeffs(self, coeffs):
        """Reduce a coefficient list; returns the new pivot column or None."""
        row, o = self.reduce(coeffs)
        if o is None:
            return None
        inv = QONE / row[o]
        self.table[o] = tuple(x * inv for x in row)
        self.missing.discard(o)
        return o

    def insert(self, f):
        """Insert a series by its coefficients."""
        return self.insert_coeffs(f.coeffs)

    def reduce_fully(self, o: int):
        """Row at pivot o with every other pivot column eliminated."""
        return self.reduce(self.table[o], o + 1, full=True)[0]


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
        entries = tuple(Fraction(x) for r in rows for x in r)
        return QMatrix(n, m, entries)

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return QMatrix.from_rows(
            [[QONE if i == j else QZERO for j in range(n)] for i in range(n)]
        )

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list:
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    def to_rows(self) -> list:
        return [self.row(i) for i in range(self.rows)]

    def transpose(self) -> "QMatrix":
        return QMatrix.from_rows(
            [[self.at(i, j) for i in range(self.rows)] for j in range(self.cols)]
        )

    def mul_vec(self, v) -> list:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return [
            sum((self.at(i, j) * v[j] for j in range(self.cols)), QZERO)
            for i in range(self.rows)
        ]


def _reduced_rows(rows, width: int):
    """Reduced row echelon rows of a row list, keyed by pivot column."""
    ech = Echelon(width - 1)
    for r in rows:
        ech.insert_coeffs(r)
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
    return QMatrix(M.rows, M.cols, tuple(x for r in rows for x in r)), list(reduced)


def rank(M: QMatrix) -> int:
    return len(rref(M)[1])


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
