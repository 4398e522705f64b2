"""Staircase presentation and numerical invariants of subalgebras of k[[t]].

``closure`` turns a generator list into the canonical staircase of the
generated algebra: a reduced echelon basis mod t^c together with the value
semigroup window, conductor, delta and multiplicity.  On top of that sit
the Hilbert function, e1, and the blow-up chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import GeneratorError, InfiniteCodimension, InternalError, PrecisionExhausted
from .linalg import Echelon
from .series import Series, divide_by_unit, mul_coeffs, order

DEFAULT_TRUNC_CEILING = 512


@dataclass(frozen=True)
class AlgebraInput:
    """Generators of a subalgebra of k[[t]], each of positive order."""

    gens: tuple
    label: str = ""

    @staticmethod
    def make(gens, label="") -> "AlgebraInput":
        return AlgebraInput(tuple(gens), label)


@dataclass(frozen=True, eq=False)
class Staircase:
    """Canonical presentation of a finite-codimension subalgebra.

    ``basis`` holds one exact polynomial t^v + (gap tail) per value
    v in [0, c); together with the monomials t^j, j >= c, they span the
    algebra mod any power of t.
    """

    basis: tuple
    values: tuple
    conductor: int
    gaps: tuple
    delta: int
    e0: int
    work_trunc: int
    label: str = ""

    def __eq__(self, other):
        if not isinstance(other, Staircase):
            return NotImplemented
        return (
            self.conductor == other.conductor
            and self.values == other.values
            and tuple(b.coeffs for b in self.basis) == tuple(b.coeffs for b in other.basis)
        )

    def __hash__(self):
        return hash((self.conductor, self.values))

    def basis_by_order(self):
        return {order(b): b for b in self.basis}

    def positive_basis(self):
        return tuple([b for b in self.basis if order(b) and order(b) > 0])

    def is_whole_ring(self) -> bool:
        return self.delta == 0

    def algebra_generators(self):
        """Exact generators of the algebra: positive basis plus a monomial window.

        t^c..t^(c+e0-1) generate t^c k[[t]] over the algebra, since k[[t]]
        is free of rank e0 over the subring generated by a minimal-order
        element.
        """
        c = self.conductor
        if c == 0:
            return (Series.monomial(1),)
        gens = list(self.positive_basis())
        gens += [Series.monomial(j) for j in range(c, c + self.e0)]
        return tuple(gens)

    def maximal_ideal_spanning(self, bound: int):
        """Exact spanning set of the maximal ideal mod t^(bound+1)."""
        lo = max(self.conductor, 1)
        gens = [b for b in self.positive_basis() if order(b) <= bound]
        gens += [Series.monomial(j) for j in range(lo, bound + 1)]
        return gens


@dataclass(frozen=True)
class HilbertData:
    hf: tuple
    hf1: tuple
    e1: int


@dataclass(frozen=True)
class BlowupChain:
    steps: tuple  # (multiplicity, e1) per infinitely-near ring
    delta_check: int

    def multiplicities(self):
        return tuple(m for m, _ in self.steps)

    def e1_sequence(self):
        return tuple(e for _, e in self.steps)


class _Inconclusive(Exception):
    def __init__(self, required):
        self.required = required


def _positive_gens(A: AlgebraInput):
    gens = []
    for g in A.gens:
        o = order(g)
        if o is None:
            continue
        if o == 0:
            raise GeneratorError("generators must have positive order")
        gens.append(g)
    if not gens:
        raise GeneratorError("no nonzero generators")
    return gens


def closure(A: AlgebraInput, ceiling: int = DEFAULT_TRUNC_CEILING) -> Staircase:
    """Canonical staircase of the algebra generated by A.

    Works at an adaptive truncation, doubling until the conductor is
    certified by a run of e0 consecutive values.  Raises
    InfiniteCodimension when the value set stabilizes with gcd > 1, and
    PrecisionExhausted when the ceiling (or a generator's own truncation)
    is insufficient.
    """
    gens = _positive_gens(A)
    orders = [order(g) for g in gens]
    # Starting too small is cheap (we double), starting huge is not, so the
    # initial window looks only at the extreme generator orders.  Inexact
    # generators cap the window at their own truncation.
    cap = min((g.trunc for g in gens if not g.exact), default=ceiling)
    cap = min(cap, ceiling)
    w = min(max(4 * (min(orders) + max(orders)), 16), cap)
    # A gcd > 1 among the values seen in a small window is not yet evidence
    # of infinite codimension: cancellations between generators can reveal a
    # coprime value only at higher degree.  Treat gcd > 1 as conclusive only
    # once the window is comfortably past the generators' support.
    maxdeg = max(len(g.coeffs) - 1 for g in gens)
    gcd_window = max(64, 2 * maxdeg + 2, 4 * (min(orders) + max(orders)))
    while True:
        try:
            return _closure_at(gens, w, A.label, gcd_window)
        except _Inconclusive as ex:
            if w >= cap:
                raise PrecisionExhausted(
                    ex.required, f"truncation limit {cap} reached; need {ex.required}"
                )
            w = min(max(2 * w, ex.required), cap)


def _closure_at(gens, w: int, label: str, gcd_window: int) -> Staircase:
    ech = Echelon(w)
    ech.insert(Series.one(w))
    queue = []
    for g in gens:
        p = ech.insert(g.extended(w))
        if p is not None:
            queue.append(p)
    while queue:
        o1 = queue.pop()
        if o1 not in ech.table:
            continue
        a = ech.table[o1]
        for o2 in ech.pivots():
            if o2 == 0 or o1 + o2 > w:
                continue
            if ech.complete_from(o1 + o2):
                continue
            b = ech.table[o2]
            prod = mul_coeffs(a, b, w + 1)
            p = ech.insert_coeffs(prod)
            if p is not None:
                queue.append(p)

    pivots = set(ech.table)
    positive = sorted(p for p in pivots if p > 0)
    if not positive:
        # The window lies below every generator's order: nothing seen yet.
        raise _Inconclusive(max(order(g) for g in gens))
    g = 0
    for p in positive:
        g = math.gcd(g, p)
    if g > 1:
        if w >= gcd_window:
            raise InfiniteCodimension(g, positive)
        raise _Inconclusive(max(gcd_window, w + 1))

    if 1 in pivots:
        return Staircase(
            basis=(Series.one(),),
            values=(0,),
            conductor=0,
            gaps=(),
            delta=0,
            e0=1,
            work_trunc=w,
            label=label,
        )

    gaps = tuple([i for i in range(1, w + 1) if i not in pivots])
    c = gaps[-1] + 1
    e0 = positive[0]
    if c + e0 - 1 > w or any(j not in pivots for j in range(c, c + e0)):
        raise _Inconclusive(2 * w)

    values = tuple([p for p in sorted(pivots) if p < c])
    basis = []
    for v in values:
        row = ech.reduce_fully(v)
        basis.append(Series.make(row[:c], None))
    return Staircase(
        basis=tuple(basis),
        values=values,
        conductor=c,
        gaps=gaps,
        delta=len(gaps),
        e0=e0,
        work_trunc=w,
        label=label,
    )


def membership(f: Series, S: Staircase) -> bool:
    """Whether f lies in the algebra (decided mod t^c, since t^c k[[t]] is inside).

    f is reduced against the staircase basis, which is monic with one row
    per value and so is a pivot table as it stands.
    """
    c = S.conductor
    if c == 0:
        return True
    if f.eff_trunc < c - 1:
        raise PrecisionExhausted(c - 1)
    ech = Echelon(c - 1)
    for b in S.basis:
        ech.insert(b)
    return ech.reduce(f.coeffs)[1] is None


def hilbert(A: AlgebraInput, S: Staircase) -> HilbertData:
    """Hilbert function of the local ring, its partial sums, and e1.

    dim(B/m^(i+1)) is counted through value sets: powers of the maximal
    ideal are spanned by products of the staircase spanning set, reduced
    to echelon form inside a window past their own conductor.
    """
    c, e0 = S.conductor, S.e0
    cap = 4 * S.delta + 8
    i_cap = 4
    while True:
        T = c + (i_cap + 1) * e0 + 2
        hf1 = _hilbert_window(S, T, i_cap)
        for i in range(2, len(hf1)):
            if hf1[i] - hf1[i - 1] == e0 and hf1[i - 1] - hf1[i - 2] == e0:
                hf1 = hf1[: i + 1]
                hf = [hf1[0]] + [hf1[k] - hf1[k - 1] for k in range(1, len(hf1))]
                e1 = e0 * (i + 1) - hf1[i]
                return HilbertData(tuple(hf), tuple(hf1), e1)
        if i_cap > cap:
            raise InternalError("Hilbert function failed to stabilize")
        i_cap *= 2


def _hilbert_window(S: Staircase, T: int, i_cap: int):
    """Partial sums HF1(0..i_cap) computed in the window [0, T)."""
    dim_b = len(S.values) + (T - max(S.conductor, 1))
    span = S.maximal_ideal_spanning(T - 1)
    m1 = Echelon(T - 1)
    for s in span:
        m1.insert(s.extended(T - 1))
    m1_rows = sorted(m1.table.items())
    cur = m1
    hf1 = [dim_b - len(cur.table)]
    for _ in range(i_cap):
        nxt = Echelon(T - 1)
        for o1 in cur.pivots():
            a = cur.table[o1]
            for o2, row in m1_rows:
                if o1 + o2 > T - 1 or nxt.complete_from(o1 + o2):
                    continue
                nxt.insert_coeffs(mul_coeffs(a, row, T))
        cur = nxt
        hf1.append(dim_b - len(cur.table))
    return hf1


def blowup(A: AlgebraInput, S: Staircase, prec: int | None = None) -> AlgebraInput:
    """Generators of the local ring in the first infinitely-near point.

    Divides the maximal-ideal spanning set by a minimal-order element and
    recenters by dropping constant terms.
    """
    if S.delta == 0:
        raise ValueError("nothing to blow up: the algebra is all of k[[t]]")
    c, e0 = S.conductor, S.e0
    if prec is None:
        prec = max(2 * c + 16, 32)
    table = S.basis_by_order()
    f0 = table[e0] if e0 in table else Series.monomial(e0)
    u0 = Series.make(list(f0.coeffs[e0:]), None)
    span = S.positive_basis() + tuple(Series.monomial(j) for j in range(c, c + e0))
    new_gens = list(S.algebra_generators())
    for e in span:
        v = order(e)
        unit_e = Series.make(list(e.coeffs[v:]), None)
        q = divide_by_unit(unit_e, u0, prec=prec)
        coeffs = [0] * (v - e0) + list(q.coeffs)
        coeffs[0] = 0  # recenter: drop the constant term
        g = Series.make(coeffs, prec + (v - e0))
        if order(g) is not None:
            new_gens.append(g)
    return AlgebraInput(tuple(new_gens), label=(A.label + "'") if A.label else "blowup")


def blowup_chain(A: AlgebraInput, ceiling: int = DEFAULT_TRUNC_CEILING) -> BlowupChain:
    """Multiplicity and e1 sequence along the resolution by blow-ups."""
    S = closure(A, ceiling)
    if S.delta == 0:
        return BlowupChain((), 0)
    root_delta = S.delta
    steps = []
    curA, curS = A, S
    while True:
        h = hilbert(curA, curS)
        steps.append((curS.e0, h.e1))
        if curS.e0 == 1:
            break
        prec = max(2 * curS.conductor + 16, 32)
        while True:
            try:
                nxtA = blowup(curA, curS, prec)
                nxtS = closure(nxtA, ceiling=max(ceiling, prec))
                break
            except PrecisionExhausted as ex:
                prec = max(2 * prec, ex.required + 8)
        curA, curS = nxtA, nxtS
    total = sum(e for _, e in steps)
    if total != root_delta:
        raise InternalError(
            f"blow-up chain e1 sum {total} does not match delta {root_delta}"
        )
    return BlowupChain(tuple(steps), total)

