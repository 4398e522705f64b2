"""Staircase presentation and numerical invariants of subalgebras of k[[t]].

``closure`` turns a generator list into the canonical staircase of the
generated algebra: a reduced echelon basis mod t^c together with the value
semigroup window, conductor, delta and multiplicity.  On top of that sit
the Hilbert function, e1, and the blow-up chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import GeneratorError, InfiniteCodimension, PrecisionExhausted
from .linalg import Echelon
from .series import Series, divide_by_unit, mul_coeffs, order, truncate

DEFAULT_TRUNC_CEILING = 512


@dataclass(frozen=True)
class AlgebraInput:
    """Generators of a subalgebra of k[[t]], each of positive order."""

    gens: tuple

    @staticmethod
    def make(gens) -> "AlgebraInput":
        return AlgebraInput(tuple(gens))


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
        return self.basis[1:]  # b_0 = 1 leads every staircase

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

    def multiplicities(self):
        return tuple([m for m, _ in self.steps])

    def e1_sequence(self):
        return tuple([e for _, e in self.steps])


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
    certified by a run of e0 consecutive values.  Within a window w no
    product is computed above the range the pivots' semigroup covers:
    once the sums of pivots hold all of [a, w], t^a..t^w go in as rows
    (proof in ``_closure_at``).  The window and ``work_trunc`` are those
    of the plain closure.  Raises
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
            return _closure_at(gens, w, gcd_window)
        except _Inconclusive as ex:
            if w >= cap:
                raise PrecisionExhausted(
                    ex.required, f"truncation limit {cap} reached; need {ex.required}"
                )
            w = min(max(2 * w, ex.required), cap)


def _closure_at(gens, w: int, gcd_window: int) -> Staircase:
    """Staircase of B_w, the algebra generated by ``gens`` mod t^(w+1).

    Every pair of table rows is multiplied once and the product inserted,
    unless all of t^(o1+o2) k[t] is in the table already.

    Fill.  Every row is an element of B_w, so every pivot is a value of
    B_w, and the values of B_w below w+1 are closed under sums that stay
    at most w.  So every k in ``reach``, the sums of pivots found so far
    cut at w, is a value of B_w.  Once ``reach`` holds all of [a, w], B_w
    has an element of each order a..w; these span t^a k[t] mod t^(w+1),
    so t^a..t^w lie in B_w.  The rows at pivots a..w, all in t^a k[t],
    become those monomials: the span only grows, and stays inside B_w.
    The monomials are not multiplied: their products lie in t^(a+1) k[t],
    already in the table.  The final span is B_w either way, so pivots,
    staircase and errors are those of the closure with no fill.  A pivot
    already in ``reach`` leaves it as it is; any other adds its multiples,
    by doubling shifts of a bit set.
    """
    ech = Echelon(w)
    ech.insert(Series.one(w))
    mask = (1 << (w + 1)) - 1
    reach = 1  # bit k: k is a sum of pivots found so far
    filled = w + 1  # the rows at pivots filled..w are monomials
    queue = []

    def found(p):
        nonlocal reach, filled
        if p is None:
            return
        queue.append(p)
        if reach >> p & 1:
            return
        s = p
        while s <= w:
            reach |= (reach << s) & mask
            s *= 2
        a = (mask ^ reach).bit_length()  # [a, w] is the top run of reach
        if a < filled:
            ech.set_monomials(a, filled)
            filled = a

    for g in gens:
        found(ech.insert(g.extended(w)))
    while queue:
        o1 = queue.pop()
        a = ech.table[o1]
        for o2 in ech.pivots()[1:]:  # pivot 0 is the unit
            # o2 ascends and _free_top only falls: once true, true for every later o2
            if o1 + o2 > w or ech.complete_from(o1 + o2):
                break
            found(ech.insert_coeffs(mul_coeffs(a, ech.table[o2], w + 1)))

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
        )

    gaps = tuple([i for i in range(1, w + 1) if i not in pivots])
    c = gaps[-1] + 1
    e0 = positive[0]
    if c + e0 - 1 > w or any(j not in pivots for j in range(c, c + e0)):
        raise _Inconclusive(2 * w)

    values = tuple([p for p in sorted(pivots) if p < c])
    basis = []
    for v in values:
        basis.append(Series.make(ech.reduce_fully(v, c), None))
    return Staircase(
        basis=tuple(basis),
        values=values,
        conductor=c,
        gaps=gaps,
        delta=len(gaps),
        e0=e0,
        work_trunc=w,
    )


def membership(f: Series, S: Staircase) -> bool:
    """Whether f lies in the algebra (decided mod t^c, since t^c k[[t]] is inside).

    f is reduced against the reduced staircase: subtracting f_v b_v for
    each value v leaves at gap j the coefficient f_j - sum_v f_v (b_v)_j,
    which is phi_j(f) for the inverse-system functional phi_j of
    ``inverse_system._gap_functionals``, and 0 at every value.  So f lies in
    the algebra exactly when phi_j(f) = 0 for every gap j.
    """
    c = S.conductor
    if c == 0:
        return True
    if not f.known_to(c - 1):
        raise PrecisionExhausted(c - 1)
    fv = [(f.coeff(v), b) for v, b in zip(S.values, S.basis) if f.coeff(v)]
    return all(f.coeff(j) == sum(x * b.coeff(j) for x, b in fv) for j in S.gaps)


def hilbert(S: Staircase) -> HilbertData:
    """Hilbert function of the local ring of S, its partial sums, and e1.

    HF(i) = dim m^i/m^(i+1), HF1(i) = dim B/m^(i+1).  With c the conductor
    (1 for B = k[[t]]), x of value e0 and L_i = c + i*e0:

    Windows.  t^c k[[t]] lies in m, so m^(i+1) contains x^i t^c k[[t]] =
    t^(L_i) k[[t]], and HF1(i) is the number of values below L_i minus the
    rank of m^(i+1) mod t^(L_i).  m^(i+1) is the sum of g*m^i over the
    generators g of m as an ideal; v(g) >= e0, so g*a mod t^(L_i) depends
    on a mod t^(L_(i-1)) only.  So the products g*a, a a row of m^i mod
    t^(L_(i-1)), span m^(i+1) mod t^(L_i): one echelon per power.

    Generators.  The positive basis and t^c..t^(L_1 - 1) span m modulo
    t^(L_1) k[[t]], itself inside m^2 (as is t^j*m for j >= c, so products
    of two positive-basis rows span m^2 mod t^(L_1)).  By Nakayama those
    independent modulo m^2 generate m minimally; each is kept reduced
    against m^2 and the earlier ones, a triangular change modulo m^2.

    Stop rule.  l(M/xM) = e0 for every B-module t^N k[[t]] in M in k[[t]]
    (compare both with k[[t]]/x k[[t]]), and x*m^n lies in m^(n+1), so
    HF(n) = e0 - l(m^(n+1)/x*m^n).  The first n >= 1 with HF(n) = e0
    proves m^(n+1) = x*m^n, hence HF = e0 from n on, and e1 = e0*(k+1) -
    HF1(k) for k >= n.  As l(m^(n+1)/x*m^n) does not depend on x, n is at
    most max(1, r) for the reduction number r <= e0 - 1: m^e0 has
    HF(e0) <= e0 < e0 + 1 generators, so m^e0 = y*m^(e0-1) with v(y) = e0
    (Eakin-Sathaye).  The sequences end at index n + 1, closing on e0, e0.
    """
    c, e0 = max(S.conductor, 1), S.e0
    m1 = Echelon(c - 1)  # m mod t^(L_0)
    for b in S.positive_basis():
        m1.insert(b)
    rows = sorted(m1.table.items())
    L = c + e0
    sq = _products(rows, rows, L)  # m^2 mod t^(L_1)
    rows = sorted(sq.table.items())
    hf1 = [1, len(S.values) + e0 - len(rows)]
    gens = []
    for g in list(m1.table.values()) + [(0,) * j + (1,) for j in range(c, L)]:
        p = sq.insert_coeffs(list(g) + [0] * (L - len(g)))
        if p is not None:
            gens.append((p, sq.table[p]))
    gens.sort()
    while hf1[-1] - hf1[-2] != e0:
        L += e0
        rows = sorted(_products(rows, gens, L).table.items())
        hf1.append(len(S.values) + L - c - len(rows))
    hf1.append(hf1[-1] + e0)
    hf = [1] + [hf1[k] - hf1[k - 1] for k in range(1, len(hf1))]
    return HilbertData(tuple(hf), tuple(hf1), e0 * len(hf1) - hf1[-1])


def _products(rows, factors, L: int) -> Echelon:
    """Echelon of the products a*g mod t^L, for (pivot, row) lists sorted by pivot."""
    ech = Echelon(L - 1)
    for o1, a in rows:
        for o2, g in factors:
            if ech.complete_from(o1 + o2):
                break
            ech.insert_coeffs(mul_coeffs(a, g, L))
    return ech


def blowup(S: Staircase, prec: int | None = None) -> AlgebraInput:
    """Generators of the local ring in the first infinitely-near point, mod t^(prec+1).

    Divides the maximal-ideal spanning set by a minimal-order element and
    recenters by dropping constant terms.  Generators of order above prec
    are dropped.
    """
    if S.delta == 0:
        raise ValueError("nothing to blow up: the algebra is all of k[[t]]")
    c, e0 = S.conductor, S.e0
    if prec is None:
        prec = max(2 * c + 16, 32)
    table = S.basis_by_order()
    f0 = table[e0] if e0 in table else Series.monomial(e0)
    u0 = Series.make(list(f0.coeffs[e0:]), None)
    span = S.positive_basis() + tuple([Series.monomial(j) for j in range(c, c + e0)])
    new_gens = [truncate(g, prec) for g in S.algebra_generators()]
    for e in span:
        v = order(e)
        unit_e = Series.make(list(e.coeffs[v:]), None)
        q = divide_by_unit(unit_e, u0, prec=prec)
        coeffs = [0] * (v - e0) + list(q.coeffs)
        coeffs[0] = 0  # recenter: drop the constant term
        new_gens.append(Series.make(coeffs, prec))
    new_gens = [g for g in new_gens if order(g) is not None]
    return AlgebraInput(tuple(new_gens))


def blowup_chain(S: Staircase) -> BlowupChain:
    """Multiplicity and e1 sequence along the resolution by blow-ups of the algebra of S.

    A step from B to its blow-up B' = B[m/x], v(x) = e0, records
    (e0, delta(B) - delta(B')), which is e1 (Northcott; Matlis, LNM 327):
    m^n/x^n grows to B' and is constant from the reduction number on, so
    there m^n = x^n B' and dim B/m^(n+1) = l(B'/x^(n+1) B') - l(B'/B)
    = (n+1)*e0 - l(B'/B).  The e1 add up to delta; the last step, at
    k[[t]], is (1, 0).

    B' is closed in the window W = 2*(delta - e0 + 1) + e0 + 2: c' <= 2*delta'
    for every semigroup and delta' = delta - e1 <= delta - e0 + 1, since
    e1 = sum_n (e0 - HF(n)) >= e0 - 1, so the run of e0' <= e0 values
    from c' that certifies the conductor lies in W.  Should a closure
    still run out of precision, W doubles.
    """
    steps = []
    curS = S
    while curS.delta:
        w = 2 * (curS.delta - curS.e0 + 1) + curS.e0 + 2
        while True:
            try:
                nxtS = closure(blowup(curS, w), w)
                break
            except PrecisionExhausted as ex:
                w = max(2 * w, ex.required + 8)
        steps.append((curS.e0, curS.delta - nxtS.delta))
        curS = nxtS
    return BlowupChain(tuple(steps + [(1, 0)]) if steps else ())
