"""Staircase presentation and numerical invariants of subalgebras of k[[t]].

``closure`` turns a generator list into the canonical staircase of the
generated algebra: a reduced echelon basis mod t^c together with the value
semigroup window, conductor, delta and multiplicity.  On top of that sit
the Hilbert function, e1, and the blow-up chain.  The results are
read-only records (``errors._Record``); a ``Staircase`` compares and
hashes by its rows and conductor only.
"""

from __future__ import annotations

import math
from functools import cached_property

from .errors import GeneratorError, InfiniteCodimension, PrecisionExhausted, _Record
from .linalg import Echelon, _back_substitute, _dense, _rational_row, _sparse
from .semigroup import _add_multiples, from_staircase
from .series import Series, _quotient_ints, mul_coeffs

DEFAULT_TRUNC_CEILING = 512


class AlgebraInput(_Record):
    """Generators of a subalgebra of k[[t]], each of positive order."""

    def __init__(self, gens: tuple):
        self.__dict__.update(gens=gens)

    @staticmethod
    def make(gens) -> "AlgebraInput":
        return AlgebraInput(tuple(gens))


class Staircase(_Record):
    """Canonical presentation of a finite-codimension subalgebra.

    ``rows`` maps each value v below max(c, 1), in increasing order, to the
    primitive int row of b_v = t^v + (gap tail) cut at max(c, 1), positive
    at v; together with the monomials t^j, j >= c, they span the algebra
    mod any power of t.  ``basis`` is read off the rows.

    ``sparse_rows`` maps the same values, in the same order, to sparse
    primitive int rows ``{column: nonzero int}``, each an element of the
    algebra mod t^max(c, 1) of that order: any basis, for readers that need
    no reduced form.  A staircase stores one of the two views, and the
    other is derived from it on first read.  The constructor stores
    ``rows``, and ``sparse_rows`` is them made sparse.  ``_from_echelon``
    stores ``sparse_rows`` (closure's echelon rows, not reduced, so with far
    smaller entries, or annihilator's reduced rows), and ``rows`` is their
    back-substitution (``linalg._back_substitute``, with no copy).  ``values``, ``gaps``,
    ``delta``, ``e0`` and the hash read the keys of ``sparse_rows``, and
    equality and repr read ``rows``.
    """

    def __init__(self, rows: dict, conductor: int, work_trunc: int):
        self.__dict__.update(rows=rows, conductor=conductor, work_trunc=work_trunc)

    @staticmethod
    def _from_echelon(sparse_rows: dict, conductor: int, work_trunc: int) -> "Staircase":
        """The staircase that stores ``sparse_rows`` and back-substitutes ``rows`` on first read."""
        S = Staircase.__new__(Staircase)
        S.__dict__.update(sparse_rows=sparse_rows, conductor=conductor, work_trunc=work_trunc)
        return S

    @cached_property
    def rows(self):
        return _back_substitute(self.sparse_rows, self.sparse_rows, max(self.conductor, 1))

    @cached_property
    def sparse_rows(self):
        return {v: _sparse(r) for v, r in self.rows.items()}

    def __eq__(self, other):
        if not isinstance(other, Staircase):
            return NotImplemented
        return self.conductor == other.conductor and self.rows == other.rows

    def __hash__(self):
        return hash((self.conductor, self.values))

    @cached_property
    def basis(self):
        """The exact polynomials b_v, monic, by increasing v."""
        return tuple([Series.make(_rational_row(r, v)) for v, r in self.rows.items()])

    @cached_property
    def values(self):
        return tuple(self.sparse_rows)

    @cached_property
    def gaps(self):
        return tuple(sorted(set(range(1, self.conductor)).difference(self.values)))

    @property
    def delta(self):
        return len(self.gaps)

    @property
    def e0(self):
        return self.values[1] if len(self.values) > 1 else max(self.conductor, 1)

    def algebra_generators(self):
        """b_v for each minimal generator v of the value semigroup, t^v for v >= c.

        Proof.  These elements lie in B.  The values of B form the
        semigroup the v generate, and a product has the sum of its
        factors' orders as its order, so every value of B is a value of
        the algebra C they generate.  C lies in B, so
        l(B/C) = #(values of B that are not values of C) = 0, and C = B.
        The first generator is b_(e0).
        """
        c = self.conductor
        return tuple([
            Series.make(_rational_row(self.rows[v], v)) if v < c else Series.monomial(v)
            for v in from_staircase(self.values, c).generators
        ])


class HilbertData(_Record):
    def __init__(self, hf: tuple, hf1: tuple, e1: int):
        self.__dict__.update(hf=hf, hf1=hf1, e1=e1)


class BlowupChain(_Record):
    def __init__(self, steps: tuple):  # (multiplicity, e1) per infinitely-near ring
        self.__dict__.update(steps=steps)

    def multiplicities(self):
        return tuple([m for m, _ in self.steps])

    def e1_sequence(self):
        return tuple([e for _, e in self.steps])


class _Inconclusive(Exception):
    def __init__(self, required):
        self.required = required


def closure(A: AlgebraInput, ceiling: int = DEFAULT_TRUNC_CEILING) -> Staircase:
    """Canonical staircase of the algebra generated by A.

    Works at an adaptive truncation, doubling until the conductor is
    certified by a run of e0 consecutive values.  Within a window w each
    row is multiplied by the generators only, and no product is computed
    above the range the pivots' semigroup covers: once the sums of pivots
    hold all of [a, w], t^a..t^w go in as rows, and every other row and
    every later product is cut at t^a (proofs in ``_closure_at``).
    The staircase's reduced ``rows`` are back-substituted from its echelon
    rows on first read: a caller that reads only values, or any basis
    (``Staircase.sparse_rows``), pays for none.
    The window and ``work_trunc`` are those of the plain closure, which
    multiplies every pair of rows.  Raises PrecisionExhausted when the
    ceiling (or a generator's own truncation) is insufficient; its
    ``required`` is the next window the doubling would try, not always the
    least that suffices.

    Infinite codimension.  For exact generators of degree at most n, values
    of gcd g > 1 in a window w >= (n-1)(n-2) + 1 prove that B has infinite
    codimension, so InfiniteCodimension is raised from max(gcd_window,
    (n-1)(n-2) + 1) on; below that a gcd > 1 asks for max(gcd_window,
    w + 1).  Proof: say B has finite codimension, and work over an algebraic
    closure of k, which changes no dimension.  Projection: for a nonzero
    generator a, k[[t]] is finite over k[[a]], so B = k[[a]][g_1, .., g_r]
    and its fraction field k((a))(g_1, .., g_r) is k((t)).  By the
    primitive element theorem (characteristic 0) some b = sum c_i g_i,
    c_i in k, has k((a))(b) = k((t)); then k[[a, b]], inside B, has
    normalization k[[t]] and finite codimension.  Degree: t -> (a, b) is
    finite, as a is not constant, so its image is an irreducible affine
    plane curve C, and a general line meets C in deg C points, each the
    image of a root of a nonzero polynomial of degree <= n: deg C <= n.
    Genus-degree: k[[a, b]] is a branch of C at the origin, so its delta
    is at most C's delta there, and the deltas of C's points add up to at
    most the arithmetic genus (m-1)(m-2)/2 of its projective closure,
    m = deg C.  A plane branch is Gorenstein, c = 2*delta.  So c(B) <=
    c(k[[a, b]]) <= (n-1)(n-2): (n-1)(n-2) and (n-1)(n-2) + 1 are values of
    B, both at most w, and the window's values have gcd 1.

    An inexact generator has no degree bound, and a gcd > 1 is never
    conclusive with one: known mod t^(T+1), it counts as degree T, so
    gcd_window >= 2T + 2 lies past the cap <= T, and PrecisionExhausted is
    raised there.  Inexact generators come only from ``blowup``, of
    algebras of finite codimension.

    Each generator's int terms are read once per ``Series``, and cached
    there (``_int_gens``).  ``_close`` runs the windows on them, and each
    window cuts them at w; ``blowup_chain`` gives ``_close`` its int rows
    directly.
    """
    return _close([(o, terms, trunc, deg) for o, terms, trunc, deg, _ in _int_gens(A)], ceiling)


def _int_gens(A: AlgebraInput):
    """(order, int terms, trunc, degree, den) for each nonzero generator of A,
    in A's order, read from its cached ``Series._ints``: the terms are its
    nonzero entries times den, the lcm of their denominators, as (exponent,
    int) pairs."""
    gens = []
    for g in A.gens:
        if g._ints is None:
            continue
        o, terms, den = g._ints
        if o == 0:
            raise GeneratorError("generators must have positive order")
        gens.append((o, terms, g.trunc, len(g.coeffs) - 1, den))
    if not gens:
        raise GeneratorError("no nonzero generators")
    return gens


def _close(gens, ceiling: int) -> Staircase:
    """``closure`` of generators given as (order, int terms, trunc, degree),
    the terms (exponent, int) pairs, trunc None for an exact generator."""
    if not gens:
        raise GeneratorError("no nonzero generators")
    orders = [o for o, _, _, _ in gens]
    # Starting too small is cheap (we double), starting huge is not, so the
    # initial window looks only at the extreme generator orders.  Inexact
    # generators cap the window at their own truncation.
    cap = min([t for _, _, t, _ in gens if t is not None] + [ceiling])
    w = min(max(4 * (min(orders) + max(orders)), 16), cap)
    # A gcd > 1 among the values of a window is proof of infinite codimension
    # only from ``proved`` on (docstring).  ``gcd_window``, past the
    # generators' support, stays a floor: an exit-2 report lists the values
    # up to the window that concluded.
    maxdeg = max(d for _, _, _, d in gens)
    gcd_window = max(64, 2 * maxdeg + 2, 4 * (min(orders) + max(orders)))
    proved = max(gcd_window, (maxdeg - 1) * (maxdeg - 2) + 1)
    while True:
        try:
            return _closure_at(gens, w, gcd_window, proved)
        except _Inconclusive as ex:
            if w >= cap:
                raise PrecisionExhausted(
                    ex.required, f"truncation limit {cap} reached; need {ex.required}"
                )
            w = min(max(2 * w, ex.required), cap)


def _closure_at(gens, w: int, gcd_window: int, proved: int) -> Staircase:
    """Staircase of B_w, the algebra generated by ``gens``, (order, int terms,
    trunc, degree) tuples, each cut at w, mod t^(w+1).

    Products.  Each row that enters the table at a new pivot o1 is
    multiplied by the int rows of the generators, by increasing order o2,
    and each product inserted, until o1 + o2 >= a = ``ech.filled`` (w + 1
    before any fill): then t^(o1+o2) k[t] mod t^(w+1) is in the table
    (Fill, below), and as o1 + o2 only grows and a only falls, so is every
    later product of that row.  A generator that added no pivot is no
    factor.  Products are cut at a.  Let V be the final span.
    Every row is an element of B_w, so V lies in B_w.  V holds 1 and each
    generator g, and g*V lies in V.  The rows of V are 1, with g*1 = g;
    the monomials t^a..t^w of the fill below, whose products lie in
    t^(a+1) k[t]; and rows that went in at a pivot below a, each product
    of which was inserted or lay in the table already.  A row or product
    cut at a, and a row the fill dropped, differs from the uncut one or
    the monomial at its pivot by a combination of t^a..t^w, so none of
    them changes this; a row taken from the queue at a pivot >= a is that
    monomial, and its products, of order >= a, are skipped.  A generator
    that added no pivot is a combination of 1, the generators before it
    and filled monomials, so its products are combinations of products
    already in V.  So V holds every product of generators: V = B_w.  The
    pivots are the orders of V, so they, the staircase, the window and
    the errors are those of the closure that multiplies every pair of
    rows.

    Fill.  Every pivot is a value of B_w, and the values of B_w below w+1
    are closed under sums that stay at most w.  So every k in ``reach``,
    the sums of pivots found so far cut at w, is a value of B_w.  Once
    ``reach`` holds all of [a, w], B_w has an element of each order
    a..w; these span t^a k[t] mod t^(w+1), so t^a..t^w lie in B_w, and
    ``Echelon.set_monomials(a)`` makes them pivots with no stored row and
    cuts every row at t^a: its docstring proves that the span only grows,
    and it stays inside B_w.  A pivot already in ``reach`` leaves it as it
    is; any other adds its multiples (``semigroup._add_multiples``).
    The loop keeps three facts: ``reach`` holds every pivot, a is where its
    top run starts (w + 1 when w is not in it), and ``set_monomials`` runs
    after every change to it.  So wherever a is read, column a - 1 is no
    pivot and every column of [a, w] is one: [s, w] holds only pivots
    exactly when s >= a, which is the skip above.  The last column with no
    pivot is a - 1, so c = a: 0 for k[[t]], whose ``reach`` fills, and
    w + 1 with no fill, which asks for a wider window below.

    The pivots are the table's, all below a, and every column of [a, w],
    read as such with no scan of the window: two consecutive ones give
    gcd 1.  The staircase is the reduced echelon form of V cut at
    max(c, 1).  c = a, so the table rows, all below a and cut there, are a
    basis of V mod t^max(c, 1) (for k[[t]], c = 0 and the fill dropped
    b_0 = 1, so it is {0: {0: 1}}); they are stored as the staircase's
    ``sparse_rows``, sorted, and back-substituted when ``rows`` is first
    read.  The reduced form is unique, so it does not depend on the order
    in which the rows went in.  Values of gcd > 1
    raise InfiniteCodimension once w >= ``proved`` (proof in ``closure``),
    and ask for max(gcd_window, w + 1) below it.
    """
    ech = Echelon(w)
    ech.insert_coeffs({0: 1})
    mask = (1 << (w + 1)) - 1
    reach = 1  # bit k: k is a sum of pivots found so far
    queue = []

    def found(p):
        nonlocal reach
        if p is None:
            return
        queue.append(p)
        if not reach >> p & 1:
            reach = _add_multiples(reach, p, mask)
            ech.set_monomials((mask ^ reach).bit_length())  # [a, w] is the top run of reach

    factors = []  # (order, int terms) of the generators that added a pivot
    for o, terms, _, _ in gens:  # w <= every inexact generator's trunc (``_close``'s cap)
        row = {k: x for k, x in terms if k <= w}
        p = ech.insert_coeffs(row)
        if p is not None:
            factors.append((o, list(row.items())))
        found(p)
    factors.sort(key=lambda f: f[0])
    while queue:
        o1 = queue.pop()
        a = ech.table.get(o1)  # None once filled: its products lie past the fill
        for o2, g in factors:
            if o1 + o2 >= ech.filled:
                break
            found(ech.insert_coeffs(mul_coeffs(a, g, ech.filled)))

    # The pivots: the table's, all below the fill, and every column of [filled, w].
    c, table = ech.filled, ech.table  # c: past the last gap (docstring)
    positive = sorted([p for p in table if p]) + list(range(c, min(c + 2, w + 1)))
    if not positive:  # the window lies below every generator's order: nothing seen yet
        raise _Inconclusive(max(o for o, _, _, _ in gens))
    g = math.gcd(*positive)  # 1 once two consecutive columns are filled
    if g > 1:
        if w >= proved:
            raise InfiniteCodimension(g, positive)
        raise _Inconclusive(max(gcd_window, w + 1))

    if c + positive[0] - 1 > w:
        raise _Inconclusive(2 * w)
    return Staircase._from_echelon({p: table[p] for p in sorted(table)} or {0: {0: 1}}, c, w)  # k[[t]]: b_0 = 1


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

    Any basis.  A polynomial that agrees with an element of B mod t^n,
    n >= c, lies in B, as t^c k[[t]] does.  So ``sparse_rows`` (closure's
    echelon rows, whose entries are far smaller than the reduced rows')
    cut at c give elements of B of each order v below c: those with v > 0
    are a basis of m mod t^(L_0).  The factors g are the rows at the
    minimal generators v of the value semigroup, cut at c + e0, and t^v
    for v >= c: elements of B of those orders, which generate B
    (``Staircase.algebra_generators``' proof holds for any elements of
    those orders), so each element of m mod t^n is a polynomial in them
    with no constant term, m = sum_g g*B and m^(i+1) = sum_g g*m^i.  The
    rank of m^(i+1) mod t^(L_i) is that of the ideal, whatever basis of
    B the rows and factors come from: every choice gives the same ranks.
    The factor terms go to ``mul_coeffs`` sorted by exponent.

    Fill.  m^(i+1) is an ideal of B, so p + s is a value of it for every
    value p of it and every value s of B; and p + s, s > 0, is one for
    every value p of m^i.  The bit set ``reach`` holds the pivots of m^i
    plus each positive value below L_i, and each new pivot plus each
    value: values of m^(i+1) mod t^(L_i) only.  Once it holds all of
    [a, L_i), m^(i+1) mod t^(L_i) has an element of each order a..L_i - 1;
    these span t^a k[t] mod t^(L_i), so t^a..t^(L_i - 1) lie in it, and
    ``Echelon.set_monomials(a)`` makes them pivots.  Every product of order
    >= a lies in it then, and is skipped: ``_products`` keeps the three
    facts of ``_closure_at``'s Fill paragraph (a new pivot p adds p + 0),
    so a product is skipped exactly when its order is >= ``filled``.

    Cut.  The fill cuts every table row of pivot below a at t^a, and each
    later product is cut there; ``Echelon.set_monomials`` proves that
    neither changes the span.  The monomials t^a..t^(L_i - 1) are pivots
    with no stored row, so the next power is handed the table rows, all
    below a, and a: with the monomials these are a basis of m^(i+1) mod
    t^(L_i) still, and its rank is the number of rows plus L_i - a.  A
    monomial t^p, p >= a, adds to the next power's ``reach`` its sums with
    the positive values, all >= a + e0, of which p + e0 covers [a + e0,
    L_(i+1)); each of its products has order >= a + e0, so lies in that
    power's first fill, and is skipped.

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
    factors = [
        (v, sorted([(k, x) for k, x in S.sparse_rows[v].items() if k < c + e0])) if v < c else (v, [(v, 1)])
        for v in from_staircase(S.values, S.conductor).generators
    ]
    rows = {v: {k: x for k, x in r.items() if k < c} for v, r in S.sparse_rows.items() if v}
    below = sum([1 << v for v in S.values])  # the values of B below c
    L, power, hf1 = c, (rows, c), [1]  # m mod t^c: its rows, no fill
    while len(hf1) == 1 or hf1[-1] - hf1[-2] != e0:
        L += e0
        values = below | ((1 << L) - (1 << c))  # the values of B below L
        power = _products(power, factors, L, values)
        hf1.append(len(S.values) + L - c - len(power[0]) - (L - power[1]))  # rank: rows, monomials
    hf1.append(hf1[-1] + e0)
    hf = [1] + [hf1[k] - hf1[k - 1] for k in range(1, len(hf1))]
    return HilbertData(tuple(hf), tuple(hf1), e0 * len(hf1) - hf1[-1])


def _products(power, factors, L: int, values: int):
    """m^(i+1) mod t^L as its echelon table and fill point: the products a*g,
    a a sparse row of m^i by pivot in ``rows`` or a monomial t^p,
    ``filled`` <= p < L - e0, for ``power`` = (rows, filled), and g the sorted
    int terms of (order, terms) ``factors`` by increasing order, the first at
    e0; ``values`` is the bit set of the values of B below L (proofs in
    ``hilbert``)."""
    rows, filled = power
    ech = Echelon(L - 1)
    mask = (1 << L) - 1
    reach = mask ^ ((1 << (filled + factors[0][0])) - 1)  # each t^p plus e0, the least positive value
    for p in rows:
        reach |= (values ^ 1) << p  # p plus a positive value
    reach &= mask
    ech.set_monomials((mask ^ reach).bit_length())  # [lo, L) is the top run of reach
    for o1, a in sorted(rows.items()):
        for o2, g in factors:
            if o1 + o2 >= ech.filled:
                break
            p = ech.insert_coeffs(mul_coeffs(a, g, ech.filled))
            if p is not None:
                reach |= (values << p) & mask
                ech.set_monomials((mask ^ reach).bit_length())
    return ech.table, ech.filled


def blowup(S: Staircase, prec: int | None = None) -> AlgebraInput:
    """Generators of the local ring in the first infinitely-near point, mod t^(prec+1).

    With b_v the algebra generators of S, one per minimal generator v of
    the value semigroup (``Staircase.algebra_generators``), and x = b_(e0):
    x and each quotient b_v/x, v != e0.  Proof.  The b_v generate B, so
    they generate its maximal ideal m as an ideal, and the blow-up
    B' = B[m/x] is B[b_v/x].  Each b_v = x*(b_v/x), so B lies in
    k[[x, b_v/x]], and B' = k[[x, b_v/x : v != e0]].  As v > e0, b_v/x has
    order v - e0 > 0: no constant term to drop.  Generators of order
    above prec are dropped.  The generators are ``_blowup_rows`` of the
    reduced rows, made monic.
    """
    if S.delta == 0:
        raise ValueError("nothing to blow up: the algebra is all of k[[t]]")
    if prec is None:
        prec = max(2 * S.conductor + 16, 32)
    return AlgebraInput(tuple([
        Series.make(_rational_row(_dense(dict(terms), prec + 1), o), prec)
        for o, terms, _, _ in _blowup_rows(S, prec, {v: _sparse(r) for v, r in S.rows.items()})
    ]))


def _blowup_rows(S: Staircase, prec: int, rows: dict):
    """``blowup``'s generators mod t^(prec+1) as ``_close`` takes them:
    (order, int terms, prec, prec), each an int multiple of the monic
    generator of the blow-up of ``rows``, in ``blowup``'s order, those of
    order above prec (x included) dropped.

    x and b_v are ``rows`` (sparse int rows of elements of B mod t^c, by
    order; the reduced rows for ``blowup``, ``S.sparse_rows`` for the
    chain) at the minimal generators v of the value semigroup, t^v for
    v >= c (e0 too).  Any elements of those orders generate B
    (``Staircase.algebra_generators``), and B' = m^n/x^n for n at least
    the reduction number, for any x of value e0, so it does not depend on
    which x is used.  With u = x/t^e0, whose lead b0 exceeds 1 when x has
    rational tails, b_v/x = t^(v-e0) * (b_v/t^v)/u, which
    ``_quotient_ints`` gives mod t^(prec+1) times D = b0^(prec+1-v+e0).
    """
    c, e0 = S.conductor, S.e0

    def row(v):
        return _dense(rows[v], c) if v < c else (0,) * v + (1,)

    u = row(e0)[e0:]
    out = [(e0, tuple(_sparse(row(e0)[: prec + 1]).items()), prec, prec)] if e0 <= prec else []
    for v in from_staircase(S.values, c).generators[1:]:
        s = v - e0  # the order of b_v/x: b_v/t^v and u are units
        if s <= prec:
            q = _quotient_ints(row(v)[v:], u, prec + 1 - s)
            out.append((s, tuple([(s + k, r) for k, r in enumerate(q) if r]), prec, prec))
    return out


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
    from c' that certifies the conductor lies in W.

    Each step closes the int rows ``_blowup_rows(S, W, S.sparse_rows)``
    with ``_close``: no ``Series`` lies between two staircases, and none is
    back-substituted.  A window closes the image of B' mod t^(W+1),
    whichever generators of B' it gets, so each step is that of
    ``blowup``'s generators.
    """
    steps = []
    while S.delta:
        w = 2 * (S.delta - S.e0 + 1) + S.e0 + 2
        nxt = _close(_blowup_rows(S, w, S.sparse_rows), w)
        steps.append((S.e0, S.delta - nxt.delta))
        S = nxt
    return BlowupChain(tuple(steps + [(1, 0)]) if steps else ())
