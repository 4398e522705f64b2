"""The duality engine for finite-codimension subalgebras of k[[t]].

Under the pairing ``perp(g, f) = (g(d/dt) f)(0)`` a subalgebra B with
delta invariant d corresponds to a d-dimensional space of polynomial
differential operators annihilating B: its inverse system.  This module
computes that space, decides when an operator space cuts out a
subalgebra (algebra-forming certificates), intersects annihilators with
B, builds standard filtrations with their cutting derivations,
transports inverse systems along reparametrizations, and produces the
Laurent (residue) representatives of inverse-system elements.  Its
results are read-only records (``errors._Record``).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InternalError, NotAlgebraForming, PrecisionExhausted, _Record
from .linalg import (
    QONE, QZERO, Echelon, QMatrix, _back_substitute, _dense, _integer_row, _primitive, _rational_row, _sparse,
)
from .series import DiffOp, Series, mul_coeffs, order
from .subalgebra import (
    AlgebraInput,
    Staircase,
    _int_gens,
    closure,
    membership,
)


class InverseSystem(_Record):
    """Reduced basis of an annihilating operator space.

    ``basis`` is in reduced echelon form by leading degree, each element
    monic in its leading coefficient, listed by increasing degree.
    """

    def __init__(self, basis: tuple, dim: int, conductor_bound: int):
        self.__dict__.update(basis=basis, dim=dim, conductor_bound=conductor_bound)


class AFCertificate(_Record):
    """Outcome of the algebra-forming test.

    On failure ``witness`` is a series f with perp(g, f) = 0 for every g
    in the tested space but perp(g, f^2) != 0 for some g.
    """

    def __init__(self, verdict: bool, witness: Series | None = None):
        self.__dict__.update(verdict=verdict, witness=witness)


class FiltrationStep(_Record):
    def __init__(self, gap_exponent: int, new_algebra: Staircase, cutting_element: Series):
        self.__dict__.update(gap_exponent=gap_exponent, new_algebra=new_algebra, cutting_element=cutting_element)


class Filtration(_Record):
    """Chain B = B_0 < B_1 < ... < B_delta = k[[t]], one dimension a step.

    Step i adjoins the monomial t^gap_exponent and records a cutting
    element l with Ker(d_l) = B_(i-1) inside B_i.
    """

    def __init__(self, steps: tuple):
        self.__dict__.update(steps=steps)


class CuttingDerivation(_Record):
    """Element l of the bigger algebra whose functional cuts out the smaller.

    ``operator`` is the matching differential operator: sum c_i u^i for
    l = sum c_i t^i.
    """

    def __init__(self, l: Series, operator: DiffOp):
        self.__dict__.update(l=l, operator=operator)


def _op_rows(ops, width: int) -> dict:
    """Reduced echelon form of the operators by leading degree: each leading degree
    d < width, increasing, -> a primitive int row over degrees 0..d.  Only degrees
    below ``width`` are read; each operator enters as its nonzero coefficients, cleared.
    """
    ech = Echelon(width - 1)  # columns from degree width-1 down: a pivot is a leading degree
    for g in ops:
        terms = [(i, x) for i, x in enumerate(g.coeffs[:width]) if x]
        den = math.lcm(*[x.denominator for _, x in terms])
        ech.insert_coeffs({width - 1 - i: x.numerator * (den // x.denominator) for i, x in reversed(terms)})
    return {width - 1 - p: r[p:][::-1] for p, r in reversed(ech.reduced().items())}


def _reduce_ops(ops, width: int):
    """Canonical basis: the ``_op_rows``, each monic in its lowest-degree coefficient."""
    return [DiffOp(tuple(_rational_row(r, next(i for i, x in enumerate(r) if x))))
            for r in _op_rows(ops, width).values()]


def _forms(ops, n: int):
    """The pairing's int forms f -> sum_i i! g_i f_i, one row of n entries per operator g."""
    return [_integer_row([math.factorial(i) * x if x else 0 for i, x in enumerate(g.coeffs[:n])], n)
            for g in ops]


def _values(forms, row: dict):
    """Each form's value on the sparse int row."""
    return [sum([form[k] * x for k, x in row.items()]) for form in forms]


def _failing_pair(rows, forms, d: int):
    """The first pair of orders v1 <= v2 whose rows' product a form does not kill, or None.

    ``rows`` are sparse int rows keyed by order.  Pairs ascend up to
    v1 + v2 <= d (``forms`` read nothing above t^d).  The row a at v1 is
    tested through its polar forms b -> form(a*b) on b's orders.
    """
    terms = {v: [(j, x) for j, x in r.items() if j <= d] for v, r in rows.items()}
    orders = sorted(terms)
    for i, v1 in enumerate(orders):
        if 2 * v1 > d:
            break
        polar = [[0] * (d + 1) for _ in forms]
        for p, form in zip(polar, forms):
            for j in range(v1, d + 1 - v1):
                p[j] = sum([x * form[i1 + j] for i1, x in terms[v1] if i1 + j <= d])
        for v2 in orders[i:]:
            if v1 + v2 > d:
                break
            if any([sum([p[j] * x for j, x in terms[v2]]) for p in polar]):
                return v1, v2
    return None


def _gap_functionals(rows: dict, gaps):
    """The operators killing a reduced echelon subspace, one per gap, with no elimination.

    ``rows`` maps each pivot v to an int row r of a subspace U of
    k[t]/t^c in reduced echelon form (r_v != 0 its least nonzero entry, r
    zero at the other pivots); ``gaps``, increasing, are its other columns
    (``S.gaps`` for a staircase, where U is B mod t^c and b_0 = 1).  Per
    gap j, phi_j = u^j/j! - sum_v (b_v)_j u^v/v! over the pivots v,
    b_v = r / r_v, made monic in its lowest-degree coefficient.

    Proof.  Under ``perp``, phi_j is f -> f_j - sum_v (b_v)_j f_v, and b_w is
    t^w plus terms on gaps, so phi_j(b_w) = 0: phi_j kills U, with no ring
    structure used.  phi_j has 1/j! at u^j and its other terms at pivots,
    so the c - dim U of them are independent and span the operators of
    degree < c killing U (the pairing is perfect there).  (b_v)_j != 0
    needs v < j, so u^j leads phi_j and no phi_j has a term at another
    gap: the list is in reduced echelon form by leading degree.  For a
    staircase, an operator killing B kills each t^k, k >= c, so has degree
    < c: the phi_j span its inverse system.

    Monic.  Let l be the least pivot v with (b_v)_j != 0 and s its row
    (when there is none, phi_j = u^j/j! is made u^j).  phi_j has
    -s_j / (l! s_l) at u^l; divided by it, phi_j has
    r_j l! s_l / (v! r_v s_j) at each pivot v with row r, and
    -l! s_l / (j! s_j) at u^j.
    """
    fact = [math.factorial(i) for i in range(max(gaps, default=0) + 1)]
    out = []
    for j in gaps:
        terms = [(v, r) for v, r in rows.items() if v < j and r[j]]
        coeffs = [QZERO] * (j + 1)
        if not terms:
            coeffs[j] = QONE
        else:
            l, s = terms[0]
            num, den = fact[l] * s[l], s[j]
            coeffs[j] = Fraction(-num, fact[j] * den)
            for v, r in terms:
                coeffs[v] = Fraction(r[j] * num, fact[v] * r[v] * den)
        out.append(DiffOp(tuple(coeffs)))
    return out


def natural_set(A: AlgebraInput, d: int):
    """Truncated generator products of order at most d, deduplicated.

    Breadth-first products of the generators mod t^(d+1); a product is
    kept when it contributes a new pivot order, so the returned list
    spans the non-constant part of the algebra mod t^(d+1).  Products
    whose order exceeds d truncate to zero and are pruned.
    """
    return [Series.make([Fraction(x, s) if x else QZERO for x in _dense(row, d + 1)], d)
            for _, row, s in _natural_rows(A, d)]


def _natural_rows(A: AlgebraInput, d: int):
    """``natural_set``'s elements, in its order, as (order, sparse int row, scale):
    the element is row / scale.  Each generator is cleared of denominators
    once, and the products are ``mul_coeffs`` of int rows, so their scales
    multiply."""
    base = []
    for o, terms, trunc, _, den in _int_gens(A):
        if trunc is not None and trunc < d:
            raise PrecisionExhausted(d)
        if o <= d:
            base.append((o, [(k, x) for k, x in terms if k <= d], den))
    ech = Echelon(d)
    out = [(o, dict(g), s) for o, g, s in base if ech.insert_coeffs(dict(g)) is not None]
    for o1, f, s1 in out:  # out grows as it is read: breadth first
        for o2, g, s2 in base:
            if o1 + o2 <= d:
                p = mul_coeffs(f, g, d + 1)
                if ech.insert_coeffs(p) is not None:
                    out.append((o1 + o2, p, s1 * s2))
    return sorted(out, key=lambda e: e[0])


def inverse_system(S: Staircase) -> InverseSystem:
    """The space of operators g with perp(g, f) = 0 for all f in the algebra of S.

    Read off the reduced staircase S (see ``_gap_functionals``): one
    operator per gap, in reduced echelon form by leading degree, each made
    monic in its lowest-degree coefficient.  ``verify_duality`` certifies it
    against the natural spanning set of the generators.
    """
    basis = tuple(_gap_functionals(S.rows, S.gaps))
    return InverseSystem(basis, len(basis), S.conductor)


def _annihilate(V, S: Staircase):
    """C = Ann(V) ∩ B mod t^N and its certificate, as ``is_algebra_forming`` proves.

    None when V has no nonzero operator, else (certificate, N, C's conductor,
    C's fully reduced int rows mod t^N keyed by its values below N).
    """
    ops = [g for g in V if not g.is_zero()]
    if any(g.coeff(0) != 0 for g in ops):
        raise ValueError("operators must have zero constant term")
    if not ops:
        return None
    k, d = len(ops), max(g.degree for g in ops)
    n = max(S.conductor, d + 1)
    forms = _forms(ops, n)
    ech = Echelon(k + n - 1)
    for r in list(S.sparse_rows.values()) + [{j: 1} for j in range(max(S.conductor, 1), n)]:
        ech.insert_coeffs(_sparse(_values(forms, r)) | {k + j: x for j, x in r.items()})  # [forms | r]
    rows = {p - k: r[k:] for p, r in _back_substitute(ech.table, [p for p in ech.table if p >= k], k + n).items()}
    out = (n, max(set(range(n)) - set(rows)) + 1, rows)
    pos = [v for v in rows if v]
    pair = _failing_pair({v: _sparse(rows[v]) for v in pos if v + pos[0] <= d}, forms, d)
    if pair is None:
        return (AFCertificate(True, None),) + out
    v1, v2 = pair
    a, b = [Series.make(_rational_row(rows[v], v)) for v in pair]
    r = _sparse(rows[v2])
    b_fails = any(_values(forms, mul_coeffs(r, list(r.items()), d + 1)))
    return (AFCertificate(False, a if v1 == v2 else b if b_fails else a + b),) + out


def is_algebra_forming(V, S: Staircase) -> AFCertificate:
    """Certificate that C = Ann(V) ∩ B is a subalgebra, B the algebra of S.

    Window.  With c the conductor of B and d the largest degree in V, let
    N = max(c, d + 1).  V reads no coefficient above t^d and t^k lies in B
    for k >= c, so t^N k[[t]] lies in C.

    Kernel.  B mod t^N is spanned by any elements of B of the orders of
    its values below c, here ``S.sparse_rows``, and t^c..t^(N-1)
    (t..t^(N-1) for B = k[[t]]); C mod t^N is the kernel there of the forms
    f -> g(f) = sum_i i! g_i f_i.  In one int echelon of the rows
    [g(f) for g in V | f], form columns first, a row space vector with zero
    form part is a combination of the rows pivoting past the form columns.
    Their pivots are C's values below N; C's conductor c_C is one past the
    last column with no pivot, and c_C > d as d is a gap (g(t^d + ...) =
    d! g_d for g of degree d).  Fully reduced, the row at v is the one
    element of C mod t^N that is t^v plus terms on C's gaps, whichever
    basis of B went in: the reduced echelon form is unique.

    Product test.  1 lies in C (no g has a constant term) and t^N k[[t]]
    is an ideal of k[[t]], so C is a ring exactly when a*b lies in C for
    all rows a, b of orders 0 < o1 <= o2.  a*b lies in B, so in C exactly
    when V kills it, as it does when o1 + o2 > d.

    Witness.  Take the first failing pair in ascending (o1, o2).  In
    characteristic 0, 2ab = (a+b)^2 - a^2 - b^2, so one of a^2, b^2,
    (a+b)^2 is not in C.  a^2 passed as the pair (o1, o1), and b^2 is in
    C when 2*o2 > d.  The witness is the first of a, b, a+b whose square
    fails: a monic exact polynomial in C (o1 < o2 when a != b).
    """
    found = _annihilate(V, S)
    return found[0] if found else AFCertificate(True, None)


def annihilator(V, S: Staircase) -> Staircase:
    """Staircase of C = {f in the algebra : perp(g, f) = 0 for all g in V}.

    Requires V to be algebra-forming (raises NotAlgebraForming with the
    failure certificate otherwise).  C mod t^N is the int kernel that
    ``is_algebra_forming`` proves, and t^N k[[t]] lies in C.  Its staircase
    is the fully reduced rows at its values below c_C, cut at c_C: t^v plus
    terms on C's gaps, the canonical form ``closure`` returns.
    """
    found = _annihilate(V, S)
    if found is None:
        return S
    cert, n, c, rows = found
    if not cert.verdict:
        raise NotAlgebraForming(cert)
    # every column of [c, N) is a pivot, where the reduced rows below c are zero
    return Staircase._from_echelon({v: _sparse(r) for v, r in rows.items() if v < c}, c, n - 1)


def standard_filtration(S: Staircase) -> Filtration:
    """Adjoin the gap monomials t^(c-1), ..., t one at a time to the algebra of S.

    Each step raises the dimension by exactly one and ends at k[[t]];
    every step records the cutting element whose kernel recovers the
    previous algebra: phi_g of the previous algebra, monic, for the gap g
    it adjoins (see ``cutting_derivation``).  That is phi_g of S, so one
    ``_gap_functionals`` pass over S gives them all.  Proof.  The previous
    algebra is S plus every t^k, k > g: its conductor is g + 1 and its gaps
    are S's up to g.  S's row b_v, v < g, cut at t^(g+1), lies in it and is
    t^v plus terms on those gaps, so it is its reduced row at v, up to a
    nonzero scale.  phi_g reads only column g and the pivot entries of
    those rows, through the ratios r_j / r_v, which no scale changes.

    The step that adjoins g, with g' the next smaller gap of S, is closed
    with ceiling max(c_i + e0_i - 1, 1), where c_i = g' + 1 (0 when there
    is none) and e0_i = min(e0, g).  Proof.  The gaps go in decreasing
    order, so the previous algebra B_(i-1) already holds every t^k with
    k > g, and B_i = B_(i-1) + k*t^g is a ring, as t^g times its maximal
    ideal has order > g.  Its gaps are those of S below g, so its
    conductor is c_i, and its least positive value is min(e0, g) = e0_i,
    e0 the multiplicity of S.  The generators, S's algebra generators and
    the adjoined monomials, are exact, so a closure at window w sees the
    algebra mod t^(w+1); those of order above w are zero there and are
    left out.  When g' exists the ceiling is g' + min(e0, g).  The
    integers strictly between g' and g are values of S, and at most
    e0 - 1 of them are consecutive (with e0 consecutive values, adding e0
    would reach g), so g <= g' + e0 and g <= ceiling: t^g is kept.  When
    g' does not, g = 1 (were 1 a value, e0 = 1) and the ceiling is 1.
    Either way 4(o_min + o_max) >= 4g > ceiling, so the closure starts
    at the ceiling, its only window.  The run of values
    [c_i, c_i + e0_i - 1] that certifies c_i lies inside the window.  For
    g > 1 it holds two consecutive values (e0 >= 2 as S is not k[[t]]);
    at the last step, g = 1, the window is [0, 1] and holds t.  So the
    gcd test never fires.
    """
    gens = [(order(b), b) for b in S.algebra_generators()]
    steps = []
    cuts = dict(zip(S.gaps, _gap_functionals(S.rows, S.gaps)))  # gap g -> phi_g of S
    gaps = sorted(S.gaps, reverse=True)
    for i, g_exp in enumerate(gaps):
        gens.append((g_exp, Series.monomial(g_exp)))
        c_i = gaps[i + 1] + 1 if i + 1 < len(gaps) else 0
        ceiling = max(c_i + min(S.e0, g_exp) - 1, 1)
        Si = closure(AlgebraInput(tuple([b for o, b in gens if o <= ceiling])), ceiling)
        if Si.delta != S.delta - i - 1:
            raise InternalError("filtration step did not raise dimension by one")
        steps.append(FiltrationStep(g_exp, Si, Series(cuts[g_exp].coeffs)))
    return Filtration(tuple(steps))


def cutting_derivation(C: Staircase, B: Staircase) -> CuttingDerivation:
    """Element l of B whose functional kills the smaller algebra C.

    Requires C inside B with dim(B/C) = 1.  With g the one gap of C that B
    fills, l is phi_g of C (see ``_gap_functionals``), monic in its
    lowest-degree coefficient; ``operator`` is the same functional.  C lies
    in B when its basis does and c_B <= c_C, as t^k lies in C for k >= c_C;
    then the gaps of B are those of C but one.

    Proof.  B = C + k*b_g, with b_g B's reduced element of order g, or
    t^g when g >= c_B.  Every phi_j of C kills C.  b_g is t^g plus terms on
    B's gaps, which are C's gaps other than g, so it has no term at a value
    of C and phi_j(b_g) = (b_g)_j: 0 for j < g, 1 for j = g.  So phi_g is the
    first phi_j, by increasing gap, nonzero on the maximal ideal of B, and
    its kernel inside B is exactly C.  As B/C is one-dimensional, every
    phi_j nonzero on B restricts to a multiple of phi_g there: whether it
    kills the square of the maximal ideal does not depend on the choice.
    """
    if C.delta != B.delta + 1:
        raise ValueError("codimension of the smaller algebra is not one")
    if B.conductor > C.conductor or not all(membership(b, B) for b in C.basis):
        raise ValueError("first algebra is not contained in the second")
    (g,) = set(C.gaps) - set(B.gaps)
    (op,) = _gap_functionals(C.rows, [g])
    return CuttingDerivation(Series(op.coeffs), op)


def is_derivation(g: DiffOp, S: Staircase) -> bool:
    """Whether g induces a derivation: zero on the square of the maximal ideal m.

    Window.  With W = max(c, 1) + e0 and j >= W, t^j = x * (t^j/x) for x in m of
    order e0, and t^j/x, of order >= max(c, 1), lies in m: t^W k[[t]] lies in m^2,
    so g_j = 0 is needed for j >= W.  Then g kills t^W k[[t]], m^2 mod t^W is
    spanned by products of rows of m of order < W, and g reads nothing above
    D = min(deg g, W - 1): it remains to test those of orders o1 + o2 <= D.
    A product with t^j, j >= max(c, 1), has order >= W > D, so the rows of m
    of order < max(c, 1) suffice, and any basis of them: the products of a
    basis span the same space.  They are ``S.sparse_rows`` at v > 0.
    """
    w = max(S.conductor, 1) + S.e0
    d = min(g.degree, w - 1)
    rows = {v: r for v, r in S.sparse_rows.items() if v}
    return not any(g.coeffs[w:]) and _failing_pair(rows, _forms([g], d + 1), d) is None


def transport_dual(h: Series, c: int, V2: InverseSystem):
    """Inverse system after the reparametrization t -> h(t).

    Returns (M, V1): M is the c x c matrix whose column j holds the
    coefficients of h^j, and V1 the image of V2 under the inverse transpose
    of M in the divided-power bases (1/i!) u^i, re-reduced.

    Composition.  f -> f o h is a linear bijection of k[t]/t^c with matrix M,
    and g1 = (M^T)^-1 g2 has perp(g2, f) = perp(g1, f o h), so V1 = Ann(W o h),
    W = Ann(V2) mod t^c, with no ring structure used.  V2's ``_op_rows`` are
    reduced by leading degree, so each other degree v < c gives w_v = t^v -
    sum_d (v! g_v) / (d! g_d) t^d over its rows g of leading degree d: these
    span W.  w_v o h has order v; ``_gap_functionals`` reads V1 off the
    reduced rows.  Ints: with k_n = h_n / h_1^n, K the lcm of their
    denominators (n < c) and F(x) = f(K x), f o h = F(l(s)) at s = h_1 t / K,
    where l(s) = k(K s)/K has int coefficients k_n K^(n-1) and l_1 = 1.
    Scaling column i by (h_1/K)^i keeps a reduced form, so F o l is reduced
    on ints, then scaled by h_1num^i (h_1den K)^(c-1-i).
    """
    if order(h) != 1:
        raise ValueError("reparametrization series is not a uniformizer")
    h1 = h.coeff(1)
    K = math.lcm(*[(h.coeff(n) / h1**n).denominator for n in range(2, c)])
    l = [(n, (h.coeff(n) * K ** (n - 1) / h1**n).numerator) for n in range(1, c) if h.coeff(n)]
    L = [{0: 1}]  # L[j] = l^j mod s^c, sparse
    for _ in range(1, c):
        L.append(mul_coeffs(L[-1], l, c))
    hp = [h1**i for i in range(c)]
    M = QMatrix(c, c, tuple([Fraction(L[j][i] * hp[i].numerator, hp[i].denominator * K ** (i - j))
                             if i in L[j] else QZERO for i in range(c) for j in range(c)]))
    V = _op_rows(V2.basis, c)
    fact = [math.factorial(i) for i in range(c)]
    ech = Echelon(c - 1)
    for v in [v for v in range(c) if v not in V]:
        w = [(d, Fraction(-fact[v] * g[v], fact[d] * g[d])) for d, g in V.items() if d > v and g[v]]
        den = math.lcm(*[x.denominator for _, x in w])
        r = [0] * c  # F o l for F(x) = den * w_v(K x)
        for d, a in [(v, den)] + [(d, x.numerator * (den // x.denominator)) for d, x in w]:
            a *= K**d
            for i, y in L[d].items():
                r[i] += a * y
        ech.insert_coeffs(_sparse(r))
    scale = [h1.numerator**i * (h1.denominator * K) ** (c - 1 - i) for i in range(c)]
    rows = {p: _primitive([x * e for x, e in zip(r, scale)], p) for p, r in ech.reduced().items()}
    basis = _gap_functionals(rows, [j for j in range(c) if j not in rows])
    return M, InverseSystem(tuple(basis), len(basis), c)


def verify_duality(A: AlgebraInput, S: Staircase) -> bool:
    """Certify the inverse system V of S against A's generators, and Ann(V) = S.

    With c = max(conductor, 1) and delta = c - #values below c: N =
    ``natural_set(A, c - 1)`` has c - 1 - delta elements, and V has delta, is
    its own ``_reduce_ops`` basis (so of degrees < c), and its forms kill N and
    ``S.sparse_rows``, a basis of B mod t^c (so, as 1 lies in B, it has no
    constant term; the reduced rows span the same space).  Proof.  N,
    products of A's generators each adding a pivot, is independent, so the
    operators in degrees 1..c-1 killing it, Ann(N), have dimension
    c - 1 - |N| = delta: V, with delta independent elements there, is its
    canonical reduced basis.  The pairing is perfect in degrees < c, so
    Ann(V) mod t^c has dimension c - delta = #values and is spanned by the
    staircase rows it holds (distinct orders).  Conversely, these give each clause.
    """
    c = max(S.conductor, 1)
    delta, ops, N = c - len(S.values), list(inverse_system(S).basis), _natural_rows(A, c - 1)
    forms = _forms(ops, c)
    rows = [r for _, r, _ in N] + list(S.sparse_rows.values())
    return (len(N) == c - 1 - delta and len(ops) == delta and _reduce_ops(ops, c) == ops
            and not any([x for r in rows for x in _values(forms, r)]))


def rosenlicht(g: DiffOp, c: int):
    """Laurent representative of an inverse-system element.

    Maps exponent -(i+1) to i! times the u^i coefficient of g, for
    exponents in [-c, -1].
    """
    if g.degree > c - 1:
        raise ValueError(f"operator degree {g.degree} exceeds bound {c - 1}")
    return {
        -i - 1: math.factorial(i) * gi
        for i, gi in enumerate(g.coeffs)
        if gi != 0
    }


def residue(f: Series, alpha) -> Fraction:
    """Coefficient of 1/t in f times the Laurent representative."""
    return sum((coef * f.coeff(-e - 1) for e, coef in alpha.items()), Fraction(0))
