"""The duality engine for finite-codimension subalgebras of k[[t]].

Under the pairing ``perp(g, f) = (g(d/dt) f)(0)`` a subalgebra B with
delta invariant d corresponds to a d-dimensional space of polynomial
differential operators annihilating B: its inverse system.  This module
computes that space, decides when an operator space cuts out a
subalgebra (algebra-forming certificates), intersects annihilators with
B, builds standard filtrations with their cutting derivations,
transports inverse systems along reparametrizations, and produces the
Laurent (residue) representatives of inverse-system elements.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import combinations
from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalError, NotAlgebraForming, PrecisionExhausted
from .linalg import Echelon, QMatrix, nullspace, rref
from .series import DiffOp, Series, mul, order, perp, truncate
from .subalgebra import (
    AlgebraInput,
    Staircase,
    _positive_gens,
    closure,
    membership,
)


@dataclass(frozen=True)
class InverseSystem:
    """Reduced basis of an annihilating operator space.

    ``basis`` is in reduced echelon form by leading degree, each element
    monic in its leading coefficient, listed by increasing degree.
    """

    basis: tuple
    dim: int
    conductor_bound: int


@dataclass(frozen=True)
class AFCertificate:
    """Outcome of the algebra-forming test.

    On failure ``witness`` is a series f with perp(g, f) = 0 for every g
    in the tested space but perp(g, f^2) != 0 for some g.
    """

    verdict: bool
    witness: Series | None = None


@dataclass(frozen=True)
class FiltrationStep:
    gap_exponent: int
    new_algebra: Staircase
    cutting_element: Series


@dataclass(frozen=True)
class Filtration:
    """Chain B = B_0 < B_1 < ... < B_delta = k[[t]], one dimension a step.

    Step i adjoins the monomial t^gap_exponent and records a cutting
    element l with Ker(d_l) = B_(i-1) inside B_i.
    """

    steps: tuple


@dataclass(frozen=True)
class CuttingDerivation:
    """Element l of the bigger algebra whose functional cuts out the smaller.

    ``operator`` is the matching differential operator: sum c_i u^i for
    l = sum c_i t^i.
    """

    l: Series
    operator: DiffOp


def _op_echelon(ops, width: int) -> Echelon:
    """Echelon of operators of degree < width, one column per degree.

    Columns run from degree width-1 down to 0, so a row's pivot is its
    leading (highest) degree.
    """
    ech = Echelon(width - 1)
    for g in ops:
        if g.degree >= width:
            raise ValueError(f"operator degree {g.degree} exceeds bound {width - 1}")
        ech.insert_coeffs([g.coeff(width - 1 - k) for k in range(width)])
    return ech


def _monic(g: DiffOp) -> DiffOp:
    """g rescaled monic in its lowest-degree coefficient."""
    return g.scale(Fraction(1) / g.coeffs[min(g.support())])


def _reduce_ops(ops, width: int):
    """Canonical reduced basis of an operator list.

    Echelon by leading (highest) degree, fully reduced, each row then
    rescaled monic in its lowest-degree coefficient, returned by
    increasing degree.  ``width`` bounds degrees: all input degrees must
    be < width.
    """
    ech = _op_echelon(ops, width)
    out = []
    for p in ech.pivots():
        out.append(_monic(DiffOp.make(ech.reduce_fully(p)[::-1])))
    out.sort(key=lambda g: g.degree)
    return out


def _pairing_nullspace(elems, lo: int, hi: int):
    """Nullspace of the rows (i! e_i for i in [lo, hi)), one row per element.

    With no elements the matrix still has hi - lo columns, so the
    nullspace is the identity basis.
    """
    fact = [math.factorial(i) for i in range(lo, hi)]
    entries = tuple([f * e.coeff(lo + k) for e in elems for k, f in enumerate(fact)])
    return nullspace(QMatrix(len(elems), hi - lo, entries))


def _gap_functionals(S: Staircase):
    """The inverse system read off the reduced staircase, one operator per gap.

    For each gap j, in increasing order, returns j! phi_j with
    phi_j = u^j/j! - sum_v (b_v)_j u^v/v!, summed over the positive values
    v, b_v the staircase element of order v.  These are the vectors
    ``_pairing_nullspace(S.positive_basis(), 1, c)`` yields, one per free
    (gap) column, found without elimination.

    Proof.  Under ``perp``, phi_j is the functional f -> f_j - sum_v (b_v)_j f_v.
    The staircase is reduced: b_0 = 1 and each other b_w is t^w plus terms
    on gaps, so phi_j(b_w) = (b_w)_j - (b_w)_j = 0; phi_j(1) = 0 and
    phi_j(t^k) = 0 for k >= c since j and every v lie in [1, c).  So phi_j
    kills the algebra.  phi_j has 1/j! at u^j and its other terms at
    values, so the delta of them are independent.  An operator killing the
    algebra kills 1 and every t^k, k >= c, so it lies in the nullspace of
    the rows of the positive b_v over degrees 1..c-1; these rows have
    distinct orders, so that nullspace has dimension c - #values = delta,
    and the phi_j span it.  (b_v)_j != 0 needs v < j, so u^j leads phi_j and no phi_j
    has a term at another gap: the list is in reduced echelon form by
    leading degree.
    """
    fact = [math.factorial(i) for i in range(S.conductor)]
    rows = [(order(b), b.coeffs) for b in S.positive_basis()]
    out = []
    for j in S.gaps:
        coeffs = [0] * (j + 1)
        coeffs[j] = 1
        for v, bc in rows:
            if j < len(bc) and bc[j]:
                coeffs[v] = -fact[j] * bc[j] / fact[v]
        out.append(DiffOp.make(coeffs))
    return out


def natural_set(A: AlgebraInput, d: int):
    """Truncated generator products of order at most d, deduplicated.

    Breadth-first products of the generators mod t^(d+1); a product is
    kept when it contributes a new pivot order, so the returned list
    spans the non-constant part of the algebra mod t^(d+1).  Products
    whose order exceeds d truncate to zero and are pruned.
    """
    gens = _positive_gens(A)
    base = [truncate(g, d) for g in gens]
    base = [g for g in base if order(g) is not None]
    ech = Echelon(d)
    out = []
    queue = deque()
    for g in base:
        if ech.insert(g) is not None:
            out.append(g)
            queue.append(g)
    while queue:
        f = queue.popleft()
        of = order(f)
        for g0 in base:
            if of + order(g0) > d:
                continue
            p = mul(f, g0)
            if ech.insert(p) is not None:
                out.append(p)
                queue.append(p)
    out.sort(key=order)
    return out


def inverse_system(A: AlgebraInput, S: Staircase) -> InverseSystem:
    """The space of operators g with perp(g, f) = 0 for all f in the algebra.

    Read off the reduced staircase S of A (see ``_gap_functionals``): one
    operator per gap, in reduced echelon form by leading degree, each made
    monic in its lowest-degree coefficient.  ``verify_duality`` checks it
    against an independent solve over the natural spanning set.
    """
    basis = tuple([_monic(g) for g in _gap_functionals(S)])
    return InverseSystem(basis, len(basis), S.conductor)


def is_algebra_forming(V, S: Staircase, A: AlgebraInput | None = None) -> AFCertificate:
    """Certificate that Ann(V) meets the algebra in a subalgebra.

    The solution space L of the linear conditions (all perp(g, h_j)
    combinations vanishing) must lie inside the quadrics f -> perp(g, f^2).
    With f_a = sum lambda_j h_j for each lambda of a nullspace basis of L,
    containment is certified exactly by the values perp(g, f_a^2) and the
    polar forms perp(g, f_a f_b), a < b, for each g in order: perp(g, .) of
    a product is bilinear mod t^(d+1).  On failure the witness f_a, or
    f_a + f_b, is verified against the defining condition.
    """
    ops = [g for g in V if not g.is_zero()]
    for g in ops:
        if g.coeff(0) != 0:
            raise ValueError("operators must have zero constant term")
    if not ops:
        return AFCertificate(True, None)
    if A is None:
        A = AlgebraInput(S.algebra_generators())
    d = max(S.conductor - 1, 1 + max(g.degree for g in ops), 1)
    hs = natural_set(A, d)
    lin = QMatrix.from_rows([[perp(g, h) for h in hs] for g in ops])
    fs = []
    for lam in nullspace(lin):
        f = Series.zero(d)
        for x, h in zip(lam, hs):
            if x != 0:
                f = f + h.scale(x)
        fs.append(f)
    pairs = [(a, a) for a in range(len(fs))] + list(combinations(range(len(fs)), 2))
    for g in ops:
        low = [truncate(f, g.degree) for f in fs]  # perp(g, .) reads no higher term
        for a, b in pairs:
            if perp(g, mul(low[a], low[b])) == 0:
                continue
            f = fs[a] if a == b else fs[a] + fs[b]
            for g2 in ops:
                if perp(g2, f) != 0:
                    raise InternalError("algebra-forming witness fails linear part")
            if perp(g, mul(f, f)) == 0:
                raise InternalError("algebra-forming witness fails quadratic part")
            return AFCertificate(False, f)
    return AFCertificate(True, None)


def annihilator(V, S: Staircase) -> Staircase:
    """Staircase of {f in the algebra : perp(g, f) = 0 for all g in V}.

    Requires V to be algebra-forming (raises NotAlgebraForming with the
    failure certificate otherwise).  Solved inside a window wide enough
    to certify the result's conductor, with the window doubled on
    demand, then re-closed and verified.
    """
    ops = [g for g in V if not g.is_zero()]
    if not ops:
        return S
    cert = is_algebra_forming(ops, S)
    if not cert.verdict:
        raise NotAlgebraForming(cert)
    dmax = max(g.degree for g in ops)
    dim_v = len(_op_echelon(ops, dmax + 1).table)
    W = max(S.conductor, dmax + 1, 4 * (S.delta + dim_v) + 4)
    while True:
        sols = _annihilator_solutions(ops, S, W)
        try:
            C = closure(AlgebraInput(tuple(sols)), ceiling=W)
            break
        except PrecisionExhausted as ex:
            W = max(2 * W, ex.required + 4)
    for b in C.basis:
        if not membership(b, S):
            raise InternalError("annihilator left the ambient algebra")
        for g in ops:
            if perp(g, b) != 0:
                raise InternalError("annihilator basis element not annihilated")
    for j in range(C.conductor, dmax + 1):
        if any(perp(g, Series.monomial(j)) != 0 for g in ops):
            raise InternalError("annihilator conductor window not annihilated")
    return C


def _annihilator_solutions(ops, S: Staircase, W: int):
    span = list(S.basis) + [
        Series.monomial(j) for j in range(max(S.conductor, 1), W + 1)
    ]
    rows = [[perp(g, b) for b in span] for g in ops]
    vecs = nullspace(QMatrix.from_rows(rows))
    sols = []
    for v in vecs:
        coeffs = [Fraction(0)] * (W + 1)
        for x, b in zip(v, span):
            if x != 0:
                for i, bc in enumerate(b.coeffs[: W + 1]):
                    coeffs[i] += x * bc
        s = Series.make(coeffs, W)
        o = order(s)
        if o is not None and o > 0:
            sols.append(s)
    return sols


def standard_filtration(A: AlgebraInput, S: Staircase) -> Filtration:
    """Adjoin the gap monomials t^(c-1), ..., t one at a time to A, S its staircase.

    Each step raises the dimension by exactly one and ends at k[[t]];
    every step records the cutting element whose kernel recovers the
    previous algebra.

    Step i is closed with ceiling S.work_trunc, which always suffices.
    Proof.  Its generators, S's algebra generators and the adjoined
    monomials, are exact, so the closure at a window w sees every value
    up to w.  The step algebra contains t^(c-1) and t^c k[[t]], so its
    conductor c_i is at most c - 1, and it contains S's algebra, so its
    multiplicity e0_i is at most e0.  The run of e0_i values that
    certifies c_i therefore ends by c + e0 - 2, and S, certified by its
    own run ending at c + e0 - 1, has S.work_trunc >= c + e0 - 1.
    """
    base = S.algebra_generators()
    steps = []
    prev = S
    adjoined = []
    for g_exp in sorted(S.gaps, reverse=True):
        adjoined.append(Series.monomial(g_exp))
        Si = closure(AlgebraInput(base + tuple(adjoined)), S.work_trunc)
        if Si.delta != prev.delta - 1:
            raise InternalError("filtration step did not raise dimension by one")
        cd = cutting_derivation(prev, Si)
        steps.append(FiltrationStep(g_exp, Si, cd.l))
        prev = Si
    if steps and not steps[-1].new_algebra.is_whole_ring():
        raise InternalError("filtration did not reach k[[t]]")
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
    op = _monic(_gap_functionals(C)[C.gaps.index(g)])
    return CuttingDerivation(Series.make(list(op.coeffs), None), op)


def is_derivation(g: DiffOp, A: AlgebraInput, S: Staircase) -> bool:
    """Whether g induces a derivation: zero on the square of the maximal ideal."""
    span = S.maximal_ideal_spanning(g.degree)
    for i, f1 in enumerate(span):
        for f2 in span[i:]:
            if order(f1) + order(f2) <= g.degree and perp(g, mul(f1, f2)) != 0:
                return False
    return True


def transport_dual(h: Series, c: int, V2: InverseSystem):
    """Inverse system after the reparametrization t -> h(t).

    M is the c x c matrix whose column j holds the coefficients of h^j;
    the dual map acts by the inverse transpose in the divided-power
    bases (1/i!) u^i.  Returns (M, transported system re-reduced).
    """
    if order(h) != 1:
        raise ValueError("reparametrization series is not a uniformizer")
    hc = truncate(h, c - 1)
    cols = []
    p = Series.one(c - 1)
    for _ in range(c):
        cols.append([p.coeff(i) for i in range(c)])
        p = mul(p, hc)
    M = QMatrix.from_rows([[cols[j][i] for j in range(c)] for i in range(c)])
    # One elimination of [M^T | D], D holding every basis element's
    # divided-power coefficients as a column: its rref is [I | X].
    rhs = [[g.coeff(i) * math.factorial(i) for g in V2.basis] for i in range(c)]
    R, pivots = rref(QMatrix.from_rows([cols[i] + rhs[i] for i in range(c)]))
    if pivots != list(range(c)):
        raise InternalError("transport matrix is singular")
    new_ops = [
        DiffOp.make([R.at(i, c + j) / math.factorial(i) for i in range(c)])
        for j in range(len(V2.basis))
    ]
    basis = _reduce_ops(new_ops, c)
    return M, InverseSystem(tuple(basis), len(basis), c)


def verify_duality(A: AlgebraInput, S: Staircase) -> bool:
    """Check the inverse system of A, S its staircase, independently, then its round trip.

    Solves the pairing conditions over the natural spanning set of A in
    degrees up to c-1, built from A's generators and not from the
    staircase basis, and requires the reduced solution basis to equal
    ``inverse_system(A, S).basis``.  Then solves the dual linear system
    mod t^c and requires its span to be the staircase's: the annihilator
    of the inverse system is the algebra again.
    """
    V = inverse_system(A, S)
    c = S.conductor
    if c == 0:
        return V.dim == 0
    vecs = _pairing_nullspace(natural_set(A, c - 1), 1, c)
    if _reduce_ops([DiffOp.make([0] + list(v)) for v in vecs], c) != list(V.basis):
        return False
    sols = _pairing_nullspace(V.basis, 0, c)
    ech = Echelon(c - 1)
    for v in sols:
        ech.insert_coeffs(v)
    if len(ech.table) != len(S.values):
        return False
    for b in S.basis:
        if ech.insert(truncate(b, c - 1)) is not None:
            return False
    return True


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
