"""Independent oracles for the test suite.

Everything here is deliberately written from first principles, without
importing any algorithmic code from the package under test: naive
sieves, naive Gaussian elimination over plain Fraction lists, and
exhaustive enumeration.  Oracle outputs are frozen into the tests.
"""

from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction


# ---------------------------------------------------------------------------
# numerical semigroups


def sieve(gens, bound=None):
    """Membership list of the semigroup generated by gens, up to bound."""
    gens = sorted(set(gens))
    if bound is None:
        bound = (gens[0] - 1) * (gens[-1] - 1) + gens[0] + 2
    member = [False] * (bound + 1)
    member[0] = True
    for n in range(1, bound + 1):
        member[n] = any(n >= a and member[n - a] for a in gens)
    return member


def semigroup_data(gens):
    """(gaps, conductor, genus) by naive sieve; requires gcd 1."""
    member = sieve(gens)
    gaps = [n for n, m in enumerate(member) if not m and n > 0]
    conductor = (gaps[-1] + 1) if gaps else 0
    return tuple(gaps), conductor, len(gaps)


def enumerate_semigroups(max_genus):
    """All numerical semigroups of genus <= max_genus, as frozensets of gaps.

    Tree search from the full semigroup: each child removes one minimal
    generator larger than the current Frobenius number.
    """
    out = [frozenset()]
    frontier = [frozenset()]
    for _ in range(max_genus):
        nxt = []
        for gaps in frontier:
            for g in _removable_generators(gaps):
                child = gaps | {g}
                nxt.append(child)
        out.extend(nxt)
        frontier = nxt
    return out


def _removable_generators(gaps):
    """Minimal generators larger than the Frobenius number of the gap set."""
    frob = max(gaps) if gaps else 0
    bound = 2 * frob + 4
    member = [n not in gaps for n in range(bound + 1)]
    member[0] = True
    mingens = [
        n
        for n in range(1, bound + 1)
        if member[n] and not any(member[m] and member[n - m] for m in range(1, n))
    ]
    return [g for g in mingens if g > frob]


def gaps_to_generators(gaps, max_guess=64):
    """Minimal generators of the semigroup with the given gap set."""
    frob = max(gaps) if gaps else 0
    bound = 2 * frob + max_guess
    member = [n not in gaps for n in range(bound + 1)]
    member[0] = True
    return tuple(
        n
        for n in range(1, frob + min(g for g in range(1, bound) if member[g]) + 1)
        if member[n] and not any(member[m] and member[n - m] for m in range(1, n))
    )


def euclid_multiplicities(e0, betas):
    """Multiplicity sequence of a plane branch with characteristic (e0; betas), to its first 1.

    Enriques: Euclid's algorithm on (beta_i - beta_(i-1), e_(i-1)), with
    beta_0 = 0 and e_i = gcd(e_(i-1), beta_i), for each exponent in turn;
    each divisor d of a step a = q*d + r is a multiplicity q times.  The
    sequence stays 1 once e_i = 1, so it is cut at its first 1.
    """
    out, prev, e = [], 0, e0
    for b in betas:
        a, d = b - prev, e
        while d:
            q, r = divmod(a, d)
            out += [d] * q
            a, d = d, r
        prev, e = b, a  # a = gcd(e_(i-1), beta_i - beta_(i-1))
    return tuple([m for m in out if m > 1] + [1])


def plane_branch_facts(e0, betas):
    """Invariants of a plane branch with characteristic (e0; betas), in closed form.

    x = t^e0 and y = sum a_i t^(beta_i) plus any non-characteristic terms,
    a_i != 0.  The semigroup is generated by Zariski's bar-beta: bbar_0 =
    e0, bbar_1 = beta_1, bbar_(i+1) = n_i bbar_i - beta_i + beta_(i+1), with
    e_i = gcd(e0, beta_1..beta_i) and n_i = e_(i-1)/e_i; its gaps are sieved
    here.  A plane branch is Gorenstein, c = 2 delta; it is k[[x, y]]/(f)
    with ord f = e0, so HF(n) = min(n+1, e0), first e0 at n = e0 - 1; the
    multiplicities follow Euclid (``euclid_multiplicities``).  Returns a
    dict: generators, gaps, delta, conductor, hf (n = 0..e0), multiplicities.
    """
    es = [e0]
    for b in betas:
        es.append(math.gcd(es[-1], b))
    assert es[-1] == 1 and all(a > b for a, b in zip(es, es[1:])), "not a characteristic"
    bbar = [e0] + list(betas[:1])
    for i in range(1, len(betas)):
        bbar.append(es[i - 1] // es[i] * bbar[i] - betas[i - 1] + betas[i])
    gaps, conductor, delta = semigroup_data(bbar)
    assert conductor == 2 * delta
    return {
        "generators": tuple(bbar),
        "gaps": gaps,
        "delta": delta,
        "conductor": conductor,
        "hf": tuple([min(n + 1, e0) for n in range(e0 + 1)]),
        "multiplicities": euclid_multiplicities(e0, betas),
    }


# ---------------------------------------------------------------------------
# naive exact linear algebra (independent of branchdual.linalg)


def _gauss_jordan(rows, ncols):
    """(reduced row echelon rows, pivot columns) by naive elimination."""
    mat = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat[:r], pivots


def gauss_nullspace(rows, ncols):
    """Nullspace basis of a list-of-lists Fraction matrix, naive elimination."""
    mat, pivots = _gauss_jordan(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for rr, pc in enumerate(pivots):
            v[pc] = -mat[rr][fc]
        basis.append(v)
    return basis


def span_rank(rows, ncols):
    return len(_gauss_jordan(rows, ncols)[1])


def support(coeffs):
    """The exponents of the nonzero coefficients, increasing."""
    return tuple([i for i, c in enumerate(coeffs) if c])


def canonical_operator_basis(vectors, ncols):
    """Canonical basis of the span of operator coefficient lists (index = degree).

    Reduced row echelon form with pivots at the highest degrees, each row
    then scaled monic in its lowest-degree coefficient; returned by
    increasing degree as {degree: coefficient} dicts.  Entries at index
    ncols or above must be zero.
    """
    rows = [[Fraction(v[i]) if i < len(v) else Fraction(0) for i in reversed(range(ncols))]
            for v in vectors]
    out = []
    for r in _gauss_jordan(rows, ncols)[0]:
        d = {ncols - 1 - k: x for k, x in enumerate(r) if x != 0}
        low = d[min(d)]
        out.append({i: x / low for i, x in sorted(d.items())})
    return sorted(out, key=max)


def reduced_per_column(table, pivots, n):
    """``linalg._back_substitute(table, pivots, n)`` as it was computed before
    it took one integer combination per row: back-substitution one pivot
    column at a time.

    Each row ``table[p]``, p in ``pivots`` (all below n), cut at t^n, from
    the highest pivot down, clears every pivot column q of the rows already
    done at which it is nonzero, in turn: with P that row's entry at q, r
    its own and g = gcd(P, r), it becomes (P/g) row - (r/g) done_q, with its
    content divided out.  The result is made primitive, positive at p.
    Returns {p: dense int tuple of n entries} by increasing p.
    """
    out = {}
    for p in sorted(pivots, reverse=True):
        row = {k: x for k, x in table[p].items() if k < n}
        for q in [q for q in row if q in out]:
            g = math.gcd(out[q][q], row[q])
            big, small = out[q][q] // g, row[q] // g
            row = {k: big * row.get(k, 0) - small * out[q].get(k, 0) for k in set(row) | set(out[q])}
            row = {k: x for k, x in row.items() if x}
            content = math.gcd(*row.values())
            row = {k: x // content for k, x in row.items()}
        content = math.gcd(*row.values()) * (1 if row[p] > 0 else -1)
        out[p] = {k: x // content for k, x in row.items()}
    return {p: tuple([out[p].get(k, 0) for k in range(n)]) for p in sorted(out)}


# ---------------------------------------------------------------------------
# transport by solving the dual system


def _sparse_mul(a, terms, n):
    """The terms below t^n of a product of a sparse row and (exponent, coefficient) pairs."""
    out = {}
    for i, x in a.items():
        for j, y in terms:
            if i + j < n:
                out[i + j] = out.get(i + j, 0) + x * y
    return {k: x for k, x in out.items() if x}


def transport_solve_naive(h, c, V2):
    """(M, V1) for the reparametrization t -> h(t), by solving the dual system.

    ``h`` is an exact series and ``V2`` an operator space, read only through
    their ``coeffs``.  M is the c x c list of rows whose column j holds the
    coefficients of h^j (naive powers); V1 is ``canonical_operator_basis``
    of the solutions X (as operators, X_i / i! at u^i) of M^T X = D, one
    per element g of V2 with D_i = i! g_i, i < c.  Raises ValueError when h
    is not a uniformizer.

    M^T is upper triangular (row j holds h^j, of order j) and is solved by
    back-substitution on ints.  With k_n = h_n / h_1^n and K the lcm of
    their denominators, 2 <= n < c, l(s) = k(K s)/K has int coefficients
    k_n K^(n-1) and l_1 = 1, and h(t) = K l(h_1 t / K), so
    (h^j)_i = K^(j-i) h_1^i (l^j)_i.  With W_i = (h_1/K)^i X_i the system
    is sum_i (l^j)_i W_i = D_j / K^j, unit upper triangular over the ints:
    its solution is an int vector U over e K^(c-1), e the lcm of the
    basis's denominators, found with no division.
    """
    hc = [Fraction(x) for x in h.coeffs]
    hc += [Fraction(0)] * (c + 1 - len(hc))
    if next((i for i, x in enumerate(hc) if x), None) != 1:
        raise ValueError("reparametrization series is not a uniformizer")
    power, powers = [Fraction(1)] + [Fraction(0)] * (c - 1), []
    for _ in range(c):
        powers.append(power)
        power = poly_mul(power, hc, c - 1)
    M = [[powers[j][i] for j in range(c)] for i in range(c)]
    h1 = hc[1]
    K = math.lcm(*[(hc[n] / h1**n).denominator for n in range(2, c)])
    l = [(n, (hc[n] * K ** (n - 1) / h1**n).numerator) for n in range(1, c) if hc[n]]
    L = [{0: 1}]  # L[j] = l^j mod s^c
    for _ in range(1, c):
        L.append(_sparse_mul(L[-1], l, c))
    basis = [[Fraction(x) for x in g.coeffs] for g in V2.basis]
    e = math.lcm(*[x.denominator for g in basis for x in g])
    D = [[x.numerator * (e // x.denominator) for x in g[:c]] + [0] * (c - len(g)) for g in basis]
    fact = [math.factorial(i) for i in range(c)]
    U = [[0] * c for _ in basis]
    for j in range(c - 1, -1, -1):
        rest = [(i, x) for i, x in L[j].items() if i > j]
        scale = K ** (c - 1 - j) * fact[j]
        for u, r in zip(U, D):
            u[j] = r[j] * scale - sum(x * u[i] for i, x in rest)
    # X_i / i! = U_i / (e K^(c-1-i) h_1^i i!)
    den = [e * K ** (c - 1 - i) * fact[i] * h1**i for i in range(c)]
    ops = [[Fraction(x * d.denominator, d.numerator) for x, d in zip(u, den)] for u in U]
    return M, canonical_operator_basis(ops, c)


# ---------------------------------------------------------------------------
# naive series division


def divide_by_unit_naive(f, v, prec=None):
    """(coefficients, trunc) of the quotient q with q*v = f.

    The schoolbook recurrence q[n] = (f[n] - sum_{k=1..n} v[k] q[n-k]) / v[0]
    in Fraction arithmetic, over every k.  f and v are read only through
    ``coeffs`` and ``trunc`` (None: an exact polynomial); the quotient is
    known up to t^t with t the least of the operands' truncations and prec.
    Raises ValueError for a non-unit v and for exact operands without prec.
    """
    if not v.coeffs or v.coeffs[0] == 0:
        raise ValueError("divisor is not a unit")
    known = [s.trunc for s in (f, v) if s.trunc is not None]
    if prec is not None:
        known.append(prec)
    if not known:
        raise ValueError("exact operands need an explicit quotient precision")
    t = min(known)

    def coeff(s, i):
        return Fraction(s.coeffs[i]) if i < len(s.coeffs) else Fraction(0)

    q = [Fraction(0)] * (t + 1)
    for n in range(t + 1):
        s = coeff(f, n)
        for k in range(1, n + 1):
            s -= coeff(v, k) * q[n - k]
        q[n] = s / coeff(v, 0)
    return q, t


# ---------------------------------------------------------------------------
# naive subalgebra span (coefficient lists mod t^(T+1))


def poly_mul(a, b, T):
    out = [Fraction(0)] * (T + 1)
    for i, x in enumerate(a):
        if x == 0 or i > T:
            continue
        for j, y in enumerate(b):
            if i + j > T:
                break
            if y != 0:
                out[i + j] += x * y
    return out


def algebra_span(gen_coeff_lists, T):
    """Row space of the algebra generated by the inputs, mod t^(T+1).

    Naive fixed-point iteration: repeatedly multiply every pair of
    current spanning rows and re-eliminate, until the rank stops
    growing.  Returns the list of reduced rows (including the constant).
    """
    rows = [[Fraction(1)] + [Fraction(0)] * T]
    for g in gen_coeff_lists:
        rows.append([Fraction(g[i]) if i < len(g) else Fraction(0) for i in range(T + 1)])
    while True:
        reduced = _eliminate(rows, T)
        products = []
        for i in range(len(reduced)):
            for j in range(i, len(reduced)):
                products.append(poly_mul(reduced[i], reduced[j], T))
        bigger = _eliminate(reduced + products, T)
        if len(bigger) == len(reduced):
            return bigger
        rows = bigger


def _eliminate(rows, T):
    table = {}
    for row in rows:
        row = list(row)
        while True:
            o = next((i for i, c in enumerate(row) if c != 0), None)
            if o is None:
                break
            if o in table:
                f = row[o]
                row = [a - f * b for a, b in zip(row, table[o])]
            else:
                inv = Fraction(1) / row[o]
                table[o] = [x * inv for x in row]
                break
    return [table[o] for o in sorted(table)]


def span_orders(gen_coeff_lists, T):
    """Set of pivot orders of the generated algebra mod t^(T+1)."""
    rows = algebra_span(gen_coeff_lists, T)
    return {next(i for i, c in enumerate(r) if c != 0) for r in rows}


def staircase_naive(gen_coeff_lists, T):
    """(gaps, reduced rows below the conductor) of the algebra, read off ``algebra_span``.

    The gaps are the orders in [1, T] of no row of the span mod t^(T+1),
    and the conductor c is one past the last of them.  The rows are the
    span cut to its first c columns, by naive Gauss-Jordan: one monic row
    per value below c, zero at every other value.  Meaningful once T is
    at least c + e0 - 1, so that the run of values from c is seen.
    """
    rows = algebra_span(gen_coeff_lists, T)
    orders = {next(i for i, x in enumerate(r) if x) for r in rows}
    gaps = tuple(sorted(set(range(1, T + 1)) - orders))
    c = gaps[-1] + 1 if gaps else 0
    return gaps, _gauss_jordan([r[:c] for r in rows], c)[0]


def closure_naive(gens, ceiling):
    """What ``closure(gens, ceiling)`` returns or raises, from the naive span of each window.

    ``gens`` are (coefficients, trunc) pairs, trunc None for an exact
    polynomial, each of positive order.  Follows the window schedule that
    ``closure`` documents: the first window min(max(4(o_min + o_max), 16),
    cap), cap the ceiling or the least generator truncation, doubling (or
    jumping to what a window asks for) up to cap.  At window w the values
    are the orders of ``algebra_span`` mod t^(w+1).  A window with no
    positive value asks for the largest generator order; one whose values
    have gcd g > 1 is conclusive from max(gcd window,
    (maxdeg - 1)(maxdeg - 2) + 1) on, the gcd window being
    max(64, 2 * maxdeg + 2, 4(o_min + o_max)), else asks for
    max(gcd window, w + 1); one with no run of e0 values from the
    conductor c inside it asks for 2w.  Returns
    ("ok", gaps, rows, w), rows the reduced span cut at max(c, 1) by naive
    Gauss-Jordan; ("infinite", g, positive values); or ("precision",
    required) when the window at cap asks for more.
    """
    orders = [next(i for i, x in enumerate(c) if x) for c, _ in gens]
    cap = min([ceiling] + [t for _, t in gens if t is not None])
    w = min(max(4 * (min(orders) + max(orders)), 16), cap)
    maxdeg = max(len(c) - 1 for c, _ in gens)
    gcd_window = max(64, 2 * maxdeg + 2, 4 * (min(orders) + max(orders)))
    proved = max(gcd_window, (maxdeg - 1) * (maxdeg - 2) + 1)
    while True:
        span = algebra_span([list(c[: w + 1]) for c, _ in gens], w)
        values = {next(i for i, x in enumerate(r) if x) for r in span}
        positive = sorted(v for v in values if v)
        g = math.gcd(*positive)
        gaps = [i for i in range(1, w + 1) if i not in values]
        c = gaps[-1] + 1 if gaps else 0
        if not positive:
            required = max(orders)
        elif g > 1:
            if w >= proved:
                return ("infinite", g, tuple(positive))
            required = max(gcd_window, w + 1)
        elif any(j not in values for j in range(c, c + positive[0])):
            required = 2 * w
        else:
            top = max(c, 1)
            return ("ok", tuple(gaps), _gauss_jordan([r[:top] for r in span], top)[0], w)
        if w >= cap:
            return ("precision", required)
        w = min(max(2 * w, required), cap)


def hilbert_naive(gen_coeff_lists, n, T):
    """[dim B/m^(i+1) for i in 0..n] for B generated by the inputs, counted mod t^(T+1).

    The generators generate the maximal ideal m as an ideal, so m^(i+1)
    mod t^(T+1) is spanned by the products of the rows of m^i mod t^(T+1)
    with the generators.  Each count is the rank of B minus the rank of
    m^(i+1), both the number of rows left by naive elimination in the one
    window.  That is dim B/m^(i+1) once t^(T+1) k[[t]] lies in m^(i+1),
    which holds for T >= c + i*e0 - 1; ValueError when the window is
    smaller, judged by the conductor and multiplicity read off the span.
    """
    rows_b = algebra_span(gen_coeff_lists, T)
    orders = {next(i for i, c in enumerate(r) if c != 0) for r in rows_b}
    gaps = [i for i in range(1, T + 1) if i not in orders]
    conductor = gaps[-1] + 1 if gaps else 1
    e0 = min(o for o in orders if o > 0)
    window_ok = all(i in orders for i in range(conductor, conductor + e0))
    if not window_ok or T < conductor + n * e0 - 1:
        raise ValueError(f"window t^{T} is too small for {n} powers")
    gens = [[Fraction(g[i]) if i < len(g) else Fraction(0) for i in range(T + 1)]
            for g in gen_coeff_lists]
    power = [r for r in rows_b if r[0] == 0]
    out = [len(rows_b) - len(power)]
    for _ in range(n):
        power = _eliminate([poly_mul(a, g, T) for a in power for g in gens], T)
        out.append(len(rows_b) - len(power))
    return out


def perp_list(g_coeffs, f_coeffs):
    """Pairing sum g_i * i! * f_i on plain coefficient lists."""
    s = Fraction(0)
    for i, gi in enumerate(g_coeffs):
        if gi != 0 and i < len(f_coeffs):
            s += Fraction(gi) * math.factorial(i) * Fraction(f_coeffs[i])
    return s


def brute_force_algebra_forming(ops, gen_coeff_lists, T):
    """Definitional algebra-forming check.

    Computes the solution space {f in algebra span, g.f = 0 for all g}
    mod t^(T+1) and tests whether every product of two solutions is
    again annihilated (char-0 polarization makes pair products
    equivalent to squares).  T must be at least twice the largest
    operator degree for products to be scored exactly.
    """
    span = algebra_span(gen_coeff_lists, T)
    cond = [[perp_list(g, b) for b in span] for g in ops]
    null = gauss_nullspace(cond, len(span))
    sols = []
    for v in null:
        f = [Fraction(0)] * (T + 1)
        for x, b in zip(v, span):
            if x != 0:
                for i, bc in enumerate(b):
                    f[i] += x * bc
        sols.append(f)
    for i in range(len(sols)):
        for j in range(i, len(sols)):
            p = poly_mul(sols[i], sols[j], T)
            for g in ops:
                if perp_list(g, p) != 0:
                    return False
    return True


def quadric_algebra_forming(ops, hs, null, T):
    """Reference quadric test of the algebra-forming certificate, by Q matrices.

    ``hs`` are the natural-set elements as coefficient lists mod t^(T+1)
    and ``null`` a basis of the solutions lambda of sum_j lambda_j
    perp(g, h_j) = 0.  For each operator g in order, with
    Q[j][l] = perp(g, h_j h_l), the first lambda with lambda Q lambda != 0
    fails, else the first pair a < b with L[a] Q L[b] != 0, as L[a] + L[b].
    Returns (True, None) or (False, the witness sum lambda_j h_j).
    """
    m = len(hs)
    for g in ops:
        Q = [[perp_list(g, poly_mul(hs[j], hs[l], T)) for l in range(m)] for j in range(m)]

        def form(x, y):
            return sum(x[j] * Q[j][l] * y[l] for j in range(m) for l in range(m))

        bad = [lam for lam in null if form(lam, lam) != 0]
        bad += [[x + y for x, y in zip(null[a], null[b])]
                for a in range(len(null)) for b in range(a + 1, len(null))
                if form(null[a], null[b]) != 0]
        if bad:
            f = [Fraction(0)] * (T + 1)
            for x, h in zip(bad[0], hs):
                for i, hc in enumerate(h[: T + 1]):
                    f[i] += x * hc
            return False, f
    return True, None


def _order_list(coeffs):
    return next((i for i, x in enumerate(coeffs) if x != 0), None)


def maximal_ideal_rows(B, d):
    """Spanning rows of B's maximal ideal mod t^(d+1): positive basis and t^k, c <= k <= d.

    B is a staircase, read only through ``basis`` and ``conductor``.
    """
    rows = [list(b.coeffs) for b in B.basis if 0 < _order_list(b.coeffs) <= d]
    rows += [[0] * k + [1] for k in range(max(B.conductor, 1), d + 1)]
    return rows


def two_pass_cutting_element(C, B):
    """Reference cutting element of C inside B, by a two-pass search.

    C and B are staircases, read only through ``basis`` (each element's
    ``coeffs``), ``gaps`` and ``conductor``.  The candidates are, for each
    gap j of C in increasing order, the operator j! phi_j with
    phi_j(f) = f_j - sum_v (c_v)_j f_v over C's positive basis elements c_v.
    The first pass takes the first candidate that is nonzero on B's
    maximal ideal mod t^(c_C) and kills every product of two of its
    spanning rows; the second pass drops the product condition.  Returns
    the operator's coefficients monic in the lowest-degree one, or None.
    """
    cands = []
    for j in C.gaps:
        g = [Fraction(0)] * j + [Fraction(1)]
        for b in C.basis:
            v = _order_list(b.coeffs)
            if 0 < v < j < len(b.coeffs):
                g[v] -= Fraction(math.factorial(j), math.factorial(v)) * b.coeffs[j]
        cands.append(g)
    span = maximal_ideal_rows(B, C.conductor - 1)

    def kills_products(g):
        d = len(g) - 1
        rows = maximal_ideal_rows(B, d)
        return all(perp_list(g, poly_mul(f1, f2, d)) == 0
                   for i, f1 in enumerate(rows) for f2 in rows[i:])

    for require_derivation in (True, False):
        for g in cands:
            if all(perp_list(g, f) == 0 for f in span):
                continue
            if require_derivation and not kills_products(g):
                continue
            low = next(x for x in g if x != 0)
            return [x / low for x in g]
    return None


# ---------------------------------------------------------------------------
# randomized instances


def random_branch(rng: random.Random, max_delta=6):
    """Generator coefficient dicts of a random finite-codimension algebra.

    A random semigroup of genus <= max_delta perturbed by random
    rational tails supported on its own gaps.
    """
    sgs = [g for g in enumerate_semigroups(max_delta) if g]
    gaps = rng.choice(sgs)
    gens = gaps_to_generators(set(gaps))
    conductor = max(gaps) + 1
    out = []
    for a in gens:
        coeffs = {a: Fraction(1)}
        for e in range(a + 1, conductor):
            if rng.random() < 0.3:
                coeffs[e] = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        out.append(coeffs)
    return out


def coeff_dict_to_list(d):
    n = max(d) + 1 if d else 0
    return [Fraction(d.get(i, 0)) for i in range(n)]


def derivation_naive(g_coeffs, B):
    """Whether the operator g kills the square of B's maximal ideal, by every pair.

    Every two spanning rows of the maximal ideal mod t^(d+1), d = deg g,
    whose orders add up to at most d; no window.  ``B`` is a staircase.
    """
    d = len(g_coeffs) - 1
    rows = maximal_ideal_rows(B, d)
    for i, a in enumerate(rows):
        for b in rows[i:]:
            if _order_list(a) + _order_list(b) <= d and perp_list(g_coeffs, poly_mul(a, b, d)) != 0:
                return False
    return True


# ---------------------------------------------------------------------------
# report formatting, on Fractions


def decimal_naive(n):
    """The decimal digits of an int of any size, by repeated division by
    10^9, with no ``str()`` of a long int (which refuses more than
    ``sys.get_int_max_str_digits()`` digits)."""
    sign, n, parts = "-" if n < 0 else "", abs(n), []
    while True:
        n, r = divmod(n, 10**9)
        parts.append(r)
        if not n:
            break
    return sign + str(parts[-1]) + "".join([f"{r:09d}" for r in reversed(parts[:-1])])


def format_terms_naive(terms, var):
    """The (exponent, nonzero Fraction) pairs, by increasing exponent, as an
    expression: signs, magnitudes and unit coefficients read off the
    Fractions themselves."""
    if not terms:
        return "0"
    parts = []
    for k, (i, c) in enumerate(terms):
        neg = c < 0
        mag = format_rational_naive(-c if neg else c)
        if i == 0:
            body = mag
        else:
            head = "" if mag == "1" else f"{mag} "
            body = f"{head}{var}" if i == 1 else f"{head}{var}^{i}"
        if k == 0:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


def format_rational_naive(x):
    """A rational as "p" or "p/q", of any number of digits."""
    x = Fraction(x)
    num = decimal_naive(x.numerator)
    return num if x.denominator == 1 else f"{num}/{decimal_naive(x.denominator)}"


# ---------------------------------------------------------------------------
# records


def _default(value):
    return dataclasses.field(default=value)


# The public record types as ``dataclasses`` declares them: name -> (fields,
# frozen, eq), a field being a name or (name, type, dataclasses.Field).
RECORD_FIELDS = {
    "Series": (["coeffs", ("trunc", object, _default(None))], True, True),
    "DiffOp": (["coeffs"], True, True),
    "Staircase": (["rows", "conductor", "work_trunc"], True, False),
    "AlgebraInput": (["gens"], True, True),
    "HilbertData": (["hf", "hf1", "e1"], True, True),
    "BlowupChain": (["steps"], True, True),
    "InverseSystem": (["basis", "dim", "conductor_bound"], True, True),
    "AFCertificate": (["verdict", ("witness", object, _default(None))], True, True),
    "FiltrationStep": (["gap_exponent", "new_algebra", "cutting_element"], True, True),
    "Filtration": (["steps"], True, True),
    "CuttingDerivation": (["l", "operator"], True, True),
    "NumericalSemigroup": (["generators", "conductor", "gaps", "e0", "genus"], True, True),
    "GorensteinCheck": (["symmetric", "c_equals_2delta", "palindromic_inverse"], True, True),
    "Characteristic": (["e0", "betas"], True, True),
    "QMatrix": (["rows", "cols", "entries"], True, True),
    "JobSpec": (["command", ("generators", object, dataclasses.field(default_factory=list)),
                 ("options", object, dataclasses.field(default_factory=dict))], False, True),
}


def dataclass_twin(name: str):
    """A ``dataclasses`` class with the record type's name, fields and flags."""
    fields, frozen, eq = RECORD_FIELDS[name]
    return dataclasses.make_dataclass(name, fields, frozen=frozen, eq=eq)


def field_names(name: str) -> list:
    """The record type's field names, in order."""
    return [f if isinstance(f, str) else f[0] for f in RECORD_FIELDS[name][0]]
