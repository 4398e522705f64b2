"""Truncated power series in t and exact differential operators in u.

A :class:`Series` is known modulo ``t^(trunc+1)``; ``trunc=None`` marks an
exact polynomial (all higher coefficients are genuinely zero), which is
what the expression parser produces and what adaptive-precision closure
relies on.  A :class:`DiffOp` is an exact polynomial in u acting on series
by differentiation; the pairing ``perp(g, f) = (g(d/dt) f)(0)``.  Both
are read-only records (``errors._Record``), compared, hashed and printed
by their fields.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from .errors import PrecisionExhausted, _Record
from .linalg import QZERO as _ZERO, _dense, _sparse


def _q(x) -> Fraction:
    if type(x) is Fraction or type(x) is not int and isinstance(x, Fraction):  # no ABC check for an int
        return x
    return Fraction(x) if x else _ZERO


class Series(_Record):
    """Power series sum(coeffs[i] t^i), known modulo t^(trunc+1)."""

    def __init__(self, coeffs: tuple, trunc: int | None = None):  # None: exact polynomial
        self.__dict__.update(coeffs=coeffs, trunc=trunc)

    @staticmethod
    def make(coeffs, trunc=None) -> "Series":
        coeffs = [_q(c) for c in coeffs]
        if trunc is None:
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
        else:
            if len(coeffs) > trunc + 1:
                coeffs = coeffs[: trunc + 1]
            else:
                coeffs += [_ZERO] * (trunc + 1 - len(coeffs))
        return Series(tuple(coeffs), trunc)

    @staticmethod
    def monomial(exp: int, coeff=1, trunc=None) -> "Series":
        c = _q(coeff)
        if trunc is None and c:
            return Series((_ZERO,) * exp + (c,))
        return Series.make([_ZERO] * exp + [c], trunc)

    @cached_property
    def _ints(self):
        """(order, terms, den) of a nonzero series, None for 0, from one scan:
        ``terms`` are its nonzero coefficients times den, the lcm of their
        denominators, as (exponent, int) pairs by increasing exponent."""
        terms = [(k, x) for k, x in enumerate(self.coeffs) if x]
        den = math.lcm(*[x.denominator for _, x in terms])
        ints = tuple([(k, x.numerator * (den // x.denominator)) for k, x in terms])
        return (terms[0][0], ints, den) if terms else None

    @property
    def exact(self) -> bool:
        return self.trunc is None

    def known_to(self, d: int) -> bool:
        """Whether every coefficient up to t^d is known."""
        return self.trunc is None or self.trunc >= d

    def coeff(self, i: int) -> Fraction:
        if i < len(self.coeffs):
            return self.coeffs[i]
        if self.exact:
            return _ZERO
        raise PrecisionExhausted(i, f"coefficient of t^{i} is beyond truncation {self.trunc}")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: "Series") -> "Series":
        t = _least_trunc(self.trunc, other.trunc)
        n = max(len(self.coeffs), len(other.coeffs)) if t is None else t + 1
        out = [self.coeff(i) + other.coeff(i) for i in range(n)]
        return Series.make(out, t)

    def __sub__(self, other: "Series") -> "Series":
        return self + other.scale(-1)

    def scale(self, a) -> "Series":
        a = _q(a)
        return Series(tuple([c * a for c in self.coeffs]), self.trunc)


def _least_trunc(*truncs):
    """The least of the given truncations, or None when every one is None (exact)."""
    known = [t for t in truncs if t is not None]
    return min(known) if known else None


def order(f: Series):
    """Least exponent with nonzero coefficient, or None if f = 0 mod t^(trunc+1)."""
    for i, c in enumerate(f.coeffs):
        if c:
            return i
    return None


def mul_coeffs(a: dict, terms, n: int) -> dict:
    """The terms below t^n of a product, as a sparse row ``{exponent: nonzero coefficient}``.

    ``a`` is a sparse row and ``terms`` the other factor's (exponent,
    nonzero coefficient) pairs by increasing exponent.  Int inputs give an
    int product; a coefficient that cancels to 0 is left out.
    """
    out = {}
    for i, x in a.items():
        for j, y in terms:
            k = i + j
            if k >= n:
                break
            if k in out:
                out[k] += x * y
            else:
                out[k] = x * y
    return {k: x for k, x in out.items() if x} if 0 in out.values() else out


def mul(f: Series, g: Series) -> Series:
    t = _least_trunc(f.trunc, g.trunc)
    n = max(len(f.coeffs) + len(g.coeffs) if t is None else t + 1, 1)
    prod = mul_coeffs(_sparse(f.coeffs), list(_sparse(g.coeffs).items()), n)
    return Series.make(_dense(prod, n), t)


def _quotient_ints(f, u, n: int) -> list:
    """R = D*f/u mod t^n as n ints, D = u[0]^n, for int coefficient lists f and u, u[0] != 0.

    Fraction-free: q = f/u has q[m] = (f[m] - sum_k u[k]*q[m-k]) / u[0],
    whose denominator divides u[0]^(m+1), so each R[m] = D*q[m], m < n, is
    an int and R[m] = (D*f[m] - sum_k u[k]*R[m-k]) / u[0] divides exactly.
    The sum runs over the nonzero u[k], k >= 1, only.
    """
    b0 = u[0]
    D = b0**n
    terms = [(k, x) for k, x in enumerate(u[1:n], 1) if x]
    R = []
    for m in range(n):
        s = D * f[m] if m < len(f) else 0
        for k, x in terms:
            if k > m:
                break
            s -= x * R[m - k]
        R.append(s // b0)
    return R


def divide_by_unit(f: Series, v: Series, prec: int | None = None) -> Series:
    """Quotient q with q*v = f; v must have nonzero constant term.

    The quotient is an infinite series in general, so when both operands
    are exact a target precision ``prec`` is required.

    f and v are cleared of denominators by one common lcm into ints a and
    b, so q = a/b, which ``_quotient_ints`` computes as R/D, D = b[0]^(t+1).
    """
    if not v.coeffs or v.coeffs[0] == 0:
        raise ValueError("divisor is not a unit")
    t = _least_trunc(f.trunc, v.trunc, prec)
    if t is None:
        raise ValueError("exact operands need an explicit quotient precision")
    fc, vc = f.coeffs[: t + 1], v.coeffs[: t + 1]
    den = math.lcm(*[x.denominator for x in fc + vc if x])
    a = [x.numerator * (den // x.denominator) for x in fc]
    b = [x.numerator * (den // x.denominator) for x in vc]
    D = b[0] ** (t + 1)
    return Series.make([Fraction(r, D) if r else _ZERO for r in _quotient_ints(a, b, t + 1)], t)


def truncate(f: Series, s: int) -> Series:
    """The truncated polynomial: coefficients above s dropped, trunc = s."""
    if not f.known_to(s):
        raise PrecisionExhausted(s)
    return Series.make(list(f.coeffs[: s + 1]), s)


class DiffOp(_Record):
    """Polynomial sum(coeffs[i] u^i) acting on series by differentiation."""

    def __init__(self, coeffs: tuple):
        self.__dict__.update(coeffs=coeffs)

    @staticmethod
    def make(coeffs) -> "DiffOp":
        coeffs = [_q(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return DiffOp(tuple(coeffs))

    @staticmethod
    def monomial(exp: int, coeff=1) -> "DiffOp":
        return DiffOp.make([0] * exp + [coeff])

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero operator."""
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if i < len(self.coeffs) else _ZERO

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self):
        return tuple([i for i, c in enumerate(self.coeffs) if c != 0])

    def __add__(self, other: "DiffOp") -> "DiffOp":
        n = max(len(self.coeffs), len(other.coeffs))
        return DiffOp.make([self.coeff(i) + other.coeff(i) for i in range(n)])

    def scale(self, a) -> "DiffOp":
        a = _q(a)
        return DiffOp.make([c * a for c in self.coeffs])


def perp(g: DiffOp, f: Series) -> Fraction:
    """The pairing (g(d/dt) f)(0) = sum_i g_i * i! * f_i."""
    d = g.degree
    if not f.known_to(d):
        raise PrecisionExhausted(d)
    s = _ZERO
    for i, gi in enumerate(g.coeffs):
        if gi != 0:
            s += gi * math.factorial(i) * f.coeff(i)
    return s
