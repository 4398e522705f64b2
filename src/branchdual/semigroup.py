"""Numerical-semigroup computations.

Gap sets, conductors, symmetry, the three equivalent Gorenstein
predicates for monomial algebras, inverse systems of monomial algebras,
and saturation generators derived from characteristic exponents.  The
semigroup, the Gorenstein check and the characteristic are read-only
records (``errors._Record``).
"""

from __future__ import annotations

import math
from bisect import bisect_left

from .errors import GeneratorError, InternalError, NonCoprime, _Record
from .series import DiffOp

MAX_SIEVE = 100_000  # the largest Schur bound ``from_generators`` sieves up to


class NumericalSemigroup(_Record):
    """Cofinite additive sub-semigroup of the natural numbers.

    ``generators`` is the minimal generating system; ``genus`` counts
    the gaps.
    """

    def __init__(self, generators: tuple, conductor: int, gaps: tuple, e0: int, genus: int):
        self.__dict__.update(generators=generators, conductor=conductor, gaps=gaps, e0=e0, genus=genus)

    def contains(self, n: int) -> bool:
        i = bisect_left(self.gaps, n)  # gaps ascend
        return n >= 0 and (i == len(self.gaps) or self.gaps[i] != n)

    @property
    def frobenius(self) -> int:
        return self.conductor - 1


def from_generators(gens) -> NumericalSemigroup:
    """Semigroup generated by positive integers; sieves the full gap set."""
    gens = sorted(set(int(g) for g in gens))
    if not gens or gens[0] <= 0:
        raise ValueError("generators must be positive integers")
    g = 0
    for a in gens:
        g = math.gcd(g, a)
    if g > 1:
        raise NonCoprime(f"generators have gcd {g}")
    e0 = gens[0]
    bound = _sieve_bound(e0, gens[-1])
    member = [False] * (bound + 1)
    member[0] = True
    for n in range(1, bound + 1):
        member[n] = any(n >= a and member[n - a] for a in gens)
    gaps = tuple(n for n in range(1, bound + 1) if not member[n])
    conductor = (gaps[-1] + 1) if gaps else 0
    minimal = _minimal_generators(member, e0, conductor)
    return NumericalSemigroup(minimal, conductor, gaps, e0, len(gaps))


def _sieve_bound(e0: int, top: int) -> int:
    """Schur bound for generators from e0 to top: the Frobenius number is below (e0-1)(top-1)."""
    bound = (e0 - 1) * (top - 1) + e0 + 1
    if bound > MAX_SIEVE:
        raise GeneratorError(f"sieve bound {bound} exceeds {MAX_SIEVE}")
    return bound


def _minimal_generators(member, e0: int, conductor: int):
    """Elements not expressible as a sum of two smaller nonzero elements.

    ``member`` lists a semigroup up to c + e0.  One ascending pass: a
    member n is such a sum exactly when it is a sum of the minimal
    generators below n, which the bit set ``sums`` holds (each generator's
    multiples added by doubling shifts), so n is a generator exactly when
    its bit is not set.  Every n > c + e0 is e0 plus the member n - e0 > c.
    """
    top = conductor + e0
    mask = (1 << (top + 1)) - 1
    sums = 1  # bit n: n is a sum of the generators found so far
    out = []
    for n in range(1, top + 1):
        if member[n] and not sums >> n & 1:
            out.append(n)
            sums = _add_multiples(sums, n, mask)
    return tuple(out)


def _add_multiples(bits: int, s: int, mask: int) -> int:
    """``bits`` with k + j*s added for each member k and j >= 0, within
    ``mask``: shifts by s, 2s, .., 2^i*s add every j < 2^(i+1)."""
    n = mask.bit_length()
    while s < n:
        bits |= (bits << s) & mask
        s *= 2
    return bits


def from_staircase(values, conductor: int) -> NumericalSemigroup:
    """Semigroup from a value window: members below c plus everything from c on."""
    if conductor == 0:
        return from_generators([1])
    positive = [v for v in values if v > 0]
    e0 = min(positive) if positive else conductor
    member = [False] * (conductor + e0 + 2)
    for v in values:
        member[v] = True
    for n in range(conductor, conductor + e0 + 2):
        member[n] = True
    gaps = tuple(n for n in range(1, conductor) if not member[n])
    minimal = _minimal_generators(member, e0, conductor)
    return NumericalSemigroup(minimal, conductor, gaps, e0, len(gaps))


def is_symmetric(D: NumericalSemigroup) -> bool:
    """Whether membership of t is equivalent to non-membership of c-1-t."""
    c = D.conductor
    return all(D.contains(t) != D.contains(c - 1 - t) for t in range(c))


def monomial_inverse_system(D: NumericalSemigroup) -> InverseSystem:
    """Inverse system of the monomial algebra: one u^i per gap i."""
    from .inverse_system import InverseSystem  # here: subalgebra imports this module

    basis = tuple(DiffOp.monomial(i) for i in D.gaps)
    return InverseSystem(basis, D.genus, D.conductor)


class GorensteinCheck(_Record):
    def __init__(self, symmetric: bool, c_equals_2delta: bool, palindromic_inverse: bool):
        self.__dict__.update(
            symmetric=symmetric, c_equals_2delta=c_equals_2delta, palindromic_inverse=palindromic_inverse
        )


def gorenstein_check(D: NumericalSemigroup) -> GorensteinCheck:
    """The three Gorenstein predicates, computed independently.

    Symmetry by definition, conductor = 2 * genus, and the palindromic
    condition that reversing the gap polynomial lands inside the
    semigroup algebra (for each gap i, c-1-i is a member).  Their mutual
    equivalence is asserted.
    """
    sym = is_symmetric(D)
    c2d = D.conductor == 2 * D.genus
    palin = all(D.contains(D.conductor - 1 - i) for i in D.gaps)
    if not (sym == c2d == palin):
        raise InternalError("Gorenstein predicates disagree")
    return GorensteinCheck(sym, c2d, palin)


class Characteristic(_Record):
    """Multiplicity with characteristic exponents and their normalization.

    The derived pairs satisfy beta_v / e0 = m_v / (n_1 ... n_v) with
    gcd(m_v, n_v) = 1.  Each exponent must lower gcd(e0, beta_1, ...,
    beta_v) (n_v > 1), and the last must bring it to 1.
    """

    def __init__(self, e0: int, betas: tuple, m: tuple = (), n: tuple = ()):
        self.__dict__.update(e0=e0, betas=betas, m=m, n=n)

    @staticmethod
    def make(e0: int, betas) -> "Characteristic":
        e0 = int(e0)
        betas = tuple(int(b) for b in betas)
        if e0 < 1:
            raise ValueError("invalid characteristic: multiplicity must be positive")
        if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
            raise ValueError("invalid characteristic: exponents must increase strictly")
        if betas and betas[0] <= e0:
            raise ValueError("invalid characteristic: exponents must exceed the multiplicity")
        ms, ns = [], []
        e_prev = e0
        for b in betas:
            e_cur = math.gcd(e_prev, b)
            if e_cur == e_prev:
                raise ValueError(f"invalid characteristic: {b} does not lower the gcd {e_prev}")
            ns.append(e_prev // e_cur)
            ms.append(b // e_cur)
            e_prev = e_cur
        if e_prev != 1:
            raise ValueError("invalid characteristic: exponents do not reach gcd 1")
        return Characteristic(e0, betas, tuple(ms), tuple(ns))


def saturation_from_characteristic(ch: Characteristic) -> NumericalSemigroup:
    """Semigroup of the saturation, from the characteristic exponents.

    Emits the multiplicity, the middle families s * n_(v+1) ... n_g for
    m_v <= s <= floor(m_(v+1) / n_(v+1)), and the top window m_g + i for
    0 <= i < e0, then minimalizes.  Every exponent is at most m_g + e0 - 1
    (m_g = beta_g): the sieve bound is checked before any is listed.
    """
    if not ch.m and ch.betas:
        ch = Characteristic.make(ch.e0, ch.betas)
    g = len(ch.betas)
    if ch.e0 == 1:  # 1 generates all of N
        return from_generators([1])
    _sieve_bound(ch.e0, ch.m[-1] + ch.e0 - 1)
    exps = {ch.e0}
    for v in range(g - 1):
        tail = 1
        for n in ch.n[v + 2 :]:
            tail *= n
        n_next = ch.n[v + 1]
        hi = ch.m[v + 1] // n_next
        for s in range(ch.m[v], hi + 1):
            exps.add(s * n_next * tail)
    if g > 0:
        for i in range(ch.e0):
            exps.add(ch.m[g - 1] + i)
    return from_generators(sorted(exps))
