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
from functools import cached_property

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


def from_generators(gens) -> NumericalSemigroup:
    """Semigroup generated by positive integers.

    Sieves one bit set up to the Schur bound b, which is checked before the
    set is built: each generator that is not yet a member adds its
    multiples (``_add_multiples``), at most log2(b) shifts of a b-bit int,
    and a member adds nothing.  Membership is read off the set's binary
    digits, written again after each addition (at most e0: each adds a
    minimal generator), not by shifting the set once per generator.
    """
    gens = sorted(set(int(g) for g in gens))
    if not gens or gens[0] <= 0:
        raise ValueError("generators must be positive integers")
    g = math.gcd(*gens)
    if g > 1:
        raise NonCoprime(f"generators have gcd {g}")
    mask = (1 << (_sieve_bound(gens[0], gens[-1]) + 1)) - 1
    bits, digits = 1, "1"  # bit n, and digits[n] == "1": n is a sum of the generators so far
    for a in gens:
        if digits[a : a + 1] != "1":
            bits = _add_multiples(bits, a, mask)
            digits = bin(bits)[:1:-1]
    return _semigroup(bits)


def _sieve_bound(e0: int, top: int) -> int:
    """Schur bound for generators from e0 to top: the Frobenius number is below (e0-1)(top-1)."""
    bound = (e0 - 1) * (top - 1) + e0 + 1
    if bound > MAX_SIEVE:
        raise GeneratorError(f"sieve bound {bound} exceeds {MAX_SIEVE}")
    return bound


def _add_multiples(bits: int, s: int, mask: int) -> int:
    """``bits`` with k + j*s added for each member k and j >= 0, within
    ``mask``: shifts by s, 2s, .., 2^i*s add every j < 2^(i+1)."""
    n = mask.bit_length()
    while s < n:
        bits |= (bits << s) & mask
        s *= 2
    return bits


def from_staircase(values, conductor: int) -> NumericalSemigroup:
    """Semigroup of a value window: 0, the values below c, and every k >= c.

    ``values`` are the members below c = ``conductor`` of a semigroup
    whose conductor is c, as ``closure`` and ``annihilator`` give them:
    c - 1 is a gap, or c = 0.  Values at or past c are members anyway and
    are ignored, 0 always is one, and the record's conductor is its last
    gap + 1, which is c on such a window.
    """
    n = 2 * conductor + 2  # past c + e0, as e0 <= max(c, 1)
    bits = (1 << n) - (1 << conductor) | 1
    for v in values:
        if v < conductor:
            bits |= 1 << v
    return _semigroup(bits)


def _semigroup(bits: int) -> NumericalSemigroup:
    """The semigroup whose members below n = ``bits.bit_length()`` are its set bits.

    Needs n > c + e0.  The conductor is the last gap + 1 (0 when there is
    none) and e0 the first positive member.  One ascending pass finds the
    minimal generators: the first member that is not in ``sums``, the sums
    of the generators found so far, is one, and adds its multiples.  Every
    member past c + e0 is e0 plus a member past c, so none is a generator.
    """
    s = bin(bits)[:1:-1]  # s[k] == "1": k is a member
    c = s.rfind("0") + 1
    e0 = s.find("1", 1)
    mask = (1 << (c + e0 + 1)) - 1
    sums = 1
    left = bits & mask & ~sums  # members up to c + e0 that are not in sums
    generators = []
    while left:
        a = (left & -left).bit_length() - 1
        generators.append(a)
        sums = _add_multiples(sums, a, mask)
        left &= ~sums
    gaps = tuple([k for k, b in enumerate(s[:c]) if b == "0"])
    return NumericalSemigroup(tuple(generators), c, gaps, e0, len(gaps))


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

    The pairs m, n are derived from (e0, betas) on first read, so two
    records with the same exponents are equal: beta_v / e0 =
    m_v / (n_1 ... n_v) with gcd(m_v, n_v) = 1.  ``make`` checks that each
    exponent lowers gcd(e0, beta_1, ..., beta_v) (n_v > 1), and that the
    last brings it to 1.
    """

    def __init__(self, e0: int, betas: tuple):
        self.__dict__.update(e0=e0, betas=betas)

    @property
    def _gcds(self) -> list:
        """e_0 = e0 and e_v = gcd(e0, beta_1, ..., beta_v): m_v = beta_v / e_v
        and n_v = e_(v-1) / e_v."""
        return [math.gcd(self.e0, *self.betas[:v]) for v in range(len(self.betas) + 1)]

    m = cached_property(lambda self: tuple([b // e for b, e in zip(self.betas, self._gcds[1:])]))
    n = cached_property(lambda self: tuple([a // b for a, b in zip(self._gcds, self._gcds[1:])]))

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
        ch = Characteristic(e0, betas)
        for b, n_v, e in zip(betas, ch.n, ch._gcds):
            if n_v == 1:
                raise ValueError(f"invalid characteristic: {b} does not lower the gcd {e}")
        if math.prod(ch.n) != e0:
            raise ValueError("invalid characteristic: exponents do not reach gcd 1")
        return ch


def saturation_from_characteristic(ch: Characteristic) -> NumericalSemigroup:
    """Semigroup of the saturation, from the characteristic exponents.

    Emits the multiplicity, the middle families s * n_(v+1) ... n_g for
    m_v <= s <= floor(m_(v+1) / n_(v+1)), and the top window m_g + i for
    0 <= i < e0, then minimalizes.  Every exponent is at most m_g + e0 - 1
    (m_g = beta_g): the sieve bound is checked before any is listed.  A
    record built with the constructor is validated (``Characteristic.make``).
    """
    ch = Characteristic.make(ch.e0, ch.betas)
    if ch.e0 == 1:  # 1 generates all of N
        return from_generators([1])
    _sieve_bound(ch.e0, ch.m[-1] + ch.e0 - 1)
    exps = {ch.e0}
    for v in range(len(ch.betas) - 1):  # 0-based: s * step for m[v] <= s <= m[v+1] // n[v+1]
        step = math.prod(ch.n[v + 1 :])
        exps.update(range(ch.m[v] * step, ch.m[v + 1] // ch.n[v + 1] * step + 1, step))
    exps.update(range(ch.m[-1], ch.m[-1] + ch.e0))  # the top window: g > 0, as e0 > 1
    return from_generators(sorted(exps))
