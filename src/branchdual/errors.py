"""Exception types, and the base of the record types, shared across the package."""


class _Record:
    """Base of the package's records: equality, hash and repr by field.

    The fields are the parameters of the subclass's own ``__init__``, in
    order, unless the class sets ``_fields`` itself; that ``__init__``
    stores them into ``self.__dict__``, so ``functools.cached_property``
    still works.  Two records are equal when they are of the same class
    with equal field tuples; the hash is the field tuple's.  Assigning or
    deleting an attribute raises ``AttributeError``.
    """

    def __init_subclass__(cls):
        if "_fields" not in cls.__dict__:
            code = cls.__init__.__code__
            cls._fields = code.co_varnames[1 : code.co_argcount]

    def _values(self):
        d = self.__dict__
        return tuple([d[f] for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join([f'{f}={getattr(self, f)!r}' for f in self._fields])})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class BranchDualError(Exception):
    """Base class for all errors raised by this package."""


class InfiniteCodimension(BranchDualError):
    """The generators span a subalgebra of infinite codimension in k[[t]].

    Detected when the values in a window past the bound that ``closure``
    proves have gcd > 1.
    """

    def __init__(self, gcd, values):
        self.gcd = gcd
        self.values = tuple(values)
        super().__init__(
            f"value set stabilized with gcd {gcd}: codimension is infinite"
        )


class PrecisionExhausted(BranchDualError):
    """A computation needs more series precision than is available.

    ``required`` is the next truncation order the computation would try,
    above the one that ran out; not always the least that suffices.
    """

    def __init__(self, required, message=None):
        self.required = required
        super().__init__(
            message or f"insufficient series precision: need truncation >= {required}"
        )


class NotAlgebraForming(BranchDualError):
    """The given operator space fails the algebra-forming condition.

    Carries the failure certificate (with its witness series).
    """

    def __init__(self, certificate):
        self.certificate = certificate
        super().__init__("operator space is not algebra-forming")


class NonCoprime(BranchDualError):
    """Semigroup generators with gcd > 1 define no numerical semigroup."""


class GeneratorError(BranchDualError, ValueError):
    """Generators that define no subalgebra of positive-order series.

    Raised for a generator of order 0 (a unit), for only zero generators,
    and for semigroup generators whose Schur bound exceeds
    ``semigroup.MAX_SIEVE``; an input error, like ExpressionError.
    """


class ExpressionError(BranchDualError):
    """Malformed expression text; ``position`` points at the offending token.

    ``reason`` is the message without the position.
    """

    def __init__(self, message, position=None):
        self.reason = message
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class InternalError(BranchDualError):
    """An internal consistency check failed; indicates a bug upstream."""
