"""Exact invariants and dualities of curve-singularity branches in k[[t]].

A branch is a finite-codimension subalgebra B of the formal power
series ring.  The package computes its canonical staircase presentation
and numerical invariants (delta, conductor, multiplicity, Hilbert
function, blow-up chain), the dual inverse system of differential
operators, algebra-forming certificates and annihilator subalgebras,
standard filtrations with cutting derivations, numerical-semigroup
classification (Gorenstein / symmetric), saturations from
characteristic exponents, and Laurent (residue) representatives.
Everything is exact rational arithmetic; no floating point is used.
"""

from .errors import (
    BranchDualError,
    ExpressionError,
    GeneratorError,
    InfiniteCodimension,
    InternalError,
    NonCoprime,
    NotAlgebraForming,
    PrecisionExhausted,
)
from .expressions import (
    format_diffop,
    format_rational,
    format_series,
    parse_diffop,
    parse_generators,
    parse_operators,
    parse_series,
)
from .inverse_system import (
    AFCertificate,
    CuttingDerivation,
    Filtration,
    FiltrationStep,
    InverseSystem,
    annihilator,
    cutting_derivation,
    inverse_system,
    is_algebra_forming,
    is_derivation,
    natural_set,
    residue,
    rosenlicht,
    standard_filtration,
    transport_dual,
    verify_duality,
)
from .linalg import QMatrix, nullspace, solve
from .semigroup import (
    Characteristic,
    GorensteinCheck,
    NumericalSemigroup,
    from_generators,
    from_staircase,
    gorenstein_check,
    is_symmetric,
    monomial_inverse_system,
    saturation_from_characteristic,
)
from .series import (
    DiffOp,
    Series,
    divide_by_unit,
    mul,
    order,
    perp,
)
from .subalgebra import (
    AlgebraInput,
    BlowupChain,
    HilbertData,
    Staircase,
    blowup,
    blowup_chain,
    closure,
    hilbert,
    membership,
)

__version__ = "0.1.0"

__all__ = [
    "AFCertificate",
    "AlgebraInput",
    "BlowupChain",
    "BranchDualError",
    "Characteristic",
    "CuttingDerivation",
    "DiffOp",
    "ExpressionError",
    "Filtration",
    "FiltrationStep",
    "GeneratorError",
    "GorensteinCheck",
    "HilbertData",
    "InfiniteCodimension",
    "InternalError",
    "InverseSystem",
    "NonCoprime",
    "NotAlgebraForming",
    "NumericalSemigroup",
    "PrecisionExhausted",
    "QMatrix",
    "Series",
    "Staircase",
    "annihilator",
    "blowup",
    "blowup_chain",
    "closure",
    "cutting_derivation",
    "divide_by_unit",
    "format_diffop",
    "format_rational",
    "format_series",
    "from_generators",
    "from_staircase",
    "gorenstein_check",
    "hilbert",
    "inverse_system",
    "is_algebra_forming",
    "is_derivation",
    "is_symmetric",
    "membership",
    "monomial_inverse_system",
    "mul",
    "natural_set",
    "nullspace",
    "order",
    "parse_diffop",
    "parse_generators",
    "parse_operators",
    "parse_series",
    "perp",
    "residue",
    "rosenlicht",
    "saturation_from_characteristic",
    "solve",
    "standard_filtration",
    "transport_dual",
    "verify_duality",
]
