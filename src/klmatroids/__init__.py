"""Exact Kazhdan-Lusztig polynomials of matroids.

Three independent routes to the same coefficients: the rank table (the
Z-polynomial solver, cross-checked by the defining recurrence),
skew-tableau counting formulas for uniform matroids with disjoint bases
removed, and an older closed-form sum for the plain uniform case.
Everything is exact integer arithmetic.
"""

from .errors import (
    EmptyBases,
    ExchangeAxiomViolation,
    HasLoops,
    IndexOutOfRange,
    InvalidParameters,
    InvalidShape,
    KlmatroidsError,
    MixedCardinality,
    NonIntegerResult,
    NotAFlat,
)
from .exactarith import IntPoly, binomial, poly_reverse
from .matroid import (
    FlatLattice,
    Matroid,
    char_poly,
    contraction,
    kl_poly,
    localization,
    mask_from,
    matroid_from_bases,
    uniform_matroid,
)
from .tableaux import (
    Filling,
    SkewShape,
    count_overline_skyt,
    count_skyt,
    count_skyt_rho_direct,
    count_syt,
    enumerate_skyt,
    involution_rotate,
    iota_action,
)
from .closedforms import (
    MinorClass,
    RhoUniformParams,
    build_rho_uniform,
    char_poly_rho,
    classify_minor,
    coeff_rho,
    coeff_uniform_klum,
    expected_flats,
    kl_poly_rho,
    valid_rhos,
)
from .identities import IdentityReport

__version__ = "0.1.0"

__all__ = [
    "EmptyBases",
    "ExchangeAxiomViolation",
    "Filling",
    "FlatLattice",
    "HasLoops",
    "IdentityReport",
    "IndexOutOfRange",
    "IntPoly",
    "InvalidParameters",
    "InvalidShape",
    "KlmatroidsError",
    "Matroid",
    "MinorClass",
    "MixedCardinality",
    "NonIntegerResult",
    "NotAFlat",
    "RhoUniformParams",
    "SkewShape",
    "binomial",
    "build_rho_uniform",
    "char_poly",
    "char_poly_rho",
    "classify_minor",
    "coeff_rho",
    "coeff_uniform_klum",
    "contraction",
    "count_overline_skyt",
    "count_skyt",
    "count_skyt_rho_direct",
    "count_syt",
    "enumerate_skyt",
    "expected_flats",
    "involution_rotate",
    "iota_action",
    "kl_poly",
    "kl_poly_rho",
    "localization",
    "mask_from",
    "matroid_from_bases",
    "poly_reverse",
    "uniform_matroid",
    "valid_rhos",
]
