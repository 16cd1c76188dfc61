"""primerec: prime recovery through Dirichlet L-series recursion.

Given the first n primes, the truncated L-sum of a Dirichlet character
minus the matching truncated Euler product has magnitude close to
``p_{n+1}**-s``; raising it to ``-1/s`` recovers the next prime in the
large-s limit.  The package evaluates that recursion exactly enough to
round to the true prime at desk-scale parameters, and studies how fast the
error decays: ``-ln(error)`` series, their least-squares slopes, and signed
error differences between characters and the trivial case.

Layers: ``mpnum`` (arbitrary-precision arithmetic), ``characters`` (exact
character algebra), ``primes``, ``recursion`` (residuals and
estimates), ``analysis`` (series, fits, tables), ``oracle`` (exact
Gaussian-rational cross-check), ``cli`` (command-line front end).
"""

from .analysis import (
    DTable,
    FitResult,
    NegLogSeries,
    SeriesPoint,
    d_table,
    linear_fit,
    neg_log_series,
    slope_series,
)
from .characters import (
    CharacterGroup,
    CharValue,
    DirichletCharacter,
    UnitGroupStructure,
    char_product,
    enumerate_characters,
    keller_one,
    unit_group,
)
from .errors import (
    DomainError,
    PrecisionLossError,
    PrimerecError,
    RangeError,
    UnsupportedSizeError,
)
from .mpnum import (
    BigComplex,
    BigFloat,
    PrecisionContext,
    format_decimal,
    nearest_int,
    to_float,
)
from .primes import first_n_primes, is_prime, nth_prime
from .recursion import (
    EstimateResult,
    estimate,
    euler_product,
    l_partial_sum,
    required_precision,
    residual,
    scaled_residual,
)

__version__ = "0.1.0"

__all__ = [
    "BigComplex",
    "BigFloat",
    "CharacterGroup",
    "CharValue",
    "DirichletCharacter",
    "DomainError",
    "DTable",
    "EstimateResult",
    "FitResult",
    "NegLogSeries",
    "PrecisionContext",
    "PrecisionLossError",
    "PrimerecError",
    "RangeError",
    "SeriesPoint",
    "UnitGroupStructure",
    "UnsupportedSizeError",
    "char_product",
    "d_table",
    "enumerate_characters",
    "estimate",
    "euler_product",
    "first_n_primes",
    "format_decimal",
    "is_prime",
    "keller_one",
    "l_partial_sum",
    "linear_fit",
    "nearest_int",
    "neg_log_series",
    "nth_prime",
    "required_precision",
    "residual",
    "scaled_residual",
    "slope_series",
    "to_float",
    "unit_group",
    "__version__",
]
