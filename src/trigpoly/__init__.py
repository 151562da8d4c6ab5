"""Certified polynomial approximation of cos(pi*x) and sin(pi*x).

The library generates the coefficients of the expansions

    cos(pi*x) = sum_j c_j (1/4 - x^2)^j,
    sin(pi*x) = sum_j c_j (x(1-x))^j,

builds the partial-sum approximants with rigorous one-sided error
bounds, verifies the underlying inequalities as executable properties,
and benchmarks the approximants against Maclaurin sums and libm.
"""

from .approx import (
    COS_PI_X,
    DOMAINS,
    SIN_PI_X,
    ApproxPolynomial,
    DomainError,
    ErrorCertificate,
    build_poly,
    error_bound,
    maclaurin_eval,
    select_degree,
    taylor_coeffs_at_zero,
)
from .bench import BenchConfig, BenchRow, run_bench
from .coeffs import (
    CoefficientTable,
    SymbolicCoefficient,
    coeff_bessel,
    coeff_direct,
    coeff_recurrence,
    coeff_symbolic,
    coefficient_table,
    gamma_half,
    general_series_direct,
    general_series_recurrence,
)
from .intervals import IntervalValue, pi_interval
from .precision import (
    DEFAULT_DIGITS,
    ExtReal,
    IndexLimitError,
    PrecisionError,
)
from .verify import (
    PositivityProof,
    PropertyReport,
    check_bessel_identity,
    check_bracketing,
    check_coefficient_bounds,
    check_maclaurin_interleaving,
    check_taylor_exactness,
    prove_example_inequality,
    prove_polynomial_positive,
)

__version__ = "0.1.0"
