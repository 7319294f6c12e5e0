"""Exact Taylor coefficients of powers of psi(x) = (1 - sqrt(1-x))/x as
integer mantissas over powers of two, finite-matrix evaluation of
A(T) = sum_p alpha(1,p) T^p with a reported tail bound (scalar and 2x2
Jordan inputs take interval enclosures of the closed forms of psi(a)^n and
(psi^n)'(a) instead), and machine verification suites for the coefficient
inequalities."""

from .arith import Rational, binomial, parse_rational, rational_str
from .coeffs import (
    alpha,
    beta,
    oracle_alpha,
    oracle_beta,
    psi_eval,
    psi_partial_sum,
    sum_alpha,
)
from .analysis import (
    BoundConstants,
    Thresholds,
    run_all_suites,
    run_suite,
    thresholds,
)
from .operators import (
    APPENDIX_T,
    AppendixExample,
    BrunelResult,
    DenseMatrix,
    Norm,
    appendix_example,
    brunel,
    cesaro,
    check_cesaro_domination,
    check_mean_bound_theorem,
    check_power_bound_theorem,
    matrix_power,
)
from .report import VerifyReport

__version__ = "0.1.0"

__all__ = [
    "APPENDIX_T",
    "AppendixExample",
    "BoundConstants",
    "BrunelResult",
    "DenseMatrix",
    "Norm",
    "Rational",
    "Thresholds",
    "VerifyReport",
    "alpha",
    "appendix_example",
    "beta",
    "binomial",
    "brunel",
    "cesaro",
    "check_cesaro_domination",
    "check_mean_bound_theorem",
    "check_power_bound_theorem",
    "matrix_power",
    "oracle_alpha",
    "oracle_beta",
    "parse_rational",
    "psi_eval",
    "psi_partial_sum",
    "rational_str",
    "run_all_suites",
    "run_suite",
    "sum_alpha",
    "thresholds",
]
