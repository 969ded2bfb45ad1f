"""Exact structural identities for classical orthogonal polynomials.

Recurrence, derivative/difference and antiderivative/antidifference
coefficients, hypergeometric power and falling-factorial representations,
connection coefficients, and parameter derivatives for the classical
continuous and discrete families defined by sigma = a x^2 + b x + c and
tau = d x + e.  All arithmetic is exact (rationals, dual numbers over them
for parameter derivatives, or rational functions in one formal parameter);
every formula family is cross-checked against an independent brute-force
oracle.
"""

from .algebra import (
    FALLING,
    MONOMIAL,
    BasisError,
    Dual,
    Polynomial,
    Rational,
    RationalFunction,
    binomial,
    factorial,
    format_rational,
    parse_rational,
    pochhammer,
)
from .families import (
    CATALOG_NAMES,
    CONTINUOUS,
    DISCRETE,
    AdmissibilityError,
    FamilySpec,
    LeadingRule,
    MONIC,
    affine_transform,
    catalog,
    lambda_n,
    spec_from_json,
    spec_to_json,
)
from .structure import (
    AdmissibilityReport,
    CoefficientTriple,
    StructureReport,
    admissibility,
    antiderivative,
    antidifference,
    binomial_partial_sum,
    delta_rule_coeffs,
    derivative_rule_coeffs,
    generate,
    recurrence_coeffs,
    solve_equation,
    theorem1_coeffs,
    verify_structure,
    xpn_coeffs,
)
from .series import (
    HypergeometricDescriptor,
    SeriesCoefficients,
    UnsupportedRepresentation,
    closed_form,
    descriptor_to_json,
    expand_descriptor,
    falling_coeffs,
    falling_in_basis,
    power_coeffs,
    power_in_basis,
)
from .connection import (
    CLOSED_FORM_PAIRS,
    PARAMETER_DERIVATIVE_PAIRS,
    ConnectionRow,
    UnsupportedConnection,
    closed_form_connection,
    compat,
    connect_oracle,
    connect_recurrence,
    exact_parameter_derivative,
    parameter_derivative,
    row_to_json,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
