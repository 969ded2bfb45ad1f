"""Transcription cross-checks: every shipped formula against its oracle.

The coefficient formulas in this package are long enough that silent
transcription slips are the dominant risk, so each family of formulas is
re-derived by an independent route and compared exactly:

* structure triples            vs. linear solves over equation-solver polynomials
* series index recurrences     vs. the equation-solver expansion
* inverse-series recurrences   vs. ``expand_over`` solves over the generated basis
* connection m-recurrences     vs. the cross-rule elimination and the oracle
* closed connection formulas   vs. the oracle rows
* parameter-derivative tables  vs. the dual-number derivative

``structure_mismatches`` compares each explicit structure triple of one spec
(``structure.RELATIONS``) with the oracle; ``opoly verify`` runs it on its
family, ``check_structure_formulas`` over ``SAMPLE_SPECS``.

``transcription_report`` runs the whole battery and returns machine-readable
results; the shipped catalog must produce zero unresolved mismatches.

``DOCUMENTED_VARIANTS`` records places where a commonly printed form of a
formula disagrees with the oracle; the corrected form is what ships, and
both variants' values at a sample point are kept here.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction

from .algebra import MONOMIAL, Polynomial, expand_over
from .families import CONTINUOUS, FamilySpec, catalog
from .connection import (
    SAME_SIGMA,
    SAME_SIGMA_PLUS_TAU,
    compat,
    connect_oracle,
    connect_recurrence,
    closed_form_connection,
    exact_parameter_derivative,
    parameter_derivative,
    _PDERIV,
)
from .series import falling_in_basis, power_in_basis, series_polynomial
from .structure import (
    RELATIONS,
    CoefficientTriple,
    formula_triples,
    generate,
    oracle_basis,
    oracle_triples,
)


@dataclass(frozen=True)
class Mismatch:
    formula: str
    where: str
    formula_value: str
    oracle_value: str


# Sample parameter points per catalog family, chosen inside every formula's
# admissible range for n <= 10.
SAMPLE_SPECS: tuple[tuple[str, dict], ...] = (
    ("hermite", {}),
    ("laguerre", {"alpha": Fraction(1, 2)}),
    ("laguerre", {"alpha": Fraction(3)}),
    ("jacobi", {"alpha": Fraction(1, 2), "beta": Fraction(-1, 3)}),
    ("jacobi", {"alpha": Fraction(2), "beta": Fraction(3)}),
    ("gegenbauer", {"alpha": Fraction(3, 4)}),
    ("bessel", {"alpha": Fraction(1)}),
    ("monomial", {}),
    ("charlier", {"mu": Fraction(2)}),
    ("meixner", {"gamma": Fraction(2), "mu": Fraction(1, 3)}),
    ("krawtchouk", {"p": Fraction(1, 2), "N": Fraction(14)}),
    ("hahn", {"alpha": Fraction(1, 2), "beta": Fraction(1, 3), "N": Fraction(14)}),
    ("hahn-q", {"alpha": Fraction(1), "beta": Fraction(2), "N": Fraction(14)}),
    ("discrete-chebyshev", {"N": Fraction(14)}),
    ("k-family", {"alpha": Fraction(3), "beta": Fraction(1, 2)}),
    ("falling-factorial", {}),
)


def structure_mismatches(spec: FamilySpec, basis: list[Polynomial], n_max: int
                         ) -> list[tuple[str, int, CoefficientTriple, CoefficientTriple]]:
    """(key, n, formula, oracle) for each triple of ``formula_triples`` that
    differs from ``oracle_triples``, 0 <= n <= n_max; ``basis`` is
    ``oracle_basis(spec, m)`` with m >= n_max + 1.  At n = 1 the lo parts of
    the Theorem-1 triples multiply D p_0 = 0 and are not compared.
    """
    out = []
    for n in range(n_max + 1):
        oracle = oracle_triples(spec, basis, n)
        for key, got in formula_triples(spec, n).items():
            want = oracle[key]
            width = 2 if n == 1 and RELATIONS[key].theorem1 else 3
            if tuple(got)[:width] != tuple(want)[:width]:
                out.append((key, n, got, want))
    return out


def check_structure_formulas(n_max: int = 6) -> list[Mismatch]:
    """Explicit triples vs. exact linear solves from oracle polynomials."""
    out: list[Mismatch] = []
    for name, params in SAMPLE_SPECS:
        spec = catalog(name, params)
        for key, n, got, want in structure_mismatches(spec, oracle_basis(spec, n_max + 1),
                                                      n_max):
            out.append(Mismatch(key, f"{name} n={n}", ", ".join(map(str, got)),
                                ", ".join(map(str, want))))
    return out


def check_series_formulas(n_max: int = 8) -> list[Mismatch]:
    """Index recurrences (forward and inverse) vs. independent solves."""
    out: list[Mismatch] = []
    for name, params in SAMPLE_SPECS:
        spec = catalog(name, params)
        for n, direct in enumerate(oracle_basis(spec, n_max)):
            series = series_polynomial(spec, n)
            if series != direct:
                out.append(Mismatch("series-recurrence", f"{name} n={n}",
                                    repr(series), repr(direct)))
        polys = generate(spec, n_max)
        for n in range(n_max + 1):
            row = (power_in_basis if spec.kind == CONTINUOUS else falling_in_basis)(spec, n)
            target = Polynomial.monomial(n, 1, spec.basis()).to_basis(MONOMIAL)
            want = tuple(expand_over(target, polys[: n + 1]))
            if row.coeffs != want:
                out.append(Mismatch("inverse-series", f"{name} n={n}",
                                    ", ".join(map(str, row.coeffs)), ", ".join(map(str, want))))
    return out


# --- printed Theorem 2 / Theorem 3 m-recurrences ---------------------------

def _theorem2_terms(p: FamilySpec, q: FamilySpec, n: int, m: int):
    """Multipliers of C_m, C_{m+1}, C_{m+2} in the printed continuous
    m-recurrence (shared sigma, monic systems)."""
    a, b, c, d, e = p.abcde()
    dq, eq = q.d, q.e
    t_m = -(m - n) * (a * m + d - a + a * n) * (dq + 2 * a * m) \
        * (dq + a + 2 * a * m) * (dq + 3 * a + 2 * a * m) * (dq + 2 * a * m + 2 * a) ** 2
    bracket1 = (-d * b * n * dq + 2 * d * a * m * m * b + d * b * dq + 2 * d * a * m * b
                + 2 * d * eq * n * a + d * dq * eq + 2 * d * dq * b * m - m * b * dq * dq
                - e * dq * dq - 4 * a * a * m * m * e - m * m * a * b * dq + b * n * dq * a
                - 2 * e * dq * a - 4 * a * a * m * e - 4 * e * dq * a * m
                + 2 * m * m * a * a * eq + 2 * eq * a * a * n * n - 2 * eq * a * a * n
                - m * a * b * dq + 2 * m * dq * eq * a + 2 * m * eq * a * a
                - b * n * n * dq * a)
    t_m1 = bracket1 * (dq + 2 * a * m + 2 * a) * (m + 1) * (dq + a + 2 * a * m) \
        * (dq + 3 * a + 2 * a * m)
    bracket2 = (a * b * b * m * m - 4 * a * a * m * m * c - 8 * a * a * m * c
                + 2 * a * m * b * b - 4 * a * dq * m * c + m * b * b * dq
                - 4 * a * dq * c - a * eq * eq + a * b * b - c * dq * dq
                + b * eq * dq - 4 * a * a * c + b * b * dq)
    t_m2 = -(dq + 2 * a * m) * (m + 1) * (-a * m - 2 * a + a * n - dq + d) \
        * (a * m + a * n + a + dq) * bracket2 * (m + 2)
    return t_m, t_m1, t_m2


def _theorem3_sigma_terms(p: FamilySpec, q: FamilySpec, n: int, m: int):
    """Multipliers of C_m, C_{m+1}, C_{m+2} in the printed discrete
    m-recurrence for shared sigma, monic systems."""
    a, b, c, d, e = p.abcde()
    dq, eq = q.d, q.e
    t_m = (dq + 2 * a * m + 2 * a) ** 2 * (dq + 3 * a + 2 * a * m) \
        * (dq + a + 2 * a * m) * (dq + 2 * a * m) * (-m + n) * (a * n - a + d + a * m)
    T3 = (-a * dq * d + a * n * n * dq * dq + 2 * e * a * dq - 2 * a * a * eq * m * m
          + b * dq * dq * m - 2 * n * a ** 3 * m * m - 2 * a ** 3 * n * m
          - a * a * n * dq + a * a * n * n * dq - a * n * dq * dq
          - 2 * eq * a * dq * m + 4 * e * a * a * m + b * a * dq * m * m
          + 2 * a ** 3 * m * m * n * n + a * dq * b * m + 2 * a * a * m * dq * n * n
          - 4 * a ** 3 * m ** 3 - 2 * a * dq * dq * m * m - 4 * a * a * dq * m ** 3
          + d * n * dq * dq - 2 * a * a * m * m * d - a * a * m * dq
          - dq * dq * m * a - 2 * a * a * eq * m + 2 * a ** 3 * m * n * n
          + a * n * dq * dq - 2 * a ** 3 * m * m - 2 * a * a * eq * n * n
          - dq * dq * d - dq * b * d - 2 * a ** 3 * m ** 4 - 2 * a * a * m * d
          + 2 * dq * m * a * n * d + 2 * a * a * m * m * n * d + 4 * a * a * e * m * m
          + 4 * a * e * m * dq - 2 * a * eq * n * d + 2 * a * a * n * d * m
          - 2 * a * a * m * dq * n - 3 * a * m * dq * d - dq * m * m * a * d
          - 2 * dq * b * m * d - 2 * a * m * m * b * d - 2 * a * m * b * d
          - 5 * dq * m * m * a * a + 2 * eq * a * a * n - dq * eq * d
          - dq * dq * m * d + e * dq * dq + d * b * n * dq + a * n * n * b * dq
          - a * n * b * dq)
    # One source monomial renders as a n dq^2 (cancelling the -a n dq^2
    # above); the oracle fixes it as the mixed product a n d dq.
    T3 += a * n * d * dq - a * n * dq * dq
    t_m1 = -(dq + 2 * a * m + 2 * a) * (dq + 3 * a + 2 * a * m) \
        * (dq + a + 2 * a * m) * (m + 1) * T3
    U3 = (4 * a * a * c * m * m + 2 * a * a * eq * m * m - b * dq * dq * m
          - b * b * a * m * m + 2 * eq * a * dq * m - b * a * dq * m * m
          + 4 * dq * c * a * m + 2 * a * a * dq + 4 * a ** 3 * m
          - 2 * a * dq * b * m + 4 * a ** 3 * m ** 3 - dq * b * b * m
          + a * dq * dq * m * m + 2 * a * a * dq * m ** 3 + 6 * a * a * m * dq
          + 2 * dq * dq * m * a + 4 * a * a * eq * m + 6 * a ** 3 * m * m
          + 4 * dq * c * a - 2 * b * b * a * m + 8 * a * a * c * m + 2 * a * a * eq
          - b * b * a + a ** 3 * m ** 4 + a ** 3 + 4 * a * a * c - dq * b * b
          - b * a * dq + dq * dq * c + a * dq * dq - b * dq * dq + a * eq * eq
          - dq * b * eq + 2 * eq * a * dq + 6 * dq * m * m * a * a)
    t_m2 = (m + 1) * (dq + 2 * a * m) * (dq + a * m + a + a * n) * (m + 2) * U3 \
        * (-a * m - 2 * a - dq + a * n + d)
    return t_m, t_m1, t_m2


def _sigmatau_bracket_correction(a, d, f, m, n):
    """Corruption of the middle bracket of the shared-sigma-plus-tau recurrence.

    The circulating rendering of that bracket differs from the value forced
    by the cross-rule elimination exactly by this polynomial (identified by
    exact interpolation over random spec pairs and degrees; it involves only
    a, d, f, m, n).  Subtracting it restores the true bracket.
    """
    return (f ** 3 * (1 + m)
            + d * f * f * (n - 3 - 3 * m)
            + d * d * f * (3 - 2 * n + 3 * m)
            + d ** 3 * (n - 1 - m)
            + a * f * f * (-2 - n + n * n - 7 * m - 5 * m * m)
            + a * d * f * (4 - 2 * n * n + 14 * m - 4 * m * n + 10 * m * m)
            + a * d * d * (-2 + n + n * n - 7 * m + 4 * m * n - 5 * m * m)
            + a * a * f * (2 * n - 2 * n * n + 6 * m + 4 * m * n - 4 * m * n * n
                           + 14 * m * m + 8 * m ** 3)
            + a * a * d * (-2 * n + 2 * n * n - 6 * m + 4 * m * n * n - 14 * m * m
                           + 4 * m * m * n - 8 * m ** 3)
            + a ** 3 * (-4 * m * n + 4 * m * n * n - 4 * m * m - 4 * m * m * n
                        + 4 * m * m * n * n - 8 * m ** 3 - 4 * m ** 4))


def _theorem3_sigmatau_terms(p: FamilySpec, q: FamilySpec, n: int, m: int):
    """Multipliers of C_m, C_{m+1}, C_{m+2} in the printed discrete
    m-recurrence for shared sigma + tau, monic systems."""
    a, b, c, d, e = p.abcde()
    f = q.b - p.b
    g = q.c - p.c
    t_m = (-d + f - 2 * a * m) * (-d + f - 2 * a * m - 2 * a) ** 2 \
        * (-d + f - a - 2 * a * m) * (-d + f - 3 * a - 2 * a * m) \
        * (-m + n) * (a * n - a + d + a * m)
    T3b = (2 * e * a * a * m - 2 * a ** 3 * m * m * n - d ** 3 + 2 * a * a * g * m
           + 2 * e * a * d - a * d * d - b * d * d + d * d * b * n
           + d * d * a * n * n + a * a * n * n * d - 2 * a * a * n * n * e
           + 2 * a * a * n * e - a * a * n * d + d * a * n * n * b - a * n * d * b
           - 2 * d * a * n * e - 2 * a * e * f - d * a * n * n * f
           + 2 * a ** 3 * m * m * n * n + 2 * a * n * m * d * d - 2 * a ** 3 * m * m
           - a * m * m * b * d - a * m * b * d - 7 * a * a * m * m * d
           - 3 * a * a * m * d - 3 * a * m * m * d * d - 4 * a * m * d * d
           + f ** 3 * m - 4 * a ** 3 * m ** 3 - 2 * a ** 3 * m ** 4
           - a * m * f * b - 2 * a * a * m * f * n * n + 2 * a * a * n * n * d * m
           + 2 * a * a * f * m * n - 2 * a ** 3 * m * n + 2 * a ** 3 * n * n * m
           - m * d ** 3 + f * b * a * n + 2 * d * g * a * n
           + 2 * a * a * m * m * n * d + d ** 3 * n + 2 * a * a * e * m * m
           + a * a * n * f - d * b * n * f - d * d * n * f - a * a * n * n * f
           - a * n * n * b * f - 2 * g * a * a * n + 2 * g * a * a * n * n
           - 2 * m * f * a * n * d + m * f * d * d + 3 * f * a * d - 2 * f * f * a
           - 2 * f * f * d + 2 * f * d * d + 4 * a * m * m * f * d
           + 2 * d * e * a * m + d * d * g + 5 * a * a * m * f
           + 9 * a * a * m * m * f - m * d * d * b - f * e * d - f * g * d
           - m * f * f * d + 8 * a * m * f * d + f * f * e - 2 * a * e * m * f
           + 2 * a * d * g * m - 2 * a * f * g * m - 4 * a * a * d * m ** 3
           + 4 * a * a * f * m ** 3 + d * f * b + f * f * b * m
           - 3 * a * m * m * f * f + 2 * a * a * m * m * g - a * m * m * f * b
           - 6 * f * f * a * m + f ** 3)
    T3b -= _sigmatau_bracket_correction(a, d, f, m, n)
    t_m1 = -(-d + f - 2 * a * m - 2 * a) * (-d + f - a - 2 * a * m) \
        * (-d + f - 3 * a - 2 * a * m) * (m + 1) * T3b
    U3b = (4 * e * a * a * m + 8 * a * a * c * m - 2 * b * b * a * m
           + 4 * a * a * g * m + 2 * e * a * d + 4 * d * c * a - d * b * b
           + d * d * c + a * d * d - b * d * d - b * b * a + a * e * e
           + 2 * a * a * e + 2 * a * a * d + 4 * a * a * c + a ** 3 - d * b * e
           - b * a * d - 2 * a * e * f + 6 * a ** 3 * m * m + 4 * a ** 3 * m
           - a * m * m * b * d - 2 * a * m * b * d + 6 * a * a * m * m * d
           + 6 * a * a * m * d + a * m * m * d * d + 2 * a * m * d * d
           + 4 * a ** 3 * m ** 3 + a ** 3 * m ** 4 - b * b * a * m * m
           + 4 * a * a * c * m * m - 2 * a * m * f * b + 2 * a * a * e * m * m
           - m * f * d * d - 3 * f * a * d + f * f * a + f * f * d - f * d * d
           - 3 * a * m * m * f * d + 2 * d * e * a * m + d * d * g
           - 6 * a * a * m * f - 6 * a * a * m * m * f - m * d * d * b
           + 2 * d * g * a - f * e * d - 2 * f * g * a - f * g * d + m * f * f * d
           - 6 * a * m * f * d + f * f * e - 2 * a * e * m * f + a * g * g
           + 4 * a * d * c * m + 2 * a * d * g * m - 4 * a * f * c
           - 2 * a * f * g * m + f * f * c - 2 * d * f * c - 2 * a * e * g
           + d * b * g + f * b * e - f * b * g + 2 * a * a * d * m ** 3
           - 2 * a * a * f * m ** 3 - d * b * b * m + f * b * b * m
           + f * f * b * m + a * m * m * f * f + 2 * a * a * m * m * g
           + f * f * b - a * m * m * f * b - a * f * b + 2 * f * f * a * m
           # the source renders this last monomial without its factor m,
           # duplicating the -4afc term above; the oracle restores it
           - 2 * a * a * f + f * b * b + 2 * a * a * g - 4 * a * f * c * m)
    t_m2 = -(-d + f - 2 * a * m) * (m + 1) * U3b * (m + 2) \
        * (-d + f - a * m - a * n - a) * (-a * m - 2 * a + f + a * n)
    return t_m, t_m1, t_m2


_DISCRETE_M_RECURRENCES = {
    SAME_SIGMA: ("theorem3-sigma-m-recurrence", _theorem3_sigma_terms),
    SAME_SIGMA_PLUS_TAU: ("theorem3-sigmatau-m-recurrence", _theorem3_sigmatau_terms),
}


def _m_recurrence_mismatches(formula: str, terms, p: FamilySpec, q: FamilySpec,
                             row) -> list[Mismatch]:
    """The printed m-recurrence ``terms(p, q, n, m)`` on a connection row."""
    n, out = row.n, []
    for m in range(n - 1):
        t_m, t_m1, t_m2 = terms(p, q, n, m)
        residual = t_m * row[m] + t_m1 * row[m + 1] + t_m2 * row[m + 2]
        if residual != 0:
            out.append(Mismatch(formula, f"{p.name}->{q.name} n={n} m={m}",
                                str(residual), "0"))
    return out


CONNECTION_SAMPLES: tuple[tuple[str, dict, str, dict], ...] = (
    ("laguerre-monic", {"alpha": Fraction(2)}, "laguerre-monic", {"alpha": Fraction(0)}),
    ("gegenbauer-monic", {"alpha": Fraction(3, 4)}, "gegenbauer-monic", {"alpha": Fraction(5, 2)}),
    ("jacobi-monic", {"alpha": Fraction(1, 2), "beta": Fraction(1, 3)},
     "jacobi-monic", {"alpha": Fraction(2), "beta": Fraction(1, 3)}),
    ("bessel-monic", {"alpha": Fraction(1)}, "bessel-monic", {"alpha": Fraction(3)}),
    ("charlier-monic", {"mu": Fraction(2)}, "charlier-monic", {"mu": Fraction(3)}),
    ("meixner-monic", {"gamma": Fraction(2), "mu": Fraction(1, 3)},
     "meixner-monic", {"gamma": Fraction(5, 2), "mu": Fraction(1, 3)}),
    ("krawtchouk-monic", {"p": Fraction(1, 2), "N": Fraction(14)},
     "krawtchouk-monic", {"p": Fraction(1, 3), "N": Fraction(14)}),
    ("hahn-monic", {"alpha": Fraction(1, 2), "beta": Fraction(1, 3), "N": Fraction(14)},
     "hahn-monic", {"alpha": Fraction(1, 2), "beta": Fraction(3), "N": Fraction(14)}),
    ("hahn-monic", {"alpha": Fraction(1, 2), "beta": Fraction(1, 3), "N": Fraction(14)},
     "hahn-monic", {"alpha": Fraction(2), "beta": Fraction(1, 3), "N": Fraction(14)}),
    ("k-family-monic", {"alpha": Fraction(3), "beta": Fraction(1, 2)},
     "k-family-monic", {"alpha": Fraction(3), "beta": Fraction(2)}),
)


def check_connection_recurrences(n_max: int = 6) -> list[Mismatch]:
    """Engine rows vs. oracle rows, and the printed Theorem-2/3 polynomials."""
    out: list[Mismatch] = []
    for pname, pp, qname, qp in CONNECTION_SAMPLES:
        p, q = catalog(pname, pp), catalog(qname, qp)
        mode = compat(p, q)
        for n in range(n_max + 1):
            got = connect_recurrence(p, q, n)
            want = connect_oracle(p, q, n)
            if got.coeffs != want.coeffs:
                out.append(Mismatch("connect-recurrence", f"{pname}->{qname} n={n}",
                                    str(got.coeffs), str(want.coeffs)))
        # the oracle row at n = n_max against the printed m-recurrence, if any
        printed = (("theorem2-m-recurrence", _theorem2_terms) if p.kind == CONTINUOUS
                   else _DISCRETE_M_RECURRENCES.get(mode))
        if printed:
            out.extend(_m_recurrence_mismatches(*printed, p, q, want))
    return out


def check_closed_connections(n_max: int = 5) -> list[Mismatch]:
    samples = {
        "jacobi-alpha": ({"alpha": Fraction(1, 2), "beta": Fraction(1, 3), "gamma": Fraction(2)},
                         ("jacobi", {"alpha": Fraction(1, 2), "beta": Fraction(1, 3)}),
                         ("jacobi", {"alpha": Fraction(2), "beta": Fraction(1, 3)})),
        "jacobi-beta": ({"alpha": Fraction(1, 2), "beta": Fraction(1, 3), "delta": Fraction(3)},
                        ("jacobi", {"alpha": Fraction(1, 2), "beta": Fraction(1, 3)}),
                        ("jacobi", {"alpha": Fraction(1, 2), "beta": Fraction(3)})),
        "gegenbauer": ({"alpha": Fraction(3, 4), "beta": Fraction(5, 2)},
                       ("gegenbauer", {"alpha": Fraction(3, 4)}),
                       ("gegenbauer", {"alpha": Fraction(5, 2)})),
        "laguerre": ({"alpha": Fraction(2), "beta": Fraction(0)},
                     ("laguerre", {"alpha": Fraction(2)}),
                     ("laguerre", {"alpha": Fraction(0)})),
        "bessel": ({"alpha": Fraction(1), "beta": Fraction(3)},
                   ("bessel", {"alpha": Fraction(1)}),
                   ("bessel", {"alpha": Fraction(3)})),
        "hahn-beta": ({"alpha": Fraction(1, 2), "beta": Fraction(1, 3), "delta": Fraction(3),
                       "N": Fraction(14)},
                      ("hahn", {"alpha": Fraction(1, 2), "beta": Fraction(1, 3), "N": Fraction(14)}),
                      ("hahn", {"alpha": Fraction(1, 2), "beta": Fraction(3), "N": Fraction(14)})),
        "hahn-alpha": ({"alpha": Fraction(1, 2), "beta": Fraction(1, 3), "gamma": Fraction(2),
                        "N": Fraction(14)},
                       ("hahn", {"alpha": Fraction(1, 2), "beta": Fraction(1, 3), "N": Fraction(14)}),
                       ("hahn", {"alpha": Fraction(2), "beta": Fraction(1, 3), "N": Fraction(14)})),
        "hahn-symmetric": ({"alpha": Fraction(1, 2), "gamma": Fraction(2), "N": Fraction(14)},
                           ("hahn", {"alpha": Fraction(1, 2), "beta": Fraction(1, 2), "N": Fraction(14)}),
                           ("hahn", {"alpha": Fraction(2), "beta": Fraction(2), "N": Fraction(14)})),
        "meixner-mu": ({"gamma": Fraction(2), "mu": Fraction(1, 3), "nu": Fraction(1, 5)},
                       ("meixner", {"gamma": Fraction(2), "mu": Fraction(1, 3)}),
                       ("meixner", {"gamma": Fraction(2), "mu": Fraction(1, 5)})),
        "krawtchouk-p": ({"p": Fraction(1, 2), "q": Fraction(1, 3), "N": Fraction(14)},
                         ("krawtchouk", {"p": Fraction(1, 2), "N": Fraction(14)}),
                         ("krawtchouk", {"p": Fraction(1, 3), "N": Fraction(14)})),
        "charlier": ({"mu": Fraction(2), "nu": Fraction(3)},
                     ("charlier", {"mu": Fraction(2)}),
                     ("charlier", {"mu": Fraction(3)})),
        "kfamily-beta": ({"alpha": Fraction(3), "beta": Fraction(1, 2), "delta": Fraction(2)},
                         ("k-family", {"alpha": Fraction(3), "beta": Fraction(1, 2)}),
                         ("k-family", {"alpha": Fraction(3), "beta": Fraction(2)})),
    }
    out: list[Mismatch] = []
    for pair, (params, (pn, pp), (qn, qp)) in samples.items():
        p, q = catalog(pn, pp), catalog(qn, qp)
        for n in range(n_max + 1):
            got = closed_form_connection(pair, n, **params)
            want = connect_oracle(p, q, n)
            if got.coeffs != want.coeffs:
                out.append(Mismatch(f"closed-connection:{pair}", f"n={n}",
                                    str(got.coeffs), str(want.coeffs)))
    return out


# One parameter point per family of a parameter-derivative formula.
PARAMETER_DERIVATIVE_POINTS: dict[str, dict[str, Fraction]] = {
    "jacobi": {"alpha": Fraction(1, 2), "beta": Fraction(1, 3)},
    "jacobi-monic": {"alpha": Fraction(2), "beta": Fraction(3)},
    "gegenbauer": {"alpha": Fraction(3, 4)},
    "gegenbauer-monic": {"alpha": Fraction(5, 2)},
    "laguerre": {"alpha": Fraction(2)},
    "laguerre-monic": {"alpha": Fraction(1, 2)},
    "bessel": {"alpha": Fraction(1)},
    "bessel-monic": {"alpha": Fraction(2)},
    "hahn": {"alpha": Fraction(1, 2), "beta": Fraction(1, 3), "N": Fraction(14)},
    "hahn-monic": {"alpha": Fraction(1), "beta": Fraction(2), "N": Fraction(14)},
    "hahn-q": {"alpha": Fraction(1), "beta": Fraction(2), "N": Fraction(14)},
    "meixner": {"gamma": Fraction(2), "mu": Fraction(1, 3)},
    "meixner-monic": {"gamma": Fraction(5, 2), "mu": Fraction(1, 4)},
    "krawtchouk": {"p": Fraction(1, 2), "N": Fraction(14)},
    "krawtchouk-monic": {"p": Fraction(1, 3), "N": Fraction(14)},
    "charlier": {"mu": Fraction(2)},
    "charlier-monic": {"mu": Fraction(3)},
    "k-family": {"alpha": Fraction(3), "beta": Fraction(1, 2)},
    "k-family-monic": {"alpha": Fraction(3), "beta": Fraction(1, 2)},
}


def check_parameter_derivatives(n_max: int = 5) -> list[Mismatch]:
    out: list[Mismatch] = []
    for family, param in sorted(_PDERIV):
        at = PARAMETER_DERIVATIVE_POINTS[family]
        for n in range(1, n_max + 1):
            got = parameter_derivative(family, param, n, at)
            want = exact_parameter_derivative(family, param, n, at)
            if got.coeffs != want.coeffs:
                out.append(Mismatch(f"parameter-derivative:{family}.{param}", f"n={n}",
                                    str(got.coeffs), str(want.coeffs)))
    return out


# ---------------------------------------------------------------------------
# Documented formula variants (corrected before shipping)
# ---------------------------------------------------------------------------

DOCUMENTED_VARIANTS: tuple[dict, ...] = (
    {
        "id": "inverse-power-three-term-constant-slot",
        "summary": "In the three-term index recurrence for expanding x^n over a "
                   "continuous family basis, a commonly printed variant carries "
                   "the equation's constant coefficient e in five slots of the "
                   "C_{m+2} bracket where the sigma constant term c belongs.",
        "shipped": "bracket with c in the five slots (matches the triangular "
                   "oracle on every family with c != 0, e.g. the Jacobi basis)",
        "rejected_example": "monic Jacobi(1/2, -1/3) basis, n = 4: the e-variant "
                            "leaves the nonzero residual -66/43 x^2 + 2640/49321 x "
                            "+ 396957/937099 after contraction; the c-variant "
                            "reproduces x^4 exactly",
    },
    {
        "id": "kfamily-connection-lower-parameter",
        "summary": "The K-family connection coefficients are a terminating "
                   "hypergeometric term whose second Pochhammer factor is a "
                   "lower (denominator) parameter; a flattened rendering places "
                   "it in the numerator, which already fails at n = 1.",
        "shipped": "alpha^(n-m) binom(n, m) ((beta-delta)/alpha)_(n-m), the "
                   "cancelled form of (z)_n (-n)_m / ((1-n-z)_m m!)",
        "rejected_example": "alpha=3, beta=1/2, delta=2, n=1: numerator-variant "
                            "gives C_1 = 1/4, oracle gives C_1 = 1",
    },
    {
        "id": "hahnq-dalpha-grouping",
        "summary": "For the alpha-derivative of Q-Hahn polynomials, one printed "
                   "layout multiplies the lower-degree terms by the full factor "
                   "(1/(alpha+beta+m+n+1) - 1/(alpha+m+1)); only the self term "
                   "carries that factor, the Q_m terms carry 1/(alpha+beta+m+n+1).",
        "shipped": "self coefficient sum(1/(a+b+m+n+1) - 1/(a+m+1)); Q_m "
                   "coefficient without the -1/(alpha+m+1) part",
        "rejected_example": "alpha=1, beta=2, N=12, n=1: grouped variant gives "
                            "D_0 = -(beta+1)^2/((a+b+2)(a+1)^2) instead of the "
                            "exact (beta+1)/((a+b+2)(a+1))",
    },
    {
        "id": "discrete-shared-sigma-connection-bracket",
        "summary": "In the discrete shared-sigma connection recurrence, the "
                   "middle bracket circulates with the monomial a n d_q^2 in "
                   "place of the mixed product a n d d_q (the two renderings "
                   "differ by a n d_q (d_q - d), which vanishes only when the "
                   "two equations share d).",
        "shipped": "bracket with + a n d d_q, validated against the "
                   "cross-rule elimination on Hahn pairs",
        "rejected_example": "monic Hahn (1/2, 1/3, 14) -> (1/2, 3, 14), n=6 m=2: "
                            "literal bracket leaves residual -60825600/71",
    },
    {
        "id": "discrete-shared-sigmatau-connection-brackets",
        "summary": "In the discrete shared-sigma-plus-tau connection "
                   "recurrence, the circulating rendering of the ~90-term "
                   "middle bracket differs from the value forced by the cross "
                   "rules by a 48-term polynomial in (a, d, f, m, n), "
                   "identified by exact interpolation (see "
                   "_sigmatau_bracket_correction); in the trailing bracket "
                   "the final monomial -4afcm is rendered without its factor "
                   "m, duplicating an earlier -4afc term.",
        "shipped": "literal brackets with both corrections applied, validated "
                   "against the cross-rule elimination on Hahn alpha-shift "
                   "pairs and on 178 random raw spec pairs with degrees up "
                   "to 9",
        "rejected_example": "monic Hahn (1/2, 1/3, 14) -> (2, 1/3, 14), n=6 m=0: "
                            "literal middle bracket leaves residual "
                            "2391590043648/48177689",
    },
    {
        "id": "discrete-recurrence-b0-reduction",
        "summary": "The discrete B_n formula carries a removable factor (d-2a) "
                   "at n = 0 (0/0 for families with d = 2a such as the discrete "
                   "Chebyshev case); the reduced value (e/d) A_0 ships.",
        "shipped": "B_0 = (e/d) A_0",
        "rejected_example": "discrete-chebyshev N=12: raw formula evaluates 0/0 "
                            "at n=0; reduced form matches the oracle",
    },
)


def transcription_report(deep: bool = True) -> dict:
    """Run every formula-vs-oracle battery; the shipped catalog must be clean."""
    mismatches: list[Mismatch] = []
    mismatches += check_structure_formulas(5 if deep else 3)
    mismatches += check_series_formulas(6 if deep else 4)
    mismatches += check_connection_recurrences(6 if deep else 4)
    mismatches += check_closed_connections(5 if deep else 3)
    mismatches += check_parameter_derivatives(5 if deep else 3)
    return {
        "unresolved": [asdict(m) for m in mismatches],
        "documented_variants": list(DOCUMENTED_VARIANTS),
    }
