"""Series coefficients and hypergeometric representations.

Forward problem: expand the degree-n family member over monomials
(continuous) or falling factorials (discrete).  The coefficients satisfy a
short recurrence in the series index m, iterated downward from
C_n(n) = k_n, C_{n+1}(n) = 0; when sigma has no constant term the recurrence
collapses to two terms and is equivalent to a terminating hypergeometric
sum, which ``closed_form`` returns as a structured descriptor.

Inverse problem: expand x^n (or x^(falling n)) over a family basis; the
coefficients again satisfy two- or three-term recurrences in m, seeded with
C_n(n) = 1/k_n.

Every such index recurrence is solved by one function, ``descend``.  A
route passes its printed multipliers as written, in the convention

    lead(m) C_m + mid(m) C_{m+1} + top(m) C_{m+2} = 0,

so C_m = -(mid(m) C_{m+1} + top(m) C_{m+2}) / lead(m) and the code reads
like the equation in its docstring.  ``connection.connect_recurrence``
solves its eliminated m-recurrence with the same function.  The seven
recurrence routes read the spec's data through ``FamilySpec.scaled``: for
rational data, the integers L (a, ..., e).  Every multiplier of one
recurrence has the same degree in the data, so the common factor cancels
and the solution is the same, with no Fraction in the multipliers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .algebra import (
    FALLING,
    MONOMIAL,
    FieldElement,
    Polynomial,
    as_field,
    factorial,
    format_field,
    format_rational,
    pochhammer,
)
from .families import (
    CONTINUOUS,
    DISCRETE,
    AdmissibilityError,
    FamilySpec,
)


class UnsupportedRepresentation(ValueError):
    """No closed form of the requested shape exists for this family."""


@dataclass(frozen=True)
class SeriesCoefficients:
    """Coefficients C_m, 0 <= m <= n, of a degree-n expansion."""

    n: int
    basis: str
    coeffs: tuple[FieldElement, ...]

    def __getitem__(self, m: int) -> FieldElement:
        return self.coeffs[m] if 0 <= m < len(self.coeffs) else Fraction(0)

    def polynomial(self) -> Polynomial:
        return Polynomial(self.coeffs, self.basis)


# ---------------------------------------------------------------------------
# The downward solver
# ---------------------------------------------------------------------------

SERIES_FAILURE = "series multiplier vanishes at m={m}"
INVERSE_FAILURE = "inverse-series multiplier vanishes at m={m}"


def descend(n: int, seed: FieldElement, failure: str,
            lead: Callable[[int], FieldElement], mid: Callable[[int], FieldElement],
            top: Callable[[int], FieldElement] | None = None) -> list[FieldElement]:
    """[C_0, ..., C_n] from lead(m) C_m + mid(m) C_{m+1} + top(m) C_{m+2} = 0.

    Iterated down from C_n = seed, C_{n+1} = 0; a two-term recurrence has no
    ``top``.  All multipliers at m are read before lead(m) is tested, and a
    vanishing lead(m) raises ``AdmissibilityError(failure.format(m=m))``.
    Raises ValueError for n < 0.
    """
    if n < 0:
        raise ValueError("series recurrence needs n >= 0")
    coeffs: list[FieldElement] = [Fraction(0)] * (n + 2)
    coeffs[n] = seed
    for m in range(n - 1, -1, -1):
        u, rest = lead(m), mid(m) * coeffs[m + 1]
        if top is not None:
            rest = rest + top(m) * coeffs[m + 2]
        if u == 0:
            raise AdmissibilityError(failure.format(m=m))
        coeffs[m] = -rest / u
    return coeffs[: n + 1]


# ---------------------------------------------------------------------------
# Forward series coefficients
# ---------------------------------------------------------------------------

def power_coeffs(spec: FamilySpec, n: int) -> SeriesCoefficients:
    """Monomial coefficients of p_n for a continuous family.

    Downward iteration of the index recurrence obtained by substituting the
    power series into the differential equation:

        (m-n)(a(n+m-1)+d) C_m + (m+1)(bm+e) C_{m+1} + c(m+1)(m+2) C_{m+2} = 0
    """
    if spec.kind != CONTINUOUS:
        raise ValueError("power_coeffs needs a continuous family")
    a, b, c, d, e = spec.scaled().abcde()
    coeffs = descend(n, spec.k(n), SERIES_FAILURE,
                     lambda m: (m - n) * (a * (n + m - 1) + d),
                     lambda m: (m + 1) * (b * m + e),
                     lambda m: c * (m + 1) * (m + 2))
    return SeriesCoefficients(n, MONOMIAL, tuple(coeffs))


def falling_coeffs(spec: FamilySpec, n: int) -> SeriesCoefficients:
    """Falling-factorial coefficients of p_n for a discrete family.

    General three-term recurrence (substituting the series into the
    difference equation):

        (a(n+m-1)+d)(n-m) C_m
          + (m+1)(an^2 - 2am^2 - an - am + nd - 2dm - bm - d - e) C_{m+1}
          - (m+1)(m+2)(am^2 + 2am + dm + bm + a + d + b + c + e) C_{m+2} = 0

    When c = 0 the equivalent two-term recurrence

        (n-m)(a(n+m-1)+d) C_m - (m+1)(am^2 + (b+d)m + e) C_{m+1} = 0

    is used instead (both routes agree; the test suite asserts it).
    """
    if spec.kind != DISCRETE:
        raise ValueError("falling_coeffs needs a discrete family")
    a, b, c, d, e = spec.scaled().abcde()
    if c != 0:
        return falling_coeffs_three_term(spec, n)
    coeffs = descend(n, spec.k(n), SERIES_FAILURE,
                     lambda m: (a * (n + m - 1) + d) * (n - m),
                     lambda m: -(m + 1) * (a * m * m + (b + d) * m + e))
    return SeriesCoefficients(n, FALLING, tuple(coeffs))


def falling_coeffs_three_term(spec: FamilySpec, n: int) -> SeriesCoefficients:
    """The general three-term route of ``falling_coeffs``, also run when c = 0
    (to cross-check the two-term route)."""
    a, b, c, d, e = spec.scaled().abcde()
    coeffs = descend(n, spec.k(n), SERIES_FAILURE,
                     lambda m: (a * (n + m - 1) + d) * (n - m),
                     lambda m: (m + 1) * (a * n * n - 2 * a * m * m - a * n - a * m + n * d
                                          - 2 * d * m - b * m - d - e),
                     lambda m: -(m + 1) * (m + 2) * (a * m * m + 2 * a * m + d * m + b * m
                                                     + a + d + b + c + e))
    return SeriesCoefficients(n, FALLING, tuple(coeffs))


def series_polynomial(spec: FamilySpec, n: int) -> Polynomial:
    """p_n reconstructed from its series coefficients (monomial basis)."""
    if spec.kind == CONTINUOUS:
        return power_coeffs(spec, n).polynomial()
    return falling_coeffs(spec, n).polynomial().to_basis(MONOMIAL)


# ---------------------------------------------------------------------------
# Hypergeometric descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Entry:
    """A hypergeometric parameter: a constant, an affine form in n, or -x."""

    kind: str  # "const" | "affine_n" | "neg_x"
    coef: FieldElement = 0  # coefficient of n (affine_n only)
    const: FieldElement = 0

    def value_at(self, n: int) -> FieldElement:
        if self.kind == "neg_x":
            raise ValueError("-x has no numeric value")
        return as_field(self.coef) * n + as_field(self.const)

    def render(self) -> str:
        if self.kind == "neg_x":
            return "-x"
        coef, const = as_field(self.coef), as_field(self.const)
        if coef == 0:
            return format_field(const)
        part = "n" if coef == 1 else ("-n" if coef == -1 else f"{format_field(coef)}*n")
        if const == 0:
            return part
        if not isinstance(const, Fraction):  # no sign to pull out
            return f"{part}+({format_field(const)})"
        return f"{part}{'+' if const > 0 else '-'}{format_rational(abs(const))}"


@dataclass(frozen=True)
class Argument:
    """Argument of the terminating sum.

    affine:     z = scale * x + offset  (the x-dependence sits in z)
    unit:       z = scale               (x sits in a -x upper parameter)
    reciprocal: z = scale / x**power    (series descends from x^n in steps)
    """

    kind: str
    scale: FieldElement = 1
    offset: FieldElement = 0
    power: int = 1


@dataclass(frozen=True)
class HypergeometricDescriptor:
    family_kind: str
    upper: tuple[Entry, ...]
    lower: tuple[Entry, ...]
    argument: Argument
    step: int  # 1, or 2 for the even/odd (symmetric) forms
    prefactor: Callable[[int], FieldElement] = field(compare=False)
    prefactor_label: str = ""

    def expand(self, n: int) -> SeriesCoefficients:
        return expand_descriptor(self, n)


def _bare_term(desc: HypergeometricDescriptor, n: int, k: int) -> FieldElement:
    """Pochhammer-product term of index k, without prefactor.

    A ``-x`` upper parameter contributes the sign (-1)^k: with
    x^(falling k) = (-1)^k (-x)_k, the remaining factor is exactly the
    falling-factorial basis element the expansion is written in.
    """
    term: FieldElement = Fraction(1)
    for entry in desc.upper:
        if entry.kind == "neg_x":
            term = term * Fraction(-1) ** k
        else:
            term = term * pochhammer(entry.value_at(n), k)
    for entry in desc.lower:
        div = pochhammer(entry.value_at(n), k)
        if div == 0:
            raise AdmissibilityError("vanishing lower-parameter Pochhammer in expansion")
        term = term / div
    return term / factorial(k) * as_field(desc.argument.scale) ** k


def expand_descriptor(desc: HypergeometricDescriptor, n: int) -> SeriesCoefficients:
    """Term-by-term expansion into exact series coefficients of degree n."""
    pref = as_field(desc.prefactor(n))
    if desc.step == 2:
        if desc.argument.kind != "reciprocal" or desc.argument.power != 2:
            raise ValueError("step-2 descriptors use a reciprocal-square argument")
        coeffs: list[FieldElement] = [Fraction(0)] * (n + 1)
        for k in range(n // 2 + 1):
            coeffs[n - 2 * k] = pref * _bare_term(desc, n, k)
        return SeriesCoefficients(n, MONOMIAL, tuple(coeffs))
    if desc.argument.kind == "affine" and desc.argument.offset != 0:
        raise ValueError("cannot expand an affine argument with nonzero offset "
                         "as a power series at the origin")
    basis = FALLING if desc.family_kind == DISCRETE else MONOMIAL
    coeffs = [pref * _bare_term(desc, n, m) for m in range(n + 1)]
    return SeriesCoefficients(n, basis, tuple(coeffs))


def _rational_sqrt(value: Fraction) -> Fraction | None:
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _normalized(desc: HypergeometricDescriptor, k) -> HypergeometricDescriptor:
    """Attach the prefactor that makes the top coefficient equal k(n)."""

    def prefactor(n: int):
        top = _bare_term(desc, n, n)
        if top == 0:
            raise AdmissibilityError("degenerate top term in closed form")
        return k(n) / top

    return HypergeometricDescriptor(desc.family_kind, desc.upper, desc.lower,
                                    desc.argument, desc.step, prefactor,
                                    "k(n) / [top term of bare sum]")


def closed_form(spec: FamilySpec) -> HypergeometricDescriptor:
    """Terminating-sum descriptor of p_n, built from the two-term recurrence.

    Continuous families need c = 0 (series at the origin); the symmetric
    case b = e = 0 instead yields the even/odd form descending from x^n in
    steps of two.  Discrete families need c = 0, and for a != 0 the
    quadratic a m^2 + (b+d) m + e must have rational roots (they become the
    lower parameters; the corresponding radicals always pair up, but only
    rational values are materialized here).  Anything else raises
    UnsupportedRepresentation; the coefficient recurrences remain available.
    """
    a, b, c, d, e = spec.abcde()

    if spec.kind == CONTINUOUS:
        if b == 0 and e == 0:
            # even/odd series down from x^n:
            # t_{k+1}/t_k = c (n-2k)(n-2k-1) / (2(k+1)(2a(n-k-1)+d-a))
            upper = (Entry("affine_n", Fraction(-1, 2), 0),
                     Entry("affine_n", Fraction(-1, 2), Fraction(1, 2)))
            if a != 0:
                lower: tuple[Entry, ...] = (Entry("affine_n", -1, 1 - (d - a) / (2 * a)),)
                scale: FieldElement = -c / a
            else:
                lower = ()
                scale = 2 * c / d
            desc = HypergeometricDescriptor(
                CONTINUOUS, upper, lower, Argument("reciprocal", scale, 0, 2), 2,
                spec.k, "k(n)")
            return desc
        if c != 0:
            raise UnsupportedRepresentation(
                "no power-basis closed form at origin (sigma has a constant term)")
        # term ratio: t_{m+1}/t_m = -x (m-n)(am + a(n-1)+d) / ((m+1)(bm+e))
        num_scalar: FieldElement = Fraction(1)
        upper = (Entry("affine_n", -1, 0),)
        if a != 0:
            upper += (Entry("affine_n", 1, d / a - 1),)
            num_scalar = a
        else:
            num_scalar = d
        if b != 0:
            lower = (Entry("const", 0, e / b),)
            den_scalar: FieldElement = b
        else:  # e != 0: b = e = 0 took the even/odd form above
            lower = ()
            den_scalar = e
        desc = HypergeometricDescriptor(
            CONTINUOUS, upper, lower,
            Argument("affine", -num_scalar / den_scalar, 0), 1,
            spec.k, "")
        return _normalized(desc, spec.k)

    if c != 0:
        raise UnsupportedRepresentation(
            "no falling-factorial closed form (sigma has a constant term)")
    # term ratio over t_m = C_m x^(falling m):
    #   (m-n)(am + a(n-1)+d)(m-x) / ((m+1)(am^2+(b+d)m+e))
    if a != 0:
        disc = (b + d) * (b + d) - 4 * a * e
        if not isinstance(disc, Fraction):
            raise UnsupportedRepresentation(
                "quadratic factorization over a formal parameter is not materialized; "
                "use the coefficient recurrence")
        root = _rational_sqrt(disc)
        if root is None:
            raise UnsupportedRepresentation(
                "lower parameters are irrational; use the coefficient recurrence")
        upper = (Entry("affine_n", -1, 0), Entry("affine_n", 1, d / a - 1), Entry("neg_x"))
        lower = (Entry("const", 0, (b + d + root) / (2 * a)),
                 Entry("const", 0, (b + d - root) / (2 * a)))
        scale = Fraction(1)
    elif b + d != 0:
        upper = (Entry("affine_n", -1, 0), Entry("neg_x"))
        lower = (Entry("const", 0, e / (b + d)),)
        scale = d / (b + d)
    else:
        if e == 0:
            raise UnsupportedRepresentation("p_n is the single term k_n x^(falling n)")
        upper = (Entry("affine_n", -1, 0), Entry("neg_x"))
        lower = ()
        scale = d / e
    desc = HypergeometricDescriptor(DISCRETE, upper, lower, Argument("unit", scale), 1,
                                    spec.k, "")
    return _normalized(desc, spec.k)


def descriptor_to_json(desc: HypergeometricDescriptor, n: int | None = None) -> dict:
    arg: dict = {"kind": desc.argument.kind, "scale": format_field(desc.argument.scale),
                 "offset": format_field(desc.argument.offset)}
    if desc.argument.kind == "reciprocal":
        arg["power"] = desc.argument.power
    return {
        "upper": [e.render() for e in desc.upper],
        "lower": [e.render() for e in desc.lower],
        "argument": arg,
        "step": desc.step,
        "prefactor": (format_field(desc.prefactor(n)) if n is not None
                      else desc.prefactor_label),
    }


# ---------------------------------------------------------------------------
# Inverse problem: powers / falling factorials in a family basis
# ---------------------------------------------------------------------------

def power_in_basis(spec: FamilySpec, n: int) -> SeriesCoefficients:
    """Coefficients C_m with x^n = sum_m C_m(n) Q_m(x), Q the given family.

    Internally solved for the monic system and rescaled.  Routes: the
    hypergeometric closed form when c = 0, a*b != 0 and none of its
    denominators vanishes; the two-term index recurrence otherwise when
    c = 0; the general three-term recurrence when c != 0.
    """
    if spec.kind != CONTINUOUS:
        raise ValueError("power_in_basis needs a continuous family")
    a, b, c, d, e = spec.abcde()
    if (c == 0 and a != 0 and b != 0 and pochhammer(d / a, n) != 0
            and pochhammer(e / b, n) != 0 and pochhammer((a * n + d) / a, n) != 0):
        monic = _power_in_monic_closed(spec, n)
    elif c == 0:
        monic = _power_in_monic_two_term(spec, n)
    else:
        monic = _power_in_monic_three_term(spec, n)
    return SeriesCoefficients(n, MONOMIAL,
                              tuple(monic[m] / spec.k(m) for m in range(n + 1)))


def _power_in_monic_two_term(spec: FamilySpec, n: int) -> list[FieldElement]:
    # (n-m)(d+2am)(d+a+2am) C_m + (m+1)(bm+e)(am+na+d) C_{m+1} = 0
    a, b, c, d, e = spec.scaled().abcde()
    return descend(n, Fraction(1), INVERSE_FAILURE,
                   lambda m: (n - m) * (d + 2 * a * m) * (d + a + 2 * a * m),
                   lambda m: (m + 1) * (b * m + e) * (a * m + n * a + d))


def _power_in_monic_closed(spec: FamilySpec, n: int) -> list[FieldElement]:
    # C_m(n) = (e/b)_n / (d/a)_n (-b/a)^n
    #          * (-n)_m (d/2a)_m ((a+d)/2a)_m / ((e/b)_m ((an+d)/a)_m m!) (4a/b)^m
    a, b, c, d, e = spec.abcde()
    head = pochhammer(e / b, n) / pochhammer(d / a, n) * (-b / a) ** n
    out: list[FieldElement] = []
    for m in range(n + 1):
        den = pochhammer(e / b, m) * pochhammer((a * n + d) / a, m) * factorial(m)
        if den == 0:
            raise AdmissibilityError(f"closed-form denominator vanishes at m={m}")
        num = (pochhammer(Fraction(-n), m) * pochhammer(d / (2 * a), m)
               * pochhammer((a + d) / (2 * a), m)) * (4 * a / b) ** m
        out.append(head * num / den)
    return out


def _power_in_monic_three_term(spec: FamilySpec, n: int) -> list[FieldElement]:
    # (n-m)(d+2am)(d+3a+2am)(d+a+2am)(d+2am+2a)^2 C_m
    #   + (de + bd + 2dbm + 2am^2 b + 2amb + 2ean - dbn)
    #     * (d+2am+2a)(m+1)(d+3a+2am)(d+a+2am) C_{m+1}
    #   - (m+2)(-4a^2 c m^2 + ab^2 m^2 + 2ab^2 m - 4acmd - 8a^2 cm + mb^2 d
    #      - ae^2 - d^2 c + bed - 4a^2 c - 4acd + ab^2 + b^2 d)
    #     * (am+an+a+d)(m+1)(d+2am) C_{m+2} = 0
    a, b, c, d, e = spec.scaled().abcde()
    return descend(n, Fraction(1), INVERSE_FAILURE,
                   lambda m: ((n - m) * (d + 2 * a * m) * (d + 3 * a + 2 * a * m)
                              * (d + a + 2 * a * m) * (d + 2 * a * m + 2 * a) ** 2),
                   lambda m: ((d * e + b * d + 2 * d * b * m + 2 * a * m * m * b + 2 * a * m * b
                               + 2 * e * a * n - d * b * n)
                              * (d + 2 * a * m + 2 * a) * (m + 1) * (d + 3 * a + 2 * a * m)
                              * (d + a + 2 * a * m)),
                   lambda m: -((m + 2) * (-4 * a * a * c * m * m + a * b * b * m * m
                                          + 2 * a * b * b * m - 4 * a * c * m * d
                                          - 8 * a * a * c * m + m * b * b * d
                                          - a * e * e - d * d * c + b * e * d - 4 * a * a * c
                                          - 4 * a * c * d + a * b * b + b * b * d)
                               * (a * m + a * n + a + d) * (m + 1) * (d + 2 * a * m)))


def falling_in_basis(spec: FamilySpec, n: int) -> SeriesCoefficients:
    """Coefficients C_m with x^(falling n) = sum_m C_m(n) Q_m(x)."""
    if spec.kind != DISCRETE:
        raise ValueError("falling_in_basis needs a discrete family")
    if spec.c == 0:
        monic = _falling_in_monic_two_term(spec, n)
    else:
        monic = _falling_in_monic_three_term(spec, n)
    return SeriesCoefficients(n, FALLING,
                              tuple(monic[m] / spec.k(m) for m in range(n + 1)))


def _falling_in_monic_two_term(spec: FamilySpec, n: int) -> list[FieldElement]:
    # (d+a+2am)(d+2am)(m-n) C_m - (an+d+am)(m+1)(am^2 + m(b+d) + e) C_{m+1} = 0
    a, b, c, d, e = spec.scaled().abcde()
    return descend(n, Fraction(1), INVERSE_FAILURE,
                   lambda m: (d + a + 2 * a * m) * (d + 2 * a * m) * (m - n),
                   lambda m: -(a * n + d + a * m) * (m + 1) * (a * m * m + m * (b + d) + e))


def _falling_in_monic_three_term(spec: FamilySpec, n: int) -> list[FieldElement]:
    # (2ma+a+d)(2ma+3a+d)(2ma+2a+d)^2 (2ma+d)(n-m) C_m
    #   + (2ma+a+d)(2ma+3a+d)(2ma+2a+d)(m+1) T(m) C_{m+1}
    #   + (m+1)(2ma+d)(m+2)(ma+na+a+d) U(m) C_{m+2} = 0
    a, b, c, d, e = spec.scaled().abcde()

    def T(m: int) -> FieldElement:
        return (2 * m * m * n * a * a - 2 * m * m * a * a + m * m * a * d
                + 2 * m * m * a * b + 2 * m * n * a * a + 2 * m * n * a * d
                - 2 * m * a * a - m * a * d + 2 * m * a * b + m * d * d
                + 2 * m * d * b + n * a * d + 2 * n * a * e - n * d * b
                - a * d + d * b + d * e)

    def U(m: int) -> FieldElement:
        return (m ** 4 * a ** 3 + 4 * m ** 3 * a ** 3 + 2 * m ** 3 * a * a * d
                + 6 * m * m * a ** 3 + 6 * m * m * a * a * d + 4 * m * m * a * a * c
                + 2 * m * m * a * a * e + m * m * a * d * d - m * m * a * d * b
                - m * m * a * b * b + 4 * m * a ** 3 + 6 * m * a * a * d
                + 8 * m * a * a * c + 4 * m * a * a * e + 2 * m * a * d * d
                - 2 * m * a * d * b + 4 * m * a * d * c + 2 * m * a * d * e
                - 2 * m * a * b * b - m * d * d * b - m * d * b * b + a ** 3
                + 2 * a * a * d + 4 * a * a * c + 2 * a * a * e + a * d * d
                - a * d * b + 4 * a * d * c + 2 * a * d * e - a * b * b + a * e * e
                - d * d * b + d * d * c - d * b * b - d * b * e)

    return descend(n, Fraction(1), INVERSE_FAILURE,
                   lambda m: ((2 * m * a + a + d) * (2 * m * a + 3 * a + d)
                              * (2 * m * a + 2 * a + d) ** 2 * (2 * m * a + d) * (n - m)),
                   lambda m: ((2 * m * a + a + d) * (2 * m * a + 3 * a + d)
                              * (2 * m * a + 2 * a + d) * (m + 1) * T(m)),
                   lambda m: ((m + 1) * (2 * m * a + d) * (m + 2)
                              * (m * a + n * a + a + d) * U(m)))
