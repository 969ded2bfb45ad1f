"""Structural coefficient formulas and exact relation checking.

For a family given by sigma = a x^2 + b x + c and tau = d x + e this module
evaluates, per degree n:

* the three-term recurrence triple (A_n, B_n, C_n) and its monic form
  (a_n, b_n, c_n) with x p_n = a_n p_{n+1} + b_n p_n + c_n p_{n-1};
* the derivative/difference-rule triple (alpha_n, beta_n, gamma_n) and the
  forward-difference variant (S_n, T_n, R_n);
* the starred / primed / hatted triples: the recurrence satisfied by the
  derivatives (differences), the rule expressing sigma acting on second
  derivatives, and the expansion of p_n in terms of neighboring derivatives
  (equivalently the antiderivative / antidifference of p_n).

Every triple is an exact rational expression in (a, b, c, d, e, n) and the
term ratio rho_n = k_{n+1}/k_n of the standardization, the only way the
formulas read k.  Each entry of the base triples is one quotient in n: B_n/A_n
(also the starred mid, on the derivatives' data (a, b, d + 2a, e') at degree
n - 1), beta_n, and the lower entries C_n, gamma_n and the starred lo over the
rho they carry.  Its numerator and denominator are products of brackets
whose coefficients depend on the spec alone; each bracket is expanded once
per spec (``families.polynomial_in_n``), each product too, and at each degree
the two are evaluated in integer arithmetic into one Fraction
(``families.quotient_in_n``).  rho_n and the recurrence, xpn, derivative-rule
and starred triples are kept in the spec's memo (``families.per_degree``),
so each is computed once per spec and degree however many formulas or
callers read it; the other triples are read off those.  ``RELATIONS`` names
the relations once for tabulate, verify and the oracle comparison, and
``formula_triple`` computes only the Theorem-1 triples its key needs.  A
formula raises AdmissibilityError where one of its denominators vanishes
(that is never memoized), and ``admissibility`` evaluates the formulas to
report those degrees.

Two independent routes exist throughout: the explicit formulas, and a
brute-force oracle that solves the defining second-order equation
coefficient-wise and extracts triples by exact linear solves.  The shipped
formulas are required to match the oracle (see ``diagnostics``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (
    FieldElement,
    Polynomial,
    _int_combination,
    as_field,
    expand_over,
    factorial,
    pochhammer,
)
from .families import (
    CONTINUOUS,
    DISCRETE,
    AdmissibilityError,
    FamilySpec,
    _term_ratio,
    catalog,
    lambda_n,
    per_degree,
    polynomial_in_n,
    quotient_in_n,
)
from .series import series_polynomial


@dataclass(frozen=True)
class CoefficientTriple:
    """Coefficients on the (n+1), n, (n-1) neighbors in a structure relation."""

    hi: FieldElement
    mid: FieldElement
    lo: FieldElement

    def __iter__(self):
        yield from (self.hi, self.mid, self.lo)


# ---------------------------------------------------------------------------
# Recurrence coefficients (continuous and discrete explicit formulas)
# ---------------------------------------------------------------------------

@polynomial_in_n
def _sum_factor(spec: FamilySpec, n: int) -> FieldElement:
    """The shared bracket of the C_n / gamma_n numerators."""
    a, b, c, d, e = spec.abcde()
    if spec.kind == CONTINUOUS:
        return ((n - 1) * (a * n + d - a) * (4 * c * a - b * b)
                + a * e * e + d * d * c - b * e * d)
    return ((n - 1) * (d + a * n - a)
            * (a * n * d - d * b - a * d + a * a * n * n - 2 * a * a * n
               + 4 * c * a + a * a + 2 * e * a - b * b)
            - d * b * e + d * d * c + a * e * e)


@polynomial_in_n
def _cn_denominator(spec: FamilySpec, n: int) -> FieldElement:
    a, d = spec.a, spec.d
    if spec.kind == CONTINUOUS:
        return ((d - 2 * a + 2 * a * n) ** 2 * (2 * a * n - 3 * a + d)
                * (2 * a * n - a + d))
    return ((d - a + 2 * a * n) * (d + 2 * a * n - 3 * a)
            * (2 * a * n - 2 * a + d) ** 2)


@polynomial_in_n
def _linear_factor(spec: FamilySpec, n: int, shift: int) -> FieldElement:
    """an + d - shift a: the factors an + d - a and an + d - 2a of the lower entries."""
    return spec.a * n + spec.d - shift * spec.a


@per_degree
def _k_ratio(spec: FamilySpec, n: int) -> FieldElement:
    """rho_n = k_{n+1} / k_n: the one way the formulas read the standardization.
    A failing k_{n+1} or k_n is reported first; then the rule's term ratio."""
    k_next, k_n = spec.k(n + 1), spec.k(n)
    rho = _term_ratio(spec, n)
    return k_next / k_n if rho is None else rho


@quotient_in_n
def _lower_entry(spec: FamilySpec, n: int, sign: int, shifts: tuple[int, ...]):
    """The product of the factors an + d - shift a, times sign n S(n) / D(n),
    with S = ``_sum_factor`` and D = ``_cn_denominator``: the lower entries
    over the rho they carry.  With Q_n = n S(n) / D(n) rho_{n-1},

        C_n / (rho_{n-1} rho_n) = -(an + d - 2a) n S(n) / D(n)     (C_n = -(an + d - 2a) Q_n A_n)
        gamma_n / rho_{n-1} = (an + d - a)(an + d - 2a) n S(n) / D(n)
        lo*_n / rho_{n-1}   = -(an + d - a) n S(n) / D(n)          (lo*_n = -(an + d - a) Q_n).
    """
    linear = tuple(_linear_factor(spec, n, shift) for shift in shifts)
    return (*linear, sign * n * _sum_factor(spec, n)), (_cn_denominator(spec, n),)


def _lower(spec: FamilySpec, n: int, sign: int, shifts: tuple[int, ...],
           failure: str) -> FieldElement:
    """``_lower_entry`` times rho_{n-1}; AdmissibilityError(failure), formatted
    with n and the spec's name, where D(n) vanishes (before rho_{n-1} is read)."""
    entry = _lower_entry(spec, n, sign, shifts)
    if entry is None:
        raise AdmissibilityError(failure.format(n=n, name=spec.name or spec.abcde()))
    return entry * _k_ratio(spec, n - 1)


def _tau_data(spec: FamilySpec, starred: bool) -> tuple[FieldElement, FieldElement]:
    """(d, e) of tau, or (d + 2a, e') of the derivatives' tau when starred."""
    a, b, d, e = spec.a, spec.b, spec.d, spec.e
    if not starred:
        return d, e
    return d + 2 * a, e + b if spec.kind == CONTINUOUS else d + e + a + b


@polynomial_in_n
def _b_numerator(spec: FamilySpec, n: int, starred: bool) -> FieldElement:
    a, b = spec.a, spec.b
    d, e = _tau_data(spec, starred)
    if spec.kind == CONTINUOUS:
        return 2 * b * n * (a * n + d - a) - e * (-d + 2 * a)
    return n * (d + 2 * b) * (d + a * n - a) + e * (d - 2 * a)


@polynomial_in_n
def _b_denominator(spec: FamilySpec, n: int, starred: bool) -> FieldElement:
    """(d + 2an)(d - 2a + 2an), of both kinds; unstarred, also beta_n's."""
    a, d = spec.a, _tau_data(spec, starred)[0]
    return (d + 2 * a * n) * (d - 2 * a + 2 * a * n)


@quotient_in_n
def _b_quotient(spec: FamilySpec, n: int, starred: bool):
    return (_b_numerator(spec, n, starred),), (_b_denominator(spec, n, starred),)


def _b_ratio(spec: FamilySpec, n: int, starred: bool) -> FieldElement:
    """B_n / A_n of the recurrence for the data (a, b) and ``_tau_data``.

    At n = 0 it is the reduced value e/d (the general bracket carries a
    removable common factor d - 2a there).
    """
    if n == 0:
        d, e = _tau_data(spec, starred)
        return e / d
    value = _b_quotient(spec, n, starred)
    if value is None:
        raise AdmissibilityError(f"B_{n} denominator vanishes for {spec.name or spec.abcde()}")
    return value


@per_degree
def recurrence_coeffs(spec: FamilySpec, n: int) -> CoefficientTriple:
    """(A_n, B_n, C_n) with p_{n+1} = (A_n x + B_n) p_n - C_n p_{n-1}.

    A_n is rho_n.  C_0 is reported as 0 (it multiplies p_{-1} = 0), and B_0
    as the reduced value (e/d) A_0.
    """
    A = _k_ratio(spec, n)
    B = _b_ratio(spec, n, False) * A
    if n == 0:
        return CoefficientTriple(A, B, Fraction(0))
    C = _lower(spec, n, -1, (2,), "C_{n} denominator vanishes for {name}") * A
    return CoefficientTriple(A, B, C)


def _flip(t: CoefficientTriple) -> CoefficientTriple:
    """(A, B, C) <-> (a, b, c): the map between the two recurrence forms."""
    return CoefficientTriple(1 / t.hi, -t.mid / t.hi, t.lo / t.hi)


@per_degree
def xpn_coeffs(spec: FamilySpec, n: int) -> CoefficientTriple:
    """(a_n, b_n, c_n) with x p_n = a_n p_{n+1} + b_n p_n + c_n p_{n-1}."""
    return _flip(recurrence_coeffs(spec, n))


@polynomial_in_n
def _beta_numerator(spec: FamilySpec, n: int) -> FieldElement:
    a, b, c, d, e = spec.abcde()
    if spec.kind == CONTINUOUS:
        return -(n * (a * n + d - a) * (2 * e * a - d * b))
    return -(n * (d + a * n - a)
             * (2 * a * n * d - a * d - d * b + 2 * e * a
                - 2 * a * a * n + 2 * a * a * n * n))


@quotient_in_n
def _beta(spec: FamilySpec, n: int):
    return (_beta_numerator(spec, n),), (_b_denominator(spec, n, False),)


@per_degree
def derivative_rule_coeffs(spec: FamilySpec, n: int) -> CoefficientTriple:
    """(alpha_n, beta_n, gamma_n) of the derivative rule

    continuous: sigma p_n' = alpha p_{n+1} + beta p_n + gamma p_{n-1}
    discrete:   sigma nabla p_n = alpha p_{n+1} + beta p_n + gamma p_{n-1}
    """
    if n < 1:
        raise ValueError("derivative rule needs n >= 1")
    spec.k(n)  # alpha_n = a n k_n / k_{n+1}: a failing k_n is reported first
    alpha = spec.a * n / _k_ratio(spec, n)
    beta = _beta(spec, n)
    if beta is None:
        raise AdmissibilityError(f"beta_{n} denominator vanishes")
    return CoefficientTriple(alpha, beta,
                             _lower(spec, n, 1, (1, 2), "gamma_{n} denominator vanishes"))


def delta_rule_coeffs(spec: FamilySpec, n: int) -> CoefficientTriple:
    """(S_n, T_n, R_n) with (sigma + tau) Delta p_n = S p_{n+1} + T p_n + R p_{n-1}."""
    if spec.kind != DISCRETE:
        raise ValueError("delta rule applies to discrete families")
    rule = derivative_rule_coeffs(spec, n)
    return CoefficientTriple(rule.hi, rule.mid - lambda_n(spec, n), rule.lo)


# ---------------------------------------------------------------------------
# Theorem-1 triples (starred / primed / hatted)
# ---------------------------------------------------------------------------

@per_degree
def starred_coeffs(spec: FamilySpec, n: int) -> CoefficientTriple:
    """(hi, mid, lo) with x D p_n = hi D p_{n+1} + mid D p_n + lo D p_{n-1}, n >= 1.

    The derivatives q_m = D p_{m+1} solve the equation with data
    (a, b, c, d + 2a, e'), e' = e + b (continuous) or d + e + a + b
    (discrete), and have leading coefficients (m+1) k_{m+1}; this is their
    x q_{n-1} relation.  So hi = 1/A and mid = -B/A of that recurrence at
    degree n - 1.  Its C/A is -(an + d - a) Q_n, since that recurrence's
    ``_sum_factor`` and ``_cn_denominator`` at n - 1 are S(n) and D(n);
    the factor n - 1 cancels, so lo stays defined at n = 1 (where it
    multiplies D p_0 = 0).  Raises AdmissibilityError where d + 2a = 0 (the
    derivatives' tau is constant).  Its two brackets have the denominators
    of B_n and C_n of ``recurrence_coeffs`` at the same n.
    """
    if n < 1:
        raise ValueError("starred triple needs n >= 1")
    if spec.d + 2 * spec.a == 0:
        raise AdmissibilityError("tau must have degree exactly 1 (d != 0)")
    spec.k(n)  # hi = n k_n / ((n + 1) k_{n+1}): a failing k_n is reported first
    hi = n / ((n + 1) * _k_ratio(spec, n))
    mid = -_b_ratio(spec, n - 1, True)
    lo = _lower(spec, n, -1, (1,), "gamma_{n} denominator vanishes")
    return CoefficientTriple(hi, mid, lo)


def theorem1_coeffs(spec: FamilySpec, n: int) -> dict[str, CoefficientTriple]:
    """The starred, primed and hatted triples for degree n >= 1.

    starred: x D p_n   = alpha* D p_{n+1} + beta* D p_n + gamma* D p_{n-1}
    primed:  sigma D' p_n = a' D p_{n+1} + b' D p_n + c' D p_{n-1}
    hatted:  p_n       = a^ D p_{n+1} + b^ D p_n + c^ D p_{n-1}

    where D is d/dx (continuous) or the forward difference (discrete), and
    D' p_n means p_n'' resp. Delta nabla p_n.  The starred triple is
    ``starred_coeffs``; the primed and hatted ones follow from it and the
    derivative rule by exact elimination.  At n = 1 the lo components
    multiply D p_0 = 0; the values reported there are the closed forms in n
    (the ones the antiderivative tables print), not the arbitrary
    convention 0.
    """
    return dict(_theorem1(spec, n))


def _theorem1(spec: FamilySpec, n: int):
    """Yield the starred, primed and hatted triples in turn, as (kind, triple);
    every check comes before the first, so each raises where
    ``theorem1_coeffs`` does."""
    if n < 1:
        raise ValueError("theorem1 triples need n >= 1")
    alpha, beta, gamma = derivative_rule_coeffs(spec, n)
    starred = starred_coeffs(spec, n)
    lam = lambda_n(spec, n)
    if lam == 0:
        raise AdmissibilityError(f"lambda_{n} = 0; hatted triple undefined")
    yield "starred", starred
    a, b, c, d, e = spec.abcde()
    sig_delta = b if spec.kind == CONTINUOUS else a + b
    primed = CoefficientTriple(alpha - 2 * a * starred.hi,
                               beta - 2 * a * starred.mid - sig_delta,
                               gamma - 2 * a * starred.lo)
    yield "primed", primed
    scale = -1 / lam
    yield "hatted", CoefficientTriple((primed.hi + d * starred.hi) * scale,
                                      (primed.mid + d * starred.mid + e) * scale,
                                      (primed.lo + d * starred.lo) * scale)


def antiderivative(spec: FamilySpec, n: int) -> CoefficientTriple:
    """Expansion of the antiderivative of p_n over p_{n+1}, p_n, p_{n-1}.

    Integrating the hatted relation once gives
    int p_n dx = a^ p_{n+1} + b^ p_n + c^ p_{n-1} + const.
    """
    if spec.kind != CONTINUOUS:
        raise ValueError("antiderivative applies to continuous families")
    return theorem1_coeffs(spec, n)["hatted"]


def antidifference(spec: FamilySpec, n: int) -> CoefficientTriple:
    """Expansion of the antidifference of p_n over p_{n+1}, p_n, p_{n-1}."""
    if spec.kind != DISCRETE:
        raise ValueError("antidifference applies to discrete families")
    return theorem1_coeffs(spec, n)["hatted"]


@dataclass(frozen=True)
class Relation:
    """One structure relation, as ``RELATIONS`` lists it."""
    start: int  # its first degree
    check: str | None  # its verify_structure name; None for xpn, the flipped recurrence
    kinds: tuple[str, ...] = (CONTINUOUS, DISCRETE)  # the kinds of family that have it
    theorem1: bool = False  # a Theorem-1 relation: its lo multiplies D p_0 = 0 at n = 1


# Every structure relation, keyed as in ``formula_triples`` and ``tabulate --what``.
RELATIONS = {"recurrence": Relation(0, "recurrence"), "xpn": Relation(0, None),
             "derivative": Relation(1, "derivative_rule"),
             "delta": Relation(1, "delta_rule", (DISCRETE,)),
             **{key: Relation(1, key, theorem1=True) for key in ("starred", "primed", "hatted")}}
RELATION_NAMES = ("equation", *(r.check for r in RELATIONS.values() if r.check))


def formula_triple(spec: FamilySpec, key: str, n: int) -> CoefficientTriple:
    """``formula_triples(spec, n)[key]``, in value and in every exception of
    its formula, computing only the Theorem-1 triples ``key`` is read off."""
    if RELATIONS[key].theorem1:
        return next(triple for kind, triple in _theorem1(spec, n) if kind == key)
    return {"recurrence": recurrence_coeffs, "xpn": xpn_coeffs,
            "derivative": derivative_rule_coeffs, "delta": delta_rule_coeffs}[key](spec, n)


def formula_triples(spec: FamilySpec, n: int) -> dict[str, CoefficientTriple]:
    """Every explicit triple for degree n, under the keys of ``oracle_triples``.

    The triples the others are read off come from the spec's memo, so a
    second call for the same spec and n computes no bracket again.
    """
    out, theorem1 = {}, {}
    for key, relation in RELATIONS.items():
        if n >= relation.start and spec.kind in relation.kinds:
            if relation.theorem1:  # the three Theorem-1 triples from one call
                theorem1 = theorem1 or theorem1_coeffs(spec, n)
            out[key] = theorem1[key] if relation.theorem1 else formula_triple(spec, key, n)
    return out


# ---------------------------------------------------------------------------
# Admissibility: where the formulas above are defined
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityReport:
    ok: bool
    failures: tuple[tuple[str, int, str], ...]  # (formula group, n, message)


# formula group -> (first degree, the group's formula at one degree)
_FORMULA_GROUPS = {
    "recurrence": (0, recurrence_coeffs),
    "derivative": (1, derivative_rule_coeffs),
    "theorem1": (1, theorem1_coeffs),
    "series": (0, series_polynomial),
}

ALL_FORMULAS = tuple(sorted(_FORMULA_GROUPS))


def admissibility(spec: FamilySpec, n_max: int,
                  formulas: tuple[str, ...] = ALL_FORMULAS) -> AdmissibilityReport:
    """Where the requested formula groups are defined, for n <= n_max.

    Each group's formula is evaluated at every degree from its first one
    (recurrence and the forward series from n = 0, the derivative rule and
    the Theorem-1 triples from n = 1); every AdmissibilityError it raises
    is recorded as (group, n, message).  The standardization is checked for
    n <= n_max + 1 and a failing k_n recorded as ("leading", n, "k_n").
    """
    failures: list[tuple[str, int, str]] = []
    for formula in formulas:
        if formula not in _FORMULA_GROUPS:
            raise KeyError(f"unknown formula group {formula!r}")
        start, evaluate = _FORMULA_GROUPS[formula]
        for n in range(start, n_max + 1):
            try:
                evaluate(spec, n)
            except AdmissibilityError as exc:
                failures.append((formula, n, str(exc)))
    for n in range(n_max + 2):
        try:
            spec.k(n)
        except AdmissibilityError:
            failures.append(("leading", n, f"k_{n}"))
    return AdmissibilityReport(not failures, tuple(failures))


# ---------------------------------------------------------------------------
# Generation and the independent equation-solver oracle
# ---------------------------------------------------------------------------

def generate(spec: FamilySpec, n_max: int) -> list[Polynomial]:
    """p_0 .. p_{n_max} via the three-term recurrence, monomial basis.

    Each step multiplies the leading coefficient k_n by A_n = k_{n+1}/k_n,
    and ``spec.k`` raises on a zero k_n, so p_n has degree n and leading
    coefficient k_n exactly.  Raises the AdmissibilityError of k_0 or of the
    first ``recurrence_coeffs`` step that fails; those steps are the ones
    ``admissibility(spec, n_max - 1, ("recurrence",))`` evaluates.
    """
    polys = [Polynomial.const(spec.k(0))]
    if n_max == 0:
        return polys
    x = Polynomial.x()
    prev = Polynomial.zero()
    for n in range(n_max):
        A, B, C = recurrence_coeffs(spec, n)
        nxt = (x.scale(A) + B) * polys[-1] - prev.scale(C)
        prev = polys[-1]
        polys.append(nxt)
    return polys


@per_degree
def _operator_column(spec: FamilySpec, j: int) -> Polynomial:
    """L_0 x^j: the operator of the equation at lambda = 0 applied to x^j."""
    return spec.apply_operator(Polynomial.monomial(j), 0)


def solve_equation(spec: FamilySpec, n: int) -> Polynomial:
    """Degree-n solution of the defining equation with leading k_n.

    Brute-force oracle: applies the second-order operator to each monomial
    and back-substitutes, independently of every transcribed formula.  The
    operator at degree n is L_n = L_0 + lambda_n, so its column L_n x^j is
    L_0 x^j, which does not depend on n and is kept in the spec's memo,
    plus lambda_n on the diagonal: solving every degree up to N applies the
    operator N + 1 times.
    """
    lam = lambda_n(spec, n)
    columns = [_operator_column(spec, j) + Polynomial.monomial(j, lam) for j in range(n + 1)]
    k_n = spec.k(n)
    for m in range(n - 1, -1, -1):
        if columns[m].coeff(m) == 0:  # lambda_n - lambda_m
            raise AdmissibilityError(f"degenerate equation: lambda_{m} = lambda_{n}")
    # sum_{j<n} c_j L x^j = -k_n L x^n, and L x^j has degree exactly j < n
    return Polynomial(expand_over(columns[n].scale(-k_n), columns[:n]) + [k_n])


def oracle_basis(spec: FamilySpec, n_max: int) -> list[Polynomial]:
    """Equation-solver polynomials p_0 .. p_{n_max}, each solved once."""
    return [solve_equation(spec, m) for m in range(n_max + 1)]


def _relation_sides(spec: FamilySpec, polys: list[Polynomial], n: int
                    ) -> dict[str, tuple[Polynomial, tuple[Polynomial, Polynomial, Polynomial]]]:
    """Each structure relation at degree n as lhs = t.hi*hi + t.mid*mid + t.lo*lo.

    Returns ``{key: (lhs, (hi, mid, lo))}`` under the keys of
    ``formula_triples`` (xpn, the flipped recurrence, excepted), built from
    ``polys[n - 1]``, ``polys[n]`` and ``polys[n + 1]``.  The recurrence is
    p_{n+1} over (x p_n, p_n, -p_{n-1}), so its triple is (A_n, B_n, C_n).
    D is d/dx (continuous) or the forward difference (discrete).
    """
    x = Polynomial.x()
    pp, pn = polys[n + 1], polys[n]
    pm = polys[n - 1] if n >= 1 else Polynomial.zero()
    sides = {"recurrence": (pp, (x * pn, pn, -pm))}
    if n < 1:
        return sides
    sig, near = spec.sigma(), (pp, pn, pm)
    if spec.kind == CONTINUOUS:
        diff = tuple(p.derivative() for p in near)
        sides["derivative"] = (sig * diff[1], near)
        second = diff[1].derivative()
    else:
        diff = tuple(p.delta() for p in near)
        sides["derivative"] = (sig * pn.nabla(), near)
        sides["delta"] = ((sig + spec.tau()) * diff[1], near)
        second = diff[1].nabla()
    sides["starred"] = (x * diff[1], diff)
    sides["primed"] = (sig * second, diff)
    sides["hatted"] = (pn, diff)
    return sides


def oracle_triples(spec: FamilySpec, basis: list[Polynomial],
                   n: int) -> dict[str, CoefficientTriple]:
    """All structure triples for degree n solved from oracle polynomials.

    ``basis`` is ``oracle_basis(spec, m)`` for some m >= n + 1; only its
    entries n - 1, n and n + 1 are read.
    """
    out = {key: CoefficientTriple(*expand_over(lhs, parts))
           for key, (lhs, parts) in _relation_sides(spec, basis, n).items()}
    return {"xpn": _flip(out["recurrence"]), **out}


# ---------------------------------------------------------------------------
# Relation verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelationCheck:
    relation: str
    n: int
    ok: bool
    residual: str = ""


@dataclass(frozen=True)
class StructureReport:
    spec_name: str
    n_max: int
    checks: tuple[RelationCheck, ...]
    polys: tuple[Polynomial, ...] = field(repr=False)  # generate's p_0 .. p_{n_max+1}

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> tuple[RelationCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


def verify_structure(spec: FamilySpec, n_max: int,
                     relations: tuple[str, ...] = RELATION_NAMES) -> StructureReport:
    """Exact residuals of every structure relation for 1 <= n <= n_max - 1.

    The equation and recurrence residuals are checked from n = 0.  A zero
    residual polynomial means the relation holds identically.  The report
    keeps the generated p_0 .. p_{n_max+1} the residuals were computed from.
    """
    if n_max < 2:
        raise ValueError("verify_structure needs n_max >= 2")
    unknown = set(relations) - set(RELATION_NAMES)
    if unknown:
        raise KeyError(f"unknown relations: {sorted(unknown)}")
    polys = generate(spec, n_max + 1)
    checks: list[RelationCheck] = []

    def record(relation: str, n: int, residual: Polynomial):
        checks.append(RelationCheck(relation, n, residual.is_zero(),
                                    "" if residual.is_zero() else repr(residual)))

    for n in range(n_max + 1):
        if "equation" in relations:
            record("equation", n, spec.apply_operator(polys[n], n))
        if n > n_max - 1:
            continue
        triples = formula_triples(spec, n)
        sides = _relation_sides(spec, polys, n)
        for key, relation in RELATIONS.items():
            if relation.check not in relations or key not in sides:
                continue
            lhs, parts = sides[key]
            triple = triples[key]
            views = [p._int_view() for p in (lhs, *parts)]
            if all(views) and all(type(t) is Fraction for t in triple):
                # lhs - sum t * part, in one integer combination
                residual = _int_combination(lhs.basis, (views[0], 1),
                                            *zip(views[1:], (-t for t in triple)))
            else:
                residual = lhs
                for t, part in zip(triple, parts):
                    residual = residual - part.scale(t)
            record(relation.check, n, residual)
    return StructureReport(spec.name or str(spec.abcde()), n_max, tuple(checks),
                           tuple(polys))


# ---------------------------------------------------------------------------
# The falling-factorial antidifference and the binomial-sum identity
# ---------------------------------------------------------------------------

def binomial_partial_sum(n: int, m: int) -> tuple[Fraction, Fraction]:
    """sum_{k=0..m} C(n+k, k) via the antidifference route, and C(n+m+1, m).

    The antidifference of x^(falling n) is x^(falling n+1)/(n+1): the hatted
    triple of the falling-factorial family is (1/(n+1), 0, 0).  Summing the
    telescoping differences turns the binomial sum into a single evaluation.
    """
    if n < 0 or m < 0:
        raise ValueError("need n, m >= 0")
    fam = catalog("falling-factorial")
    if n >= 1:
        hat = antidifference(fam, n)
        if (hat.mid, hat.lo) != (0, 0) or hat.hi != Fraction(1, n + 1):
            raise AssertionError("falling-factorial antidifference is not x^(n+1)/(n+1)")
    anti = Polynomial.monomial(n + 1, Fraction(1, n + 1), basis=fam.basis())
    # sum_{k=0..m} C(n+k,k) = (1/n!) * sum_{j=n..m+n} j^(falling n)
    #                        = (anti(m+n+1) - anti(n)) / n!
    lhs = (anti(Fraction(m + n + 1)) - anti(Fraction(n))) / factorial(n)
    rhs = as_field(pochhammer(Fraction(n + 2), m)) / factorial(m)  # C(n+m+1, m)
    return lhs, rhs
