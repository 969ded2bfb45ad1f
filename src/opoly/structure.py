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
standardization k_n.  Two brackets are written once and shared: the B
bracket of the recurrence, which also gives the starred mid (evaluated on
the derivatives' data (a, b, d + 2a, e') at degree n - 1), and the lower
bracket Q_n behind C_n, gamma_n and the starred lo.  Q_n and the
recurrence, xpn, derivative-rule and starred triples are kept in the
spec's memo (``families.per_degree``), so each is computed once per spec
and degree however many formulas or callers read it; the other triples
are read off those.  A formula raises AdmissibilityError where one of its
denominators vanishes (that is never memoized), and ``admissibility``
evaluates the formulas to report those degrees.

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
    as_field,
    expand_over,
    factorial,
    format_rational,
    pochhammer,
)
from .families import (
    CONTINUOUS,
    DISCRETE,
    AdmissibilityError,
    FamilySpec,
    catalog,
    lambda_n,
    per_degree,
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


def _cn_denominator(spec: FamilySpec, n: int) -> FieldElement:
    a, d = spec.a, spec.d
    if spec.kind == CONTINUOUS:
        return ((d - 2 * a + 2 * a * n) ** 2 * (2 * a * n - 3 * a + d)
                * (2 * a * n - a + d))
    return ((d - a + 2 * a * n) * (d + 2 * a * n - 3 * a)
            * (2 * a * n - 2 * a + d) ** 2)


@per_degree
def _lower_factor(spec: FamilySpec, n: int, failure: str) -> FieldElement:
    """Q_n = n S(n) / D(n) * k_n / k_{n-1}, with S = ``_sum_factor`` and
    D = ``_cn_denominator``: the bracket every lower entry is written with,

        C_n     = -(an + d - 2a) Q_n A_n        (recurrence)
        gamma_n = (an + d - a)(an + d - 2a) Q_n  (derivative rule)
        lo*_n   = -(an + d - a) Q_n              (starred triple).

    Raises AdmissibilityError(failure), formatted with n and the spec's
    name, where D(n) vanishes; so each caller keeps its own message.
    """
    den = _cn_denominator(spec, n)
    if den == 0:
        raise AdmissibilityError(failure.format(n=n, name=spec.name or spec.abcde()))
    return n * _sum_factor(spec, n) / den * (spec.k(n) / spec.k(n - 1))


def _b_ratio(spec: FamilySpec, n: int, d: FieldElement, e: FieldElement) -> FieldElement:
    """B_n / A_n of the recurrence for the data (spec.a, spec.b, d, e).

    At n = 0 it is the reduced value e/d (the general bracket carries a
    removable common factor d - 2a there).
    """
    if n == 0:
        return e / d
    a, b = spec.a, spec.b
    if spec.kind == CONTINUOUS:
        num = 2 * b * n * (a * n + d - a) - e * (-d + 2 * a)
        den = (d + 2 * a * n) * (d - 2 * a + 2 * a * n)
    else:
        num = n * (d + 2 * b) * (d + a * n - a) + e * (d - 2 * a)
        den = (2 * a * n - 2 * a + d) * (d + 2 * a * n)
    if den == 0:
        raise AdmissibilityError(f"B_{n} denominator vanishes for {spec.name or spec.abcde()}")
    return num / den


@per_degree
def recurrence_coeffs(spec: FamilySpec, n: int) -> CoefficientTriple:
    """(A_n, B_n, C_n) with p_{n+1} = (A_n x + B_n) p_n - C_n p_{n-1}.

    C_0 is reported as 0 (it multiplies p_{-1} = 0), and B_0 as the reduced
    value (e/d) A_0.
    """
    A = spec.k(n + 1) / spec.k(n)
    B = _b_ratio(spec, n, spec.d, spec.e) * A
    if n == 0:
        return CoefficientTriple(A, B, Fraction(0))
    lower = _lower_factor(spec, n, "C_{n} denominator vanishes for {name}")
    return CoefficientTriple(A, B, -(spec.a * n + spec.d - 2 * spec.a) * lower * A)


def _flip(t: CoefficientTriple) -> CoefficientTriple:
    """(A, B, C) <-> (a, b, c): the map between the two recurrence forms."""
    return CoefficientTriple(1 / t.hi, -t.mid / t.hi, t.lo / t.hi)


@per_degree
def xpn_coeffs(spec: FamilySpec, n: int) -> CoefficientTriple:
    """(a_n, b_n, c_n) with x p_n = a_n p_{n+1} + b_n p_n + c_n p_{n-1}."""
    return _flip(recurrence_coeffs(spec, n))


@per_degree
def derivative_rule_coeffs(spec: FamilySpec, n: int) -> CoefficientTriple:
    """(alpha_n, beta_n, gamma_n) of the derivative rule

    continuous: sigma p_n' = alpha p_{n+1} + beta p_n + gamma p_{n-1}
    discrete:   sigma nabla p_n = alpha p_{n+1} + beta p_n + gamma p_{n-1}
    """
    if n < 1:
        raise ValueError("derivative rule needs n >= 1")
    a, b, c, d, e = spec.abcde()
    alpha = a * n * (spec.k(n) / spec.k(n + 1))
    if spec.kind == CONTINUOUS:
        beta_num = -(n * (a * n + d - a) * (2 * e * a - d * b))
        beta_den = (d + 2 * a * n) * (d - 2 * a + 2 * a * n)
    else:
        beta_num = -(n * (d + a * n - a)
                     * (2 * a * n * d - a * d - d * b + 2 * e * a
                        - 2 * a * a * n + 2 * a * a * n * n))
        beta_den = (2 * a * n - 2 * a + d) * (d + 2 * a * n)
    if beta_den == 0:
        raise AdmissibilityError(f"beta_{n} denominator vanishes")
    beta = beta_num / beta_den
    lower = _lower_factor(spec, n, "gamma_{n} denominator vanishes")
    return CoefficientTriple(alpha, beta, (a * n + d - a) * (a * n + d - 2 * a) * lower)


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
    a, b, d, e = spec.a, spec.b, spec.d, spec.e
    if d + 2 * a == 0:
        raise AdmissibilityError("tau must have degree exactly 1 (d != 0)")
    e_star = e + b if spec.kind == CONTINUOUS else d + e + a + b
    hi = n * spec.k(n) / ((n + 1) * spec.k(n + 1))
    mid = -_b_ratio(spec, n - 1, d + 2 * a, e_star)
    lo = -(a * n + d - a) * _lower_factor(spec, n, "gamma_{n} denominator vanishes")
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
    if n < 1:
        raise ValueError("theorem1 triples need n >= 1")
    alpha, beta, gamma = derivative_rule_coeffs(spec, n)
    a, b, c, d, e = spec.abcde()
    starred = starred_coeffs(spec, n)
    sig_delta = b if spec.kind == CONTINUOUS else a + b
    primed = CoefficientTriple(alpha - 2 * a * starred.hi,
                               beta - 2 * a * starred.mid - sig_delta,
                               gamma - 2 * a * starred.lo)
    lam = lambda_n(spec, n)
    if lam == 0:
        raise AdmissibilityError(f"lambda_{n} = 0; hatted triple undefined")
    hatted = CoefficientTriple(-(primed.hi + d * starred.hi) / lam,
                               -(primed.mid + d * starred.mid + e) / lam,
                               -(primed.lo + d * starred.lo) / lam)
    return {"starred": starred, "primed": primed, "hatted": hatted}


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


def formula_triples(spec: FamilySpec, n: int) -> dict[str, CoefficientTriple]:
    """Every explicit triple for degree n, under the keys of ``oracle_triples``.

    The triples the others are read off come from the spec's memo, so a
    second call for the same spec and n computes no bracket again.
    """
    out = {"xpn": xpn_coeffs(spec, n), "recurrence": recurrence_coeffs(spec, n)}
    if n < 1:
        return out
    out["derivative"] = derivative_rule_coeffs(spec, n)
    if spec.kind == DISCRETE:
        out["delta"] = delta_rule_coeffs(spec, n)
    out.update(theorem1_coeffs(spec, n))
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
        nxt = (x.scale(A) + Polynomial.const(B)) * polys[-1] - prev.scale(C)
        prev = polys[-1]
        polys.append(nxt)
    return polys


def solve_equation(spec: FamilySpec, n: int) -> Polynomial:
    """Degree-n solution of the defining equation with leading k_n.

    Brute-force oracle: applies the second-order operator to each monomial
    and back-substitutes, independently of every transcribed formula.
    """
    columns = [spec.apply_operator(Polynomial.monomial(j), n) for j in range(n + 1)]
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


RELATION_NAMES = ("equation", "recurrence", "derivative_rule", "delta_rule",
                  "starred", "primed", "hatted")


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
        for relation in RELATION_NAMES[1:]:
            key = relation.removesuffix("_rule")  # derivative_rule -> derivative
            if relation not in relations or key not in sides:
                continue
            residual, parts = sides[key]
            for t, part in zip(triples[key], parts):
                residual = residual - part.scale(t)
            record(relation, n, residual)
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


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def table_to_json(relation: str, entries: list[tuple[int, CoefficientTriple]]) -> dict:
    """CoefficientTable JSON: one row per n with lo/mid/hi rational strings."""
    return {
        "relation": relation,
        "entries": [
            {"n": n, "lo": format_rational(t.lo), "mid": format_rational(t.mid),
             "hi": format_rational(t.hi)}
            for n, t in entries
        ],
    }
