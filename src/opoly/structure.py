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
per spec (``families.polynomial_in_n``, on the integer data of a rational
spec), and each entry is one unreduced ``algebra._Quotient`` of integer
polynomials in n (of field elements for other data), built once per spec
and evaluated at each degree by one Horner pass on each side
(``families.quotient_in_n``).  rho_n and the recurrence, xpn,
derivative-rule, starred and Theorem-1 triples are kept in the spec's memo
(``families.per_degree``), so each is computed once per spec and degree
however many formulas or callers read it.

Each triple has two routes, one per reader.  The per-degree formulas
(``recurrence_coeffs`` ... ``theorem1_coeffs``, the primed and hatted
triples from the starred and derivative-rule ones by ``_eliminated``)
serve verify and the oracle comparison (``formula_triples``),
``admissibility``, the antiderivative and the connection rows, which read
few degrees of a spec.  ``formula_triple``, tabulate's reader, reads one
relation at many degrees: for rational data whose rule has a ratio it
combines the Horner integers of the spec's entry quotients at n (rho_n and
rho_{n-1}, b_n, b*_{n-1}, beta_n and the lower entries) into one Fraction
per printed value (``_integer_triple``), wherever the per-degree checks
would pass, and reads the per-degree formula elsewhere, so that every
failure raises the same message in the same order.  Its k reads are
answered once per spec by the prefix of degrees where every rho_j has a
nonzero numerator and denominator (``_ratio_prefix``).  ``RELATIONS``
names the relations once for tabulate, verify and the oracle comparison.
A formula raises AdmissibilityError where one of its denominators
vanishes (that is never memoized), and ``admissibility`` evaluates the
formulas to report those degrees.

Two independent routes exist throughout: the explicit formulas, and a
brute-force oracle that solves the defining second-order equation
coefficient-wise and extracts triples by exact linear solves.  The shipped
formulas are required to match the oracle (see ``diagnostics``).  Where
``verify_structure`` found every equation residual of the generated basis
zero, that basis is the solver's, and ``equation_basis`` returns it in
place of a solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .algebra import (
    MONOMIAL,
    FieldElement,
    Polynomial,
    _from_ints,
    _int_combination,
    _IntPoly,
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
    _rule_ratio,
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

@polynomial_in_n(3)
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


@polynomial_in_n(4)
def _cn_denominator(spec: FamilySpec, n: int) -> FieldElement:
    a, d = spec.a, spec.d
    if spec.kind == CONTINUOUS:
        return ((d - 2 * a + 2 * a * n) ** 2 * (2 * a * n - 3 * a + d)
                * (2 * a * n - a + d))
    return ((d - a + 2 * a * n) * (d + 2 * a * n - 3 * a)
            * (2 * a * n - 2 * a + d) ** 2)


@polynomial_in_n(1)
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
    return (*linear, sign * n, _sum_factor(spec, n)), (_cn_denominator(spec, n),)


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


@polynomial_in_n(2)
def _b_numerator(spec: FamilySpec, n: int, starred: bool) -> FieldElement:
    a, b = spec.a, spec.b
    d, e = _tau_data(spec, starred)
    if spec.kind == CONTINUOUS:
        return 2 * b * n * (a * n + d - a) - e * (-d + 2 * a)
    return n * (d + 2 * b) * (d + a * n - a) + e * (d - 2 * a)


@polynomial_in_n(2)
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


@polynomial_in_n(3)
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


THEOREM1_KINDS = ("starred", "primed", "hatted")


@per_degree
def theorem1_coeffs(spec: FamilySpec, n: int) -> dict[str, CoefficientTriple]:
    """The starred, primed and hatted triples for degree n >= 1.

    starred: x D p_n   = alpha* D p_{n+1} + beta* D p_n + gamma* D p_{n-1}
    primed:  sigma D' p_n = a' D p_{n+1} + b' D p_n + c' D p_{n-1}
    hatted:  p_n       = a^ D p_{n+1} + b^ D p_n + c^ D p_{n-1}

    where D is d/dx (continuous) or the forward difference (discrete), and
    D' p_n means p_n'' resp. Delta nabla p_n.  The starred triple is
    ``starred_coeffs``; the primed and hatted ones follow from it and the
    derivative rule by exact elimination (``_eliminated``), at this degree.
    At n = 1 the lo components multiply D p_0 = 0; the values reported there
    are the closed forms in n (the ones the antiderivative tables print),
    not the arbitrary convention 0.  The dict is kept in the spec's memo;
    callers only read it.
    """
    if n < 1:
        raise ValueError("theorem1 triples need n >= 1")
    rule = derivative_rule_coeffs(spec, n)
    starred = starred_coeffs(spec, n)
    lam = lambda_n(spec, n)
    if lam == 0:
        raise AdmissibilityError(f"lambda_{n} = 0; hatted triple undefined")
    return dict(zip(THEOREM1_KINDS, (starred, *_eliminated(spec, rule, starred, lam))))


def _eliminated(spec: FamilySpec, rule: CoefficientTriple, starred: CoefficientTriple, lam
                ) -> tuple[CoefficientTriple, CoefficientTriple]:
    """The primed and hatted triples, eliminated from the derivative rule,
    the starred triple and lambda_n at one degree (``_integer_triple``
    expands the same algebra in the entries' Horner integers)."""
    a, b, c, d, e = spec.abcde()
    sig_delta = b if spec.kind == CONTINUOUS else a + b
    primed = CoefficientTriple(rule.hi - 2 * a * starred.hi,
                               rule.mid - 2 * a * starred.mid - sig_delta,
                               rule.lo - 2 * a * starred.lo)
    scale = -1 / lam
    return primed, CoefficientTriple((primed.hi + d * starred.hi) * scale,
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
             **{key: Relation(1, key, theorem1=True) for key in THEOREM1_KINDS}}
RELATION_NAMES = ("equation", *(r.check for r in RELATIONS.values() if r.check))


def formula_triple(spec: FamilySpec, key: str, n: int) -> CoefficientTriple:
    """``formula_triples(spec, n)[key]``, in value and in every exception of
    its formula: tabulate's reader.  At a degree n >= 1 of rational data
    whose rule has a ratio, inside the spec's ratio prefix
    (``_ratio_prefix``), the triple is read off the entries' Horner
    integers (``_integer_triple``); at n = 0, past the prefix, where a read
    denominator vanishes, and for other data, it is the per-degree
    formula's, which raises its own message in its own order."""
    if (type(n) is int and n >= 1 and spec._ints is not None
            and spec.leading.ratio is not None and spec.kind in RELATIONS[key].kinds):
        ratios = _ratio_prefix(spec, n)
        triple = ratios and _integer_triple(spec, key, n, ratios[n], ratios[n - 1])
        if triple:
            return triple
    return _per_degree_triple(spec, key, n)


def _per_degree_triple(spec: FamilySpec, key: str, n: int) -> CoefficientTriple:
    """The relation's triple from its per-degree formula."""
    if RELATIONS[key].theorem1:
        return theorem1_coeffs(spec, n)[key]
    return {"recurrence": recurrence_coeffs, "xpn": xpn_coeffs,
            "derivative": derivative_rule_coeffs, "delta": delta_rule_coeffs}[key](spec, n)


def _ratio_prefix(spec: FamilySpec, n: int) -> list | None:
    """The Horner integers (r_j, s_j) of rho_j = r_j / s_j from
    ``_rule_ratio``, for j = 0, 1, ..., kept in the spec's memo and grown one
    degree at a time; None unless k_0 passes and r_j s_j != 0 for every
    j <= n.  Where it is a list, every k_j with j <= n + 1 is finite and
    nonzero, by the closed form (on a fresh spec) as by the step k_{j+1} =
    k_j rho_j, so each per-degree k read passes and every k_{j+1} / k_j a
    formula reads is rho_j."""
    prefix = spec._memo.get(_ratio_prefix)
    if prefix is None:
        try:
            spec.k(0)
            prefix = []
        except AdmissibilityError:
            prefix = [None]
        spec._memo[_ratio_prefix] = prefix
    while len(prefix) <= n and (not prefix or prefix[-1]):
        r, s = _rule_ratio(spec, _IntPoly([0, 1])).values(len(prefix))
        prefix.append((r, s) if r and s else None)
    return prefix if len(prefix) > n and prefix[n] else None


def _integer_triple(spec: FamilySpec, key: str, n: int, rho: tuple, rho_prev: tuple
                    ) -> CoefficientTriple | None:
    """The relation's triple at n >= 1 from the Horner integers of the
    spec's entries, one Fraction per value; None where a denominator the
    per-degree formula checks vanishes (or d + 2a = 0, or lambda_n = 0, for
    a Theorem-1 key).  rho = (r, s) and rho_prev = (r1, s1) are rho_n and
    rho_{n-1}.  With the integer data a, b, d, e over the scale L, and
    Lambda = L lambda_n:

        recurrence  (rho_n, b_n rho_n, L_n rho_{n-1} rho_n); xpn its flip
        derivative  (a n / rho_n, beta_n, G_n rho_{n-1}); delta the same
                    with mid beta_n - lambda_n
        starred     (n / ((n+1) rho_n), -b*_{n-1}, H_n rho_{n-1})
        primed      (a n (n-1) / ((n+1) rho_n),
                     beta_n + 2a b*_{n-1} - sigma_delta,
                     (G_n - 2a H_n) rho_{n-1})
        hatted      (1 / ((n+1) rho_n),
                     -(beta_n + (2a - d) b*_{n-1} + e - sigma_delta) L / Lambda,
                     -(G_n + (d - 2a) H_n) rho_{n-1} L / Lambda)

    with b_n = B_n/A_n and b*_{n-1} from ``_b_quotient``,
    L_n, G_n and H_n the ``_lower_entry``s with shifts (2,), (1, 2) and
    (1,), and sigma_delta = b, or a + b for a discrete family; primed and
    hatted are ``_eliminated`` expanded."""
    x, (r, s), (r1, s1) = _IntPoly([0, 1]), rho, rho_prev
    if key in ("recurrence", "xpn"):
        (bn, bd), (ln, ld) = _b_quotient(spec, x, False).values(n), \
            _lower_entry(spec, x, -1, (2,)).values(n)
        if not (bd and ld):
            return None
        if key == "recurrence":
            return _fractions((r, s), (bn * r, bd * s), (ln * r1 * r, ld * s1 * s))
        return _fractions((s, r), (-bn, bd), (ln * r1, ld * s1))
    ints = spec._ints
    a, b, _, d, e = ints.abcde()
    scale = ints.scale
    (tn, td), (gn, gd) = _beta(spec, x).values(n), _lower_entry(spec, x, 1, (1, 2)).values(n)
    if not (td and gd):
        return None
    lam = -(a * n * (n - 1) + d * n)  # L lambda_n
    if key == "derivative":
        return _fractions((a * n * s, scale * r), (tn, td), (gn * r1, gd * s1))
    if key == "delta":
        return _fractions((a * n * s, scale * r), (tn * scale - td * lam, td * scale),
                          (gn * r1, gd * s1))
    if d + 2 * a == 0 or lam == 0:
        return None
    # cd and hd vanish with td and gd (``starred_coeffs``); at n = 1, cn/cd
    # is e' d / (d' d), the reduced e'/d' of ``_b_ratio`` since d != 0
    (cn, cd), (hn, hd) = _b_quotient(spec, x, True).values(n - 1), \
        _lower_entry(spec, x, -1, (1,)).values(n)
    if key == "starred":
        return _fractions((n * s, (n + 1) * r), (-cn, cd), (hn * r1, hd * s1))
    sig_delta = b if spec.kind == CONTINUOUS else a + b
    if key == "primed":
        return _fractions((a * n * (n - 1) * s, scale * (n + 1) * r),
                          (tn * scale * cd + 2 * a * cn * td - sig_delta * td * cd,
                           td * scale * cd),
                          ((gn * scale * hd - 2 * a * hn * gd) * r1, gd * scale * hd * s1))
    return _fractions((s, (n + 1) * r),
                      (-(tn * scale * cd + (2 * a - d) * cn * td + (e - sig_delta) * td * cd),
                       td * cd * lam),
                      (-(gn * scale * hd + (d - 2 * a) * hn * gd) * r1, gd * hd * s1 * lam))


def _fractions(hi: tuple[int, int], mid: tuple[int, int], lo: tuple[int, int]
               ) -> CoefficientTriple:
    return CoefficientTriple(Fraction(*hi), Fraction(*mid), Fraction(*lo))


def formula_triples(spec: FamilySpec, n: int) -> dict[str, CoefficientTriple]:
    """Every explicit triple for degree n, under the keys of ``oracle_triples``.

    The triples the others are read off come from the spec's memo, so a
    second call for the same spec and n computes no bracket again.
    """
    out = {}
    for key, relation in RELATIONS.items():
        if n >= relation.start and spec.kind in relation.kinds:
            out[key] = _per_degree_triple(spec, key, n)
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

    For rational data whose rule has a ratio, the basis is stepped on the
    Horner ints of the entries (``_Quotient.values``): with rho_n = r/s from
    ``_rule_ratio``, B_n/A_n = b from ``_b_quotient`` (e/d at n = 0) and
    C_n/(rho_{n-1} rho_n) = L from ``_lower_entry`` (0 at n = 0), the step

        p_{n+1} = rho_n (x + b) p_n - rho_n rho_{n-1} L p_{n-1}

    is one integer combination of the integer views of p_n and p_{n-1}
    over one denominator, and makes no Fraction.  These are the values
    ``recurrence_coeffs`` reads wherever every factor of rho_n and rho_{n-1},
    and the denominators of b and L, are nonzero; there its k reads pass
    too (k_{n+1} = k_n rho_n, and each catalog rule's closed form is
    defined and nonzero wherever the factors of its rho are).  At any other
    degree, and for every degree of other data, the step is the per-degree
    route: ``recurrence_coeffs`` (the k reads first, then B_n, then C_n,
    each raising its own message) and the field expression
    (A x + B) p_n - C p_{n-1}.
    """
    polys = [Polynomial.const(spec.k(0))]
    ints = spec._ints if spec.leading.ratio is not None else None
    if ints is not None:
        x = _IntPoly([0, 1])
        rho, b, low = _rule_ratio(spec, x), _b_quotient(spec, x, False), \
            _lower_entry(spec, x, -1, (2,))
    prev, r1, s1 = Polynomial.zero(), 1, 1  # p_{n-1}, and rho_{n-1} = r1/s1
    for n in range(n_max):
        pn = polys[-1]
        if ints is not None:
            r, s = rho.values(n)
            (bn, bd), (ln, ld) = (b.values(n), low.values(n)) if n else ((ints.e, ints.d), (0, 1))
        if ints is not None and r and s and r1 and s1 and bd and ld:
            # p_n = u/du and p_{n-1} = v/dv over m = lcm(du, dv): p_{n+1} is
            # r [s1 ld (m/du) (bd x + bn) u - r1 ln bd (m/dv) v] / (s s1 ld bd m),
            # in one pass over u (as three _int_combination terms, ~3% slower on connect)
            (u, du), (v, dv) = pn._int_view(), prev._int_view()
            m = lcm(du, dv)
            f, g = r * s1 * ld * (m // du), r * r1 * ln * bd * (m // dv)
            den = s * s1 * ld * bd * m
            if den < 0:
                f, g, den = -f, -g, -den
            fb, fd = f * bn, f * bd
            out = [0] * (len(u) + 1)
            for i, c in enumerate(u):
                out[i] += fb * c
                out[i + 1] += fd * c
            for i, c in enumerate(v):
                out[i] -= g * c
            nxt = _from_ints(out, den, MONOMIAL)
        else:
            A, B, C = recurrence_coeffs(spec, n)
            nxt = (Polynomial.x().scale(A) + B) * pn - prev.scale(C)
        if ints is not None:
            r1, s1 = r, s
        prev = pn
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


def _difference(spec: FamilySpec, p: Polynomial) -> Polynomial:
    """D p: d/dx (continuous) or the forward difference (discrete)."""
    return p.derivative() if spec.kind == CONTINUOUS else p.delta()


def _relation_sides(spec: FamilySpec, polys: list[Polynomial], diffs, n: int
                    ) -> dict[str, tuple[Polynomial, tuple[Polynomial, Polynomial, Polynomial]]]:
    """Each structure relation at degree n as lhs = t.hi*hi + t.mid*mid + t.lo*lo.

    Returns ``{key: (lhs, (hi, mid, lo))}`` under the keys of
    ``formula_triples`` (xpn, the flipped recurrence, excepted), built from
    ``polys[n - 1]``, ``polys[n]`` and ``polys[n + 1]`` and, for n >= 1,
    their D p = ``diffs[n - 1]``, ``diffs[n]`` and ``diffs[n + 1]``
    (``_difference``).  The recurrence is p_{n+1} over
    (x p_n, p_n, -p_{n-1}), so its triple is (A_n, B_n, C_n).
    """
    x = Polynomial.x()
    pp, pn = polys[n + 1], polys[n]
    pm = polys[n - 1] if n >= 1 else Polynomial.zero()
    sides = {"recurrence": (pp, (x * pn, pn, -pm))}
    if n < 1:
        return sides
    sig, near = spec.sigma(), (pp, pn, pm)
    diff = (diffs[n + 1], diffs[n], diffs[n - 1])
    if spec.kind == CONTINUOUS:
        sides["derivative"] = (sig * diff[1], near)
        second = diff[1].derivative()
    else:
        sides["derivative"] = (sig * pn.nabla(), near)
        sides["delta"] = ((sig + spec.tau()) * diff[1], near)
        second = diff[1].nabla()
    sides["starred"] = (x * diff[1], diff)
    sides["primed"] = (sig * second, diff)
    sides["hatted"] = (pn, diff)
    return sides


def _equation_residual(spec: FamilySpec, sides: dict, n: int) -> Polynomial:
    """L_n p_n = sigma D' p_n + tau D p_n + lambda_n p_n from the relation
    sides at n >= 1: the primed lhs is sigma D' p_n, and the hatted one is
    p_n over (D p_{n+1}, D p_n, D p_{n-1}).  ``spec.apply_operator`` without
    a second derivative."""
    pn, (_, dpn, _) = sides["hatted"]
    return sides["primed"][0] + spec.tau() * dpn + pn.scale(lambda_n(spec, n))


def oracle_triples(spec: FamilySpec, basis: list[Polynomial],
                   n: int) -> dict[str, CoefficientTriple]:
    """All structure triples for degree n solved from oracle polynomials.

    ``basis`` is ``oracle_basis(spec, m)`` for some m >= n + 1; only its
    entries n - 1, n and n + 1 are read.
    """
    diffs = {m: _difference(spec, basis[m]) for m in range(n - 1, n + 2)} if n else {}
    out = {key: CoefficientTriple(*expand_over(lhs, parts))
           for key, (lhs, parts) in _relation_sides(spec, basis, diffs, n).items()}
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
    """The residual checks of ``verify_structure``, the generated basis they
    were computed from, and what its residuals proved.

    ``verdicts`` maps (relation key, n) to (the triple checked, the triple a
    zero residual proves or None).  On a basis whose p_n have degree n, a
    zero residual proves the checked triple to be the unique expansion of
    the relation, except on a zero part (the recurrence lo at n = 0
    multiplies p_{-1} = 0, a Theorem-1 lo at n = 1 multiplies D p_0 = 0),
    where the proved entry is 0, the value ``expand_over`` gives there.
    ``solves_equation`` is True where the equation was checked and its
    residual is zero for every p_m, m <= n_max + 1 (the last one unrecorded
    in ``checks``): then ``equation_basis`` takes ``polys`` as the oracle
    basis.
    """
    spec_name: str
    n_max: int
    checks: tuple[RelationCheck, ...]
    polys: tuple[Polynomial, ...] = field(repr=False)  # generate's p_0 .. p_{n_max+1}
    verdicts: dict = field(default_factory=dict, repr=False, compare=False)
    solves_equation: bool = field(default=False, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> tuple[RelationCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


def verify_structure(spec: FamilySpec, n_max: int,
                     relations: tuple[str, ...] = RELATION_NAMES) -> StructureReport:
    """Exact residuals of every structure relation for 1 <= n <= n_max - 1.

    The equation and recurrence residuals are checked from n = 0.  A zero
    residual polynomial means the relation holds identically.  Only the
    requested relations' triples are computed, by the per-degree formulas
    (``_per_degree_triple``).  Each D p_m is computed once, and for
    1 <= n <= n_max - 1 the equation residual is built from the relation
    sides (``_equation_residual``).  The report
    keeps the generated p_0 .. p_{n_max+1} the residuals were computed from,
    the verdict of each relation triple it checked, and, where the equation
    is checked, whether p_{n_max+1} solves it too (``StructureReport``):
    ``diagnostics.structure_mismatches`` reads the verdicts in place of an
    oracle solve, and ``equation_basis`` the basis.
    """
    if n_max < 2:
        raise ValueError("verify_structure needs n_max >= 2")
    unknown = set(relations) - set(RELATION_NAMES)
    if unknown:
        raise KeyError(f"unknown relations: {sorted(unknown)}")
    polys = generate(spec, n_max + 1)
    diffs = [_difference(spec, p) for p in polys[:n_max + 1]]
    checks: list[RelationCheck] = []
    verdicts = {}

    def record(relation: str, n: int, residual: Polynomial):
        checks.append(RelationCheck(relation, n, residual.is_zero(),
                                    "" if residual.is_zero() else repr(residual)))

    for n in range(n_max + 1):
        sides = _relation_sides(spec, polys, diffs, n) if n < n_max else {}
        if "equation" in relations:
            record("equation", n, _equation_residual(spec, sides, n) if 1 <= n < n_max
                   else spec.apply_operator(polys[n], n))
        if n == n_max:
            continue
        for key, relation in RELATIONS.items():
            if relation.check not in relations or key not in sides:
                continue
            lhs, parts = sides[key]
            triple = _per_degree_triple(spec, key, n)
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
            proved = None
            if residual.is_zero():  # on a zero part, the 0 that expand_over gives
                proved = CoefficientTriple(*(Fraction(0) if part.is_zero() else t
                                             for t, part in zip(triple, parts)))
            verdicts[key, n] = triple, proved
    solves = ("equation" in relations and all(c.ok for c in checks if c.relation == "equation")
              and spec.apply_operator(polys[n_max + 1], n_max + 1).is_zero())
    return StructureReport(spec.name or str(spec.abcde()), n_max, tuple(checks),
                           tuple(polys), verdicts, solves)


def equation_basis(spec: FamilySpec, report: StructureReport) -> list[Polynomial]:
    """``oracle_basis(spec, report.n_max + 1)``, solved only where the report
    lacks the proof that its own basis is that one.

    generate's p_m has degree m and leading coefficient k_m, and L_m is
    triangular on monomials with diagonal lambda_m - lambda_j.  So where
    L_m p_m = 0 for every m <= n_max + 1 (``report.solves_equation``) and
    no lambda_j, j < m, equals lambda_m, p_m is the one solution
    ``solve_equation`` finds: ``report.polys`` is returned, after the
    distinctness check of ``solve_equation``, in its (m, j) order and with
    its message.  That needs rational data, on which a nonzero diagonal
    entry is invertible; other data, and a report without the proof, are
    solved.
    """
    top = report.n_max + 1
    if not report.solves_equation or spec._ints is None:
        return oracle_basis(spec, top)
    lams = [lambda_n(spec, m) for m in range(top + 1)]
    for m in range(top + 1):
        for j in range(m - 1, -1, -1):
            if lams[j] == lams[m]:
                raise AdmissibilityError(f"degenerate equation: lambda_{j} = lambda_{m}")
    return list(report.polys)


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
