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
(``families.quotient_in_n``).

The seven relations are composed once, in ``_composed``, the one reader of
those entries: from their (num, den) Horner values at n it makes each of a
triple's three values as an unreduced (num, den) pair, ints for rational
data and field elements for dual data or at a formal n.  rho_n and
rho_{n-1} come from the prefix of degrees where every rho_j has a nonzero
numerator and denominator, kept once per spec (``_ratio_prefix``), with no
k read; elsewhere from the per-degree k reads.  Where a denominator
vanishes the composition raises the formula's own AdmissibilityError, in
the order of its checks (that is never memoized), and ``admissibility``
evaluates the formulas to report those degrees.  Its callers read the same
pairs: ``formula_triple``, tabulate's reader, makes one Fraction of each
(``_pairs``) afresh; the public readers ``recurrence_coeffs`` ...
``theorem1_coeffs`` and ``formula_triples``, which serve verify,
``admissibility`` and the antiderivative, keep each triple in the spec's
memo (``_read``); ``generate`` steps on the xpn pairs, and
``connection.connect_recurrence`` weighs Q's.  ``RELATIONS`` names the
relations once for tabulate, verify and the oracle comparison.

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


def recurrence_coeffs(spec: FamilySpec, n: int) -> CoefficientTriple:
    """(A_n, B_n, C_n) with p_{n+1} = (A_n x + B_n) p_n - C_n p_{n-1}.

    A_n is rho_n.  C_0 is reported as 0 (it multiplies p_{-1} = 0), and B_0
    as the reduced value (e/d) A_0.
    """
    return _read(spec, "recurrence", n)


def _flip(t: CoefficientTriple) -> CoefficientTriple:
    """(A, B, C) <-> (a, b, c): the map between the two recurrence forms."""
    return CoefficientTriple(1 / t.hi, -t.mid / t.hi, t.lo / t.hi)


def xpn_coeffs(spec: FamilySpec, n: int) -> CoefficientTriple:
    """(a_n, b_n, c_n) with x p_n = a_n p_{n+1} + b_n p_n + c_n p_{n-1}."""
    return _read(spec, "xpn", n)


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


def derivative_rule_coeffs(spec: FamilySpec, n: int) -> CoefficientTriple:
    """(alpha_n, beta_n, gamma_n) of the derivative rule

    continuous: sigma p_n' = alpha p_{n+1} + beta p_n + gamma p_{n-1}
    discrete:   sigma nabla p_n = alpha p_{n+1} + beta p_n + gamma p_{n-1}
    """
    return _read(spec, "derivative", n)


def delta_rule_coeffs(spec: FamilySpec, n: int) -> CoefficientTriple:
    """(S_n, T_n, R_n) with (sigma + tau) Delta p_n = S p_{n+1} + T p_n + R p_{n-1}."""
    return _read(spec, "delta", n)


# ---------------------------------------------------------------------------
# Theorem-1 triples (starred / primed / hatted)
# ---------------------------------------------------------------------------

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
    of B_n and C_n of ``recurrence_coeffs`` at the same n.  It is checked
    alone: unlike the starred triple of ``theorem1_coeffs``, it does not
    need the derivative rule or lambda_n.
    """
    return _read(spec, "starred", n, True)


THEOREM1_KINDS = ("starred", "primed", "hatted")


def theorem1_coeffs(spec: FamilySpec, n: int) -> dict[str, CoefficientTriple]:
    """The starred, primed and hatted triples for degree n >= 1.

    starred: x D p_n   = alpha* D p_{n+1} + beta* D p_n + gamma* D p_{n-1}
    primed:  sigma D' p_n = a' D p_{n+1} + b' D p_n + c' D p_{n-1}
    hatted:  p_n       = a^ D p_{n+1} + b^ D p_n + c^ D p_{n-1}

    where D is d/dx (continuous) or the forward difference (discrete), and
    D' p_n means p_n'' resp. Delta nabla p_n.  The starred triple is
    ``starred_coeffs``'s; the primed and hatted ones follow from it and the
    derivative rule by exact elimination, at this degree (``_composed``).
    At n = 1 the lo components multiply D p_0 = 0; the values reported there
    are the closed forms in n (the ones the antiderivative tables print),
    not the arbitrary convention 0.  Each triple is kept in the spec's
    memo; callers only read them.
    """
    return {kind: _read(spec, kind, n) for kind in THEOREM1_KINDS}


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
    its formula: tabulate's reader.  It composes the triple afresh
    (``_composed``) and keeps no triple in the memo: tabulate reads each
    (relation, n) once."""
    return _pairs(*_composed(spec, key, n))


def formula_triples(spec: FamilySpec, n: int) -> dict[str, CoefficientTriple]:
    """Every explicit triple for degree n, under the keys of ``oracle_triples``.

    Each triple is kept in the spec's memo (``_read``), so a second call
    for the same spec and n computes nothing again.
    """
    return {key: _read(spec, key, n) for key, relation in RELATIONS.items()
            if n >= relation.start and spec.kind in relation.kinds}


def _read(spec: FamilySpec, key: str, n: int, alone: bool = False) -> CoefficientTriple:
    """``_composed(spec, key, n, alone)`` as a triple, kept in the spec's
    memo under (key, n, alone): verify reads each triple twice, in its
    residual check and in its oracle comparison.  A failure is not kept; it
    raises again on the next call."""
    memo_key = (key, n, alone)
    triple = spec._memo.get(memo_key)
    if triple is None:
        triple = spec._memo[memo_key] = _pairs(*_composed(spec, key, n, alone))
    return triple


def _ratio_prefix(spec: FamilySpec, n) -> list | None:
    """The Horner integers (r_j, s_j) of rho_j = r_j / s_j from
    ``_rule_ratio``, for j = 0, 1, ..., kept in the spec's memo and grown to
    n when first read there; None unless n is an int, the data are
    rational, the rule has a ratio, k_0 passes and r_j s_j != 0 for every
    j <= n.  Where it is a list, every k_j with j <= n + 1 is finite and
    nonzero (k_{j+1} = k_j rho_j, and each catalog rule's closed form is
    defined wherever the factors of its rho are), so each per-degree k read
    would pass and every k_{j+1} / k_j a formula reads is rho_j."""
    prefix = spec._memo.get(_ratio_prefix)
    if prefix is not None and type(n) is int and len(prefix) > n:
        return prefix if prefix[n] else None
    if type(n) is not int or spec._ints is None or spec.leading.ratio is None:
        return None
    if prefix is None:
        try:
            spec.k(0)
            prefix = []
        except AdmissibilityError:
            prefix = [None]
        spec._memo[_ratio_prefix] = prefix
    if not prefix or prefix[-1]:
        rho = _rule_ratio(spec)
        while len(prefix) <= n and (not prefix or prefix[-1]):
            r, s = rho.values(len(prefix))
            prefix.append((r, s) if r and s else None)
    return prefix if len(prefix) > n and prefix[n] else None


def _rho(spec: FamilySpec, n) -> tuple:
    """rho_n = k_{n+1} / k_n as a pair (num, den) outside the ratio prefix:
    after the per-degree reads of k_{n+1} and k_n, which raise their own
    messages, the Horner values of the rule's ratio for rational data where
    neither vanishes, else (k_{n+1}, k_n)."""
    k_next, k_n = spec.k(n + 1), spec.k(n)
    if spec._ints is not None and spec.leading.ratio is not None:
        r, s = _rule_ratio(spec).values(n)
        if r and s:
            return r, s
    return k_next, k_n


def _checked(spec: FamilySpec, entry, n, failure: str) -> tuple:
    """The entry's Horner values (num, den) at n; AdmissibilityError(failure),
    formatted with n and the spec's name, where den vanishes."""
    num, den = entry.values(n)
    if not den:
        raise AdmissibilityError(failure.format(n=n, name=spec.name or spec.abcde()))
    return num, den


def _pairs(hi: tuple, mid: tuple, lo: tuple) -> CoefficientTriple:
    """The triple of three (num, den) pairs: one Fraction each from ints (or
    from the Fractions of a k read), else num / den of field elements."""
    try:
        return CoefficientTriple(Fraction(*hi), Fraction(*mid), Fraction(*lo))
    except TypeError:  # dual data, or a formal n
        return CoefficientTriple(*(Fraction(num, den) if type(num) is int and type(den) is int
                                   else num / den for num, den in (hi, mid, lo)))


def _composed(spec: FamilySpec, key: str, n, alone: bool = False) -> tuple:
    """The relation's (hi, mid, lo) at n as three unreduced (num, den)
    pairs, from the Horner values of the spec's entries
    (``_Quotient.values``): ints for rational data, and field elements for
    other data and at a formal n (``recurrence_coeffs`` and ``xpn_coeffs``
    only).  ``_pairs`` makes the triple of them; ``generate`` and the
    connection rows combine the pairs themselves.  With the data a, b, d, e
    over the scale L (the integer data of a rational spec, else the data
    over L = 1), Lambda = L lambda_n and rho_n = k_{n+1} / k_n:

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

    with b_n = B_n/A_n and b*_{n-1} from ``_b_quotient`` (b_0 = e/d, and
    L_0 = 0), L_n, G_n and H_n the ``_lower_entry``s with
    shifts (2,), (1, 2) and (1,), and sigma_delta = b, or a + b for a
    discrete family.  Primed is the derivative rule minus 2a times the
    starred relation, and hatted eliminates sigma D' p_n from primed with
    the equation.  rho_n and rho_{n-1} are pairs from ``_ratio_prefix``
    where it covers n, with no k read, and from ``_rho`` elsewhere.

    Each relation raises the message of its first failing check, in this
    order (``alone``: the starred triple by itself, ``starred_coeffs``):

        recurrence, xpn   k_{n+1}, k_n, B_n, C_n, k_{n-1}
        derivative        n >= 1, k_n, k_{n+1}, beta_n, gamma_n, k_{n-1}
        delta             the kind, then as derivative
        Theorem-1 keys    n >= 1, as derivative, d + 2a != 0, B*_{n-1},
                          gamma_n, lambda_n != 0
        starred alone     n >= 1, d + 2a != 0, k_n, k_{n+1}, B*_{n-1},
                          gamma_n, k_{n-1}

    where the k reads are made only outside the prefix, B*_{n-1} is the
    starred b's denominator at n - 1, and the starred gamma_n is H_n's,
    which is G_n's.
    """
    prefix = _ratio_prefix(spec, n)
    if key in ("recurrence", "xpn"):
        r, s = prefix[n] if prefix else _rho(spec, n)
        if n == 0:  # b_0 = e/d; C_0 multiplies p_{-1} = 0
            data = spec.scaled()
            (bn, bd), (ln, ld), (r1, s1) = (data.e, data.d), (0, 1), (1, 1)
        else:
            bn, bd = _checked(spec, _b_quotient(spec, False), n,
                              "B_{n} denominator vanishes for {name}")
            ln, ld = _checked(spec, _lower_entry(spec, -1, (2,)), n,
                              "C_{n} denominator vanishes for {name}")
            r1, s1 = prefix[n - 1] if prefix else _rho(spec, n - 1)
        if key == "xpn":
            return (s, r), (-bn, bd), (ln * r1, ld * s1)
        return (r, s), (bn * r, bd * s), (ln * r1 * r, ld * s1 * s) if n else (0, 1)
    if key == "delta" and spec.kind != DISCRETE:
        raise ValueError("delta rule applies to discrete families")
    if n < 1:
        raise ValueError("starred triple needs n >= 1" if alone else
                         "theorem1 triples need n >= 1" if RELATIONS[key].theorem1 else
                         "derivative rule needs n >= 1")
    a, b, _, d, e = spec.scaled().abcde()
    if alone and d + 2 * a == 0:
        raise AdmissibilityError("tau must have degree exactly 1 (d != 0)")
    if not prefix:
        spec.k(n)  # alpha_n = a n k_n / k_{n+1}: a failing k_n is reported first
    r, s = prefix[n] if prefix else _rho(spec, n)
    scale = spec._ints.scale if spec._ints else 1
    if not alone:
        tn, td = _checked(spec, _beta(spec), n, "beta_{n} denominator vanishes")
        gn, gd = _checked(spec, _lower_entry(spec, 1, (1, 2)), n,
                          "gamma_{n} denominator vanishes")
        r1, s1 = prefix[n - 1] if prefix else _rho(spec, n - 1)
        if key == "derivative":
            return (a * n * s, scale * r), (tn, td), (gn * r1, gd * s1)
        lam = -(a * n * (n - 1) + d * n)  # L lambda_n
        if key == "delta":
            return (a * n * s, scale * r), (tn * scale - td * lam, td * scale), (gn * r1, gd * s1)
        if d + 2 * a == 0:
            raise AdmissibilityError("tau must have degree exactly 1 (d != 0)")
    cn, cd = _checked(spec, _b_quotient(spec, True), n - 1,
                      "B_{n} denominator vanishes for {name}")
    hn, hd = _checked(spec, _lower_entry(spec, -1, (1,)), n, "gamma_{n} denominator vanishes")
    if alone:
        r1, s1 = prefix[n - 1] if prefix else _rho(spec, n - 1)
    elif lam == 0:
        raise AdmissibilityError(f"lambda_{n} = 0; hatted triple undefined")
    if key == "starred":
        return (n * s, (n + 1) * r), (-cn, cd), (hn * r1, hd * s1)
    sig_delta = b if spec.kind == CONTINUOUS else a + b
    if key == "primed":
        return ((a * n * (n - 1) * s, scale * (n + 1) * r),
                (tn * scale * cd + 2 * a * cn * td - sig_delta * td * cd, td * scale * cd),
                ((gn * scale * hd - 2 * a * hn * gd) * r1, gd * scale * hd * s1))
    return ((s, (n + 1) * r),
            (-(tn * scale * cd + (2 * a - d) * cn * td + (e - sig_delta) * td * cd),
             td * cd * lam),
            (-(gn * scale * hd + (d - 2 * a) * hn * gd) * r1, gd * hd * s1 * lam))


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

    Each step reads the xpn pairs (a, b, c) of the one composition
    (``_composed``), so it raises what ``recurrence_coeffs`` raises, in its
    order; those steps are the ones ``admissibility(spec, n_max - 1,
    ("recurrence",))`` evaluates.  The leading coefficient is multiplied by
    1/a_n = k_{n+1}/k_n, so p_n has degree n and leading coefficient k_n.
    Where all six numbers are ints, the step

        p_{n+1} = ad [bd cd x p_n - bn cd p_n - cn bd p_{n-1}] / (an bd cd)

    is one integer combination of the integer views of p_n and p_{n-1} over
    one denominator, and makes no Fraction; elsewhere it is the field step
    (A x + B) p_n - C p_{n-1} on ``recurrence_coeffs``.
    """
    polys, prev = [Polynomial.const(spec.k(0))], Polynomial.zero()
    _ratio_prefix(spec, n_max)  # grown once, past the last degree a step reads
    for n in range(n_max):
        pn = polys[-1]
        (an, ad), (bn, bd), (cn, cd) = _composed(spec, "xpn", n)
        if type(an) is type(ad) is type(bn) is type(bd) is type(cn) is type(cd) is int:
            # p_n = u/du and p_{n-1} = v/dv over m = lcm(du, dv), in one pass over u
            (u, du), (v, dv) = pn._int_view(), prev._int_view()
            m = lcm(du, dv)
            f, g = ad * cd * (m // du), ad * cn * bd * (m // dv)
            den = an * bd * cd * m
            if den < 0:
                f, g, den = -f, -g, -den
            fb, fd = -f * bn, f * bd
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
    requested relations' triples are computed, by the one composition
    (``_read``, which keeps each in the spec's memo for the oracle
    comparison to read again).  Each D p_m is computed once, and for
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
            triple = _read(spec, key, n)
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
