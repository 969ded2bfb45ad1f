"""Connection coefficients between two families, and parameter derivatives.

Three independent routes produce the row C_m(n) with P_n = sum_m C_m(n) Q_m:

* ``connect_oracle``: expand everything into monomials and back-substitute
  the unitriangular system (works for any pair, ground truth);
* ``connect_recurrence``: the pure m-recurrence obtained by exact
  elimination from the cross rules, valid when both systems are monic and
  either share sigma, or (discrete only) share sigma + tau;
* ``closed_form_connection``: the catalog of printed hypergeometric-term
  formulas for the classical shift pairs.

Parameter derivatives expand d p_n / d theta over the same family.  Each
printed formula is verified against a fully exact oracle: the family is
instantiated with dual numbers in the parameter, generated, and the
derivative of each coefficient read off its dual part.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from .algebra import (
    Dual,
    FieldElement,
    Polynomial,
    as_field,
    binomial,
    expand_over,
    factorial,
    format_rational,
    pochhammer,
)
from .families import DISCRETE, AdmissibilityError, FamilySpec, catalog, catalog_params
from .structure import (
    delta_rule_coeffs,
    derivative_rule_coeffs,
    generate,
    starred_coeffs,
    xpn_coeffs,
)

SAME_SIGMA = "same-sigma"
SAME_SIGMA_PLUS_TAU = "same-sigma-plus-tau"
GENERAL = "general"


class UnsupportedConnection(ValueError):
    """The recurrence route does not apply; use connect_oracle."""


@dataclass(frozen=True)
class ConnectionRow:
    n: int
    coeffs: tuple[FieldElement, ...]

    def __getitem__(self, m: int) -> FieldElement:
        return self.coeffs[m] if 0 <= m < len(self.coeffs) else Fraction(0)

    def reconstruct(self, q_polys: list[Polynomial]) -> Polynomial:
        total = Polynomial.zero()
        for m, value in enumerate(self.coeffs):
            total = total + q_polys[m].scale(value)
        return total


def row_to_json(row: ConnectionRow) -> dict:
    return {"n": row.n,
            "coeffs": {str(m): format_rational(v) for m, v in enumerate(row.coeffs)}}


def compat(p: FamilySpec, q: FamilySpec) -> str:
    """Classify the pair for the recurrence route."""
    if p.kind != q.kind:
        return GENERAL
    if (p.a, p.b, p.c) == (q.a, q.b, q.c):
        return SAME_SIGMA
    if p.kind == DISCRETE and p.a == q.a:
        f = q.b - p.b
        g = q.c - p.c
        if q.d == p.d - f and q.e == p.e - g:
            return SAME_SIGMA_PLUS_TAU
    return GENERAL


# ---------------------------------------------------------------------------
# Oracle route
# ---------------------------------------------------------------------------

def connect_oracle(p: FamilySpec, q: FamilySpec, n: int) -> ConnectionRow:
    """Triangular solve of P_n over Q_0..Q_n in the monomial basis."""
    return ConnectionRow(n, tuple(expand_over(generate(p, n)[n], generate(q, n))))


# ---------------------------------------------------------------------------
# Cross-rule recurrence route
# ---------------------------------------------------------------------------

def connect_recurrence(p: FamilySpec, q: FamilySpec, n: int) -> ConnectionRow:
    """Theorem-2/3-style pure m-recurrence for monic pairs sharing sigma
    (continuous or discrete) or sigma + tau (discrete).

    The recurrence is constructed by exact elimination from the same cross
    rules the printed recurrences come from, so it is immune to
    transcription slips; ``diagnostics`` checks the printed polynomial
    coefficients against this construction.
    """
    if not (p.is_monic() and q.is_monic()):
        raise UnsupportedConnection("recurrence route is stated for monic systems")
    mode = compat(p, q)
    if mode == GENERAL:
        raise UnsupportedConnection(
            "recurrence route needs shared sigma (or shared sigma+tau, discrete); "
            "use connect_oracle")
    # Cross rule i, for the triple g_i (xpn, starred, then the D rule):
    #   X C_m(n+1) + Y C_m(n) + Z C_m(n-1) = U C_{m-1}(n) + V C_m(n) + W C_{m+1}(n)
    # with (X, Y, Z) = g_i(p, n) and (U, V, W) = (g_i(q, m-1).hi, g_i(q, m).mid,
    # g_i(q, m+1).lo); the starred and D-rule terms vanish at index 0.
    rules = [xpn_coeffs]
    if n >= 1:
        rules += [starred_coeffs,
                  derivative_rule_coeffs if mode == SAME_SIGMA else delta_rule_coeffs]
    p_side = [rule(p, n) for rule in rules]
    if n == 0:
        return ConnectionRow(0, (Fraction(1),))
    # the cross product mu kills the C_m(n+1) and C_m(n-1) columns
    (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = p_side
    mu = (x2 * z3 - x3 * z2, x3 * z1 - x1 * z3, x1 * z2 - x2 * z1)
    if all(v == 0 for v in mu):
        raise UnsupportedConnection("cross rules are degenerate for this pair")
    y_total = mu[0] * y1 + mu[1] * y2 + mu[2] * y3

    def weighted(j: int) -> list[FieldElement]:
        """sum_i mu_i g_i(q, j), componentwise."""
        total = [Fraction(0)] * 3
        for mu_i, rule in zip(mu, rules if j >= 1 else rules[:1]):
            total = [s + mu_i * t for s, t in zip(total, rule(q, j))]
        return total

    # Iterate the eliminated m-recurrence downward from C_n(n) = 1.  Each Q
    # index is weighted once, in the order the rows read them: n - 1, n,
    # n + 1, then downward, so the first triple that raises is the first read.
    coeffs: list[FieldElement] = [Fraction(0)] * (n + 2)
    coeffs[n] = Fraction(1)
    window = [weighted(n - 1), weighted(n), weighted(n + 1)]
    for m in range(n - 1, -1, -1):
        # the eliminated relation at index m+1 links C_m, C_{m+1}, C_{m+2}
        below, here, above = window
        u, v, w = below[0], here[1], above[2]
        if u == 0:
            raise AdmissibilityError(f"vanishing leading multiplier at m={m}")
        coeffs[m] = ((y_total - v) * coeffs[m + 1] - w * coeffs[m + 2]) / u
        if m:
            window = [weighted(m - 1), below, here]
    return ConnectionRow(n, tuple(coeffs[: n + 1]))


# ---------------------------------------------------------------------------
# Closed-form catalog (printed connection formulas)
# ---------------------------------------------------------------------------

def _neg1(k: int) -> Fraction:
    return Fraction(-1) ** k


_CLOSED: dict[str, tuple[tuple[str, ...], Callable[..., dict[int, FieldElement]], str]] = {}


def _register(name: str, params: tuple[str, ...], doc: str):
    def deco(fn):
        _CLOSED[name] = (params, fn, doc)
        return fn

    return deco


@_register("jacobi-alpha", ("alpha", "beta", "gamma"),
           "P(alpha,beta) over P(gamma,beta)")
def _jacobi_alpha(n, alpha, beta, gamma):
    out = {}
    for m in range(n + 1):
        out[m] = ((2 * m + gamma + beta + 1) * pochhammer(m + beta + 1, n - m)
                  * pochhammer(n + alpha + beta + 1, m) * pochhammer(alpha - gamma, n - m)
                  / (pochhammer(m + gamma + beta + 1, n + 1) * factorial(n - m)))
    return out


@_register("jacobi-beta", ("alpha", "beta", "delta"),
           "P(alpha,beta) over P(alpha,delta)")
def _jacobi_beta(n, alpha, beta, delta):
    out = {}
    for m in range(n + 1):
        out[m] = (_neg1(n - m) * (2 * m + alpha + delta + 1)
                  * pochhammer(m + alpha + 1, n - m) * pochhammer(n + alpha + beta + 1, m)
                  * pochhammer(beta - delta, n - m)
                  / (pochhammer(m + alpha + delta + 1, n + 1) * factorial(n - m)))
    return out


@_register("gegenbauer", ("alpha", "beta"), "C^alpha over C^beta (steps of two)")
def _gegenbauer_conn(n, alpha, beta):
    out = {}
    for k in range(n // 2 + 1):
        out[n - 2 * k] = ((beta + n - 2 * k) * pochhammer(alpha - beta, k)
                          * pochhammer(alpha, n - k)
                          / (factorial(k) * pochhammer(beta, n - k + 1)))
    return out


@_register("laguerre", ("alpha", "beta"), "L(alpha) over L(beta)")
def _laguerre_conn(n, alpha, beta):
    return {m: pochhammer(alpha - beta, n - m) / factorial(n - m) for m in range(n + 1)}


@_register("bessel", ("alpha", "beta"), "B(alpha) over B(beta)")
def _bessel_conn(n, alpha, beta):
    out = {}
    for m in range(n + 1):
        out[m] = (_neg1(n) * pochhammer(alpha - beta, n - m) * pochhammer(Fraction(-n), m)
                  * pochhammer(beta + 1, m) * pochhammer(n + alpha + 1, m)
                  * (beta + 1 + 2 * m)
                  / (pochhammer(beta + 2, n) * pochhammer(n + 2 + beta, m)
                     * (beta + 1) * factorial(m)))
    return out


@_register("hahn-beta", ("alpha", "beta", "delta", "N"),
           "h(alpha,beta) over h(alpha,delta)")
def _hahn_beta(n, alpha, beta, delta, N):
    out = {}
    head = pochhammer(1 - N, n) * pochhammer(alpha + 1, n) / (
        pochhammer(2 + alpha + delta, n) * factorial(n) * (alpha + delta + 1))
    for m in range(n + 1):
        out[m] = (head * _neg1(m) * pochhammer(beta - delta, n - m)
                  * (alpha + delta + 1 + 2 * m) * pochhammer(Fraction(-n), m)
                  * pochhammer(1 + alpha + delta, m) * pochhammer(n + 1 + alpha + beta, m)
                  / (pochhammer(1 - N, m) * pochhammer(alpha + 1, m)
                     * pochhammer(alpha + 2 + n + delta, m)))
    return out


@_register("hahn-beta-monic", ("alpha", "beta", "delta", "N"),
           "monic h(alpha,beta) over monic h(alpha,delta)")
def _hahn_beta_monic(n, alpha, beta, delta, N):
    out = {}
    head = (pochhammer(alpha + 1, n) * pochhammer(1 - N, n)
            * pochhammer(1 + alpha + beta, n)
            / (pochhammer(2 + alpha + delta, n)
               * pochhammer(alpha / 2 + beta / 2 + Fraction(1, 2), n)
               * pochhammer(alpha / 2 + beta / 2 + 1, n) * Fraction(4) ** n))
    for m in range(n + 1):
        out[m] = (head * _neg1(m) * pochhammer(beta - delta, n - m)
                  * pochhammer(Fraction(-n), m) * pochhammer(n + 1 + alpha + beta, m)
                  * pochhammer(alpha / 2 + delta / 2 + 1, m)
                  * pochhammer(alpha / 2 + delta / 2 + Fraction(3, 2), m) * Fraction(4) ** m
                  / (pochhammer(1 - N, m) * pochhammer(alpha + 1, m)
                     * pochhammer(alpha + 2 + n + delta, m) * factorial(m)))
    return out


@_register("hahn-alpha", ("alpha", "beta", "gamma", "N"),
           "h(alpha,beta) over h(gamma,beta)")
def _hahn_alpha(n, alpha, beta, gamma, N):
    out = {}
    head = (_neg1(n) * pochhammer(beta + 1, n) * pochhammer(1 - N, n)
            / (pochhammer(2 + beta + gamma, n) * factorial(n) * (beta + gamma + 1)))
    for m in range(n + 1):
        out[m] = (head * pochhammer(alpha - gamma, n - m) * (beta + gamma + 1 + 2 * m)
                  * pochhammer(Fraction(-n), m) * pochhammer(1 + beta + gamma, m)
                  * pochhammer(n + 1 + alpha + beta, m)
                  / (pochhammer(1 - N, m) * pochhammer(beta + 1, m)
                     * pochhammer(beta + gamma + n + 2, m)))
    return out


@_register("hahn-alpha-monic", ("alpha", "beta", "gamma", "N"),
           "monic h(alpha,beta) over monic h(gamma,beta)")
def _hahn_alpha_monic(n, alpha, beta, gamma, N):
    out = {}
    head = (_neg1(n) * pochhammer(beta + 1, n) * pochhammer(1 - N, n)
            * pochhammer(1 + alpha + beta, n)
            / (pochhammer(2 + beta + gamma, n)
               * pochhammer(alpha / 2 + beta / 2 + Fraction(1, 2), n)
               * pochhammer(alpha / 2 + beta / 2 + 1, n) * Fraction(4) ** n))
    for m in range(n + 1):
        out[m] = (head * pochhammer(alpha - gamma, n - m)
                  * pochhammer(Fraction(-n), m) * pochhammer(n + 1 + alpha + beta, m)
                  * pochhammer(beta / 2 + gamma / 2 + 1, m)
                  * pochhammer(beta / 2 + gamma / 2 + Fraction(3, 2), m) * Fraction(4) ** m
                  / (pochhammer(beta + gamma + n + 2, m) * pochhammer(1 - N, m)
                     * pochhammer(beta + 1, m) * factorial(m)))
    return out


@_register("hahn-symmetric-monic", ("alpha", "gamma", "N"),
           "monic h(alpha,alpha) over monic h(gamma,gamma), steps of two")
def _hahn_symmetric_monic(n, alpha, gamma, N):
    half = Fraction(1, 2)
    out = {}
    for k in range(n // 2 + 1):
        num = (pochhammer(Fraction(-n, 2), k) * pochhammer(Fraction(-(n - 1), 2), k)
               * pochhammer(alpha - gamma, k) * pochhammer((N - n) / 2, k)
               * pochhammer((N - n + 1) / 2, k) * pochhammer(-n - gamma - half, k))
        den = (pochhammer(Fraction(1, 4) - gamma / 2 - Fraction(n, 2), k)
               * pochhammer(-n + half - alpha, k)
               * pochhammer(Fraction(-n, 2) - Fraction(1, 4) - gamma / 2, k)
               * factorial(k) * Fraction(4) ** k)
        out[n - 2 * k] = num / den
    return out


@_register("hahn-symmetric", ("alpha", "gamma", "N"),
           "h(alpha,alpha) over h(gamma,gamma), steps of two")
def _hahn_symmetric(n, alpha, gamma, N):
    half = Fraction(1, 2)
    head = (pochhammer(alpha + 1, n) * pochhammer(alpha + half, n)
            * pochhammer(2 * gamma + 1, n)
            / (pochhammer(gamma + 1, n) * pochhammer(gamma + half, n)
               * pochhammer(2 * alpha + 1, n)))
    out = {}
    for k in range(n // 2 + 1):
        num = (pochhammer((N - n) / 2, k) * pochhammer((N - n + 1) / 2, k)
               * pochhammer(alpha - gamma, k)
               * pochhammer(Fraction(3, 4) - gamma / 2 - Fraction(n, 2), k)
               * pochhammer(-gamma - n - half, k)
               * pochhammer((-gamma - n) / 2, k) * pochhammer((-gamma - n + 1) / 2, k)
               * Fraction(4) ** k)
        den = (pochhammer(-gamma - Fraction(n, 2), k)
               * pochhammer(-gamma / 2 - Fraction(n, 2) - Fraction(1, 4), k)
               * pochhammer(-n - alpha + half, k)
               * pochhammer(-gamma - Fraction(n, 2) + half, k) * factorial(k))
        out[n - 2 * k] = head * num / den
    return out


@_register("hahnq-symmetric", ("alpha", "gamma", "N"),
           "Q(x;alpha,alpha,N) over Q(x;gamma,gamma,N), steps of two")
def _hahnq_symmetric(n, alpha, gamma, N):
    del N
    half = Fraction(1, 2)
    head = (pochhammer(alpha + half, n) * pochhammer(2 * gamma + 1, n)
            / (pochhammer(gamma + half, n) * pochhammer(2 * alpha + 1, n)))
    out = {}
    for k in range(n // 2 + 1):
        num = (pochhammer(Fraction(-n, 2), k) * pochhammer(Fraction(-(n - 1), 2), k)
               * pochhammer(alpha - gamma, k)
               * pochhammer(Fraction(3, 4) - gamma / 2 - Fraction(n, 2), k)
               * pochhammer(-gamma - n - half, k))
        den = (pochhammer(-gamma - Fraction(n, 2), k)
               * pochhammer(-gamma / 2 - Fraction(n, 2) - Fraction(1, 4), k)
               * pochhammer(-n - alpha + half, k)
               * pochhammer(-gamma - Fraction(n, 2) + half, k) * factorial(k))
        out[n - 2 * k] = head * num / den
    return out


@_register("hahnq-beta", ("alpha", "beta", "delta", "N"),
           "Q(alpha,beta) over Q(alpha,delta)")
def _hahnq_beta(n, alpha, beta, delta, N):
    del N
    out = {}
    head = _neg1(n) / (pochhammer(2 + alpha + delta, n) * (alpha + delta + 1))
    for m in range(n + 1):
        out[m] = (head * pochhammer(beta - delta, n - m) * (alpha + delta + 1 + 2 * m)
                  * pochhammer(Fraction(-n), m) * pochhammer(1 + alpha + delta, m)
                  * pochhammer(n + 1 + alpha + beta, m)
                  / (pochhammer(alpha + 2 + n + delta, m) * factorial(m)))
    return out


@_register("hahnq-alpha", ("alpha", "beta", "gamma", "N"),
           "Q(alpha,beta) over Q(gamma,beta)")
def _hahnq_alpha(n, alpha, beta, gamma, N):
    del N
    out = {}
    head = (pochhammer(beta + 1, n)
            / (pochhammer(alpha + 1, n) * pochhammer(2 + beta + gamma, n)
               * (beta + gamma + 1)))
    for m in range(n + 1):
        out[m] = (head * _neg1(m) * pochhammer(alpha - gamma, n - m)
                  * (beta + gamma + 1 + 2 * m) * pochhammer(Fraction(-n), m)
                  * pochhammer(1 + beta + gamma, m) * pochhammer(gamma + 1, m)
                  * pochhammer(n + 1 + alpha + beta, m)
                  / (pochhammer(beta + 1, m) * pochhammer(beta + gamma + n + 2, m)
                     * factorial(m)))
    return out


@_register("meixner-gamma", ("gamma", "delta", "mu"),
           "m(gamma,mu) over m(delta,mu)")
def _meixner_gamma(n, gamma, delta, mu):
    del mu
    return {m: binomial(Fraction(n), m) * pochhammer(gamma - delta, n - m)
            for m in range(n + 1)}


@_register("meixner-gamma-monic", ("gamma", "delta", "mu"),
           "monic m(gamma,mu) over monic m(delta,mu)")
def _meixner_gamma_monic(n, gamma, delta, mu):
    return {m: (mu / (mu - 1)) ** (n - m) * binomial(Fraction(n), m)
            * pochhammer(gamma - delta, n - m) for m in range(n + 1)}


@_register("meixner-mu", ("gamma", "mu", "nu"),
           "m(gamma,mu) over m(gamma,nu)")
def _meixner_mu(n, gamma, mu, nu):
    out = {}
    for m in range(n + 1):
        out[m] = (pochhammer(gamma, n) * pochhammer(Fraction(-n), m) * _neg1(m)
                  * nu ** m * (mu - 1) ** m * (nu - mu) ** (n - m)
                  / (mu ** n * (nu - 1) ** n * pochhammer(gamma, m) * factorial(m)))
    return out


@_register("meixner-mu-monic", ("gamma", "mu", "nu"),
           "monic m(gamma,mu) over monic m(gamma,nu)")
def _meixner_mu_monic(n, gamma, mu, nu):
    out = {}
    for m in range(n + 1):
        out[m] = ((nu - mu) ** (n - m) / ((mu - 1) * (nu - 1)) ** (n - m)
                  * pochhammer(gamma, n) * pochhammer(Fraction(-n), m) * _neg1(m)
                  / (pochhammer(gamma, m) * factorial(m)))
    return out


@_register("krawtchouk-p", ("p", "q", "N"), "k(p) over k(q), same N")
def _krawtchouk_p(n, p, q, N):
    return {m: (p - q) ** (n - m) * pochhammer(m - N, n - m) / factorial(n - m)
            for m in range(n + 1)}


@_register("krawtchouk-p-monic", ("p", "q", "N"), "monic k(p) over monic k(q)")
def _krawtchouk_p_monic(n, p, q, N):
    return {m: binomial(Fraction(n), m) * (p - q) ** (n - m) * pochhammer(m - N, n - m)
            for m in range(n + 1)}


@_register("krawtchouk-N", ("p", "N", "M"), "k(p, N) over k(p, M)")
def _krawtchouk_N(n, p, N, M):
    return {m: p ** (n - m) * pochhammer(M - N, n - m) / factorial(n - m)
            for m in range(n + 1)}


@_register("krawtchouk-N-monic", ("p", "N", "M"), "monic k(p, N) over monic k(p, M)")
def _krawtchouk_N_monic(n, p, N, M):
    return {m: binomial(Fraction(n), m) * p ** (n - m) * pochhammer(M - N, n - m)
            for m in range(n + 1)}


@_register("charlier", ("mu", "nu"), "c(mu) over c(nu)")
def _charlier_conn(n, mu, nu):
    return {m: (_neg1(n) * nu ** m * (nu - mu) ** (n - m) * pochhammer(Fraction(-n), m)
                / (mu ** n * factorial(m)))
            for m in range(n + 1)}


@_register("charlier-monic", ("mu", "nu"), "monic c(mu) over monic c(nu)")
def _charlier_conn_monic(n, mu, nu):
    return {m: binomial(Fraction(n), m) * (nu - mu) ** (n - m) for m in range(n + 1)}


@_register("kfamily-beta", ("alpha", "beta", "delta"),
           "K(alpha,beta) over K(alpha,delta)")
def _kfamily_beta(n, alpha, beta, delta):
    # ((b-d)/a)_n (-n)_m / ((1-n-(b-d)/a)_m m!) with the shared zeros of the
    # n- and m-indexed factors cancelled: binom(n,m) ((b-d)/a)_{n-m}.
    z = (beta - delta) / alpha
    return {m: alpha ** (n - m) * binomial(Fraction(n), m) * pochhammer(z, n - m)
            for m in range(n + 1)}


@_register("kfamily-beta-monic", ("alpha", "beta", "delta"),
           "monic K(alpha,beta) over monic K(alpha,delta)")
def _kfamily_beta_monic(n, alpha, beta, delta):
    z = (beta - delta) / alpha
    return {m: binomial(Fraction(n), m) * pochhammer(z, n - m) for m in range(n + 1)}


CLOSED_FORM_PAIRS = tuple(sorted(_CLOSED))


def closed_form_connection(pair: str, n: int, **params: FieldElement) -> ConnectionRow:
    """Evaluate a printed connection formula; see CLOSED_FORM_PAIRS."""
    if pair not in _CLOSED:
        raise KeyError(f"unknown connection pair {pair!r}; known: {CLOSED_FORM_PAIRS}")
    wanted, fn, _ = _CLOSED[pair]
    if set(params) != set(wanted):
        raise ValueError(f"pair {pair!r} takes parameters {wanted}, got {sorted(params)}")
    values = fn(n, **{k: as_field(v) for k, v in params.items()})
    coeffs = [as_field(values.get(m, Fraction(0))) for m in range(n + 1)]
    return ConnectionRow(n, tuple(coeffs))


# ---------------------------------------------------------------------------
# Parameter derivatives
# ---------------------------------------------------------------------------

_PDERIV: dict[tuple[str, str], Callable[..., dict[int, FieldElement]]] = {}


def _register_pd(family: str, param: str):
    def deco(fn):
        _PDERIV[(family, param)] = fn
        return fn

    return deco


@_register_pd("jacobi", "alpha")
def _pd_jacobi_alpha(n, alpha, beta):
    s = alpha + beta
    out = {n: sum((Fraction(1) / (s + 1 + m + n) for m in range(n)), start=as_field(0))}
    for m in range(n):
        out[m] = ((s + 1 + 2 * m) * pochhammer(beta + m + 1, n - m)
                  / ((n - m) * (s + 1 + m + n) * pochhammer(s + m + 1, n - m)))
    return out


@_register_pd("jacobi-monic", "alpha")
def _pd_jacobi_alpha_monic(n, alpha, beta):
    s = alpha + beta
    out = {}
    for m in range(n):
        out[m] = (Fraction(2) ** (n - m) / (n - m)
                  * binomial(2 * m + s, m) / binomial(2 * n + s, n)
                  * (s + 1 + 2 * m) / (s + 1 + m + n)
                  * pochhammer(beta + m + 1, n - m) / pochhammer(s + m + 1, n - m))
    return out


@_register_pd("jacobi", "beta")
def _pd_jacobi_beta(n, alpha, beta):
    s = alpha + beta
    out = {n: sum((Fraction(1) / (s + 1 + m + n) for m in range(n)), start=as_field(0))}
    for m in range(n):
        out[m] = (_neg1(n - m) * (s + 1 + 2 * m) * pochhammer(alpha + m + 1, n - m)
                  / ((n - m) * (s + 1 + m + n) * pochhammer(s + m + 1, n - m)))
    return out


@_register_pd("jacobi-monic", "beta")
def _pd_jacobi_beta_monic(n, alpha, beta):
    s = alpha + beta
    out = {}
    for m in range(n):
        out[m] = (Fraction(-2) ** (n - m) / (n - m)
                  * binomial(2 * m + s, m) / binomial(2 * n + s, n)
                  * (s + 1 + 2 * m) / (s + 1 + m + n)
                  * pochhammer(alpha + m + 1, n - m) / pochhammer(s + m + 1, n - m))
    return out


@_register_pd("gegenbauer", "alpha")
def _pd_gegenbauer_alpha(n, alpha):
    out = {n: sum((2 * (1 + m) / ((2 * alpha + m) * (2 * alpha + 1 + 2 * m))
                   + 2 / (2 * alpha + m + n) for m in range(n)), start=as_field(0))}
    for m in range(n):
        out[m] = (2 * (1 + _neg1(n - m)) * (alpha + m)
                  / ((2 * alpha + m + n) * (n - m)))
    return out


@_register_pd("gegenbauer-monic", "alpha")
def _pd_gegenbauer_alpha_monic(n, alpha):
    out = {}
    for m in range(n):
        out[m] = (Fraction(2) ** (m - n + 1) * pochhammer(alpha, m) * factorial(n)
                  / (pochhammer(alpha, n) * factorial(m))
                  * (1 + _neg1(n - m)) * (alpha + m) / ((2 * alpha + m + n) * (n - m)))
    return out


@_register_pd("laguerre", "alpha")
def _pd_laguerre_alpha(n, alpha):
    del alpha
    return {m: Fraction(1, n - m) for m in range(n)}


@_register_pd("laguerre-monic", "alpha")
def _pd_laguerre_alpha_monic(n, alpha):
    del alpha
    return {m: _neg1(n - m) * factorial(n) / ((n - m) * factorial(m)) for m in range(n)}


@_register_pd("bessel", "alpha")
def _pd_bessel_alpha(n, alpha):
    out = {n: sum((Fraction(1) / (alpha + n + m + 1) for m in range(n)), start=as_field(0))}
    for m in range(n):
        out[m] = (_neg1(n - m) * (2 * m + alpha + 1) * factorial(n)
                  / ((n - m) * (alpha + n + m + 1)
                     * pochhammer(alpha + m + 1, n - m) * factorial(m)))
    return out


@_register_pd("bessel-monic", "alpha")
def _pd_bessel_alpha_monic(n, alpha):
    out = {}
    for m in range(n):
        out[m] = (Fraction(-2) ** (n - m) * factorial(n)
                  / ((n - m) * (alpha + n + m + 1)
                     * pochhammer(alpha + 2 * m + 2, 2 * n - 2 * m - 1) * factorial(m)))
    return out


@_register_pd("hahn", "alpha")
def _pd_hahn_alpha(n, alpha, beta, N):
    s = alpha + beta
    out = {n: sum((Fraction(1) / (s + m + n + 1) for m in range(n)), start=as_field(0))}
    for m in range(n):
        out[m] = (_neg1(n - m) * (s + 1 + 2 * m) * pochhammer(1 - N + m, n - m)
                  * pochhammer(beta + 1 + m, n - m)
                  / ((n - m) * (s + m + n + 1) * pochhammer(s + 1 + m, n - m)))
    return out


@_register_pd("hahn-monic", "alpha")
def _pd_hahn_alpha_monic(n, alpha, beta, N):
    s = alpha + beta
    out = {}
    for m in range(n):
        out[m] = (_neg1(n - m) * (s + 1 + 2 * m) * pochhammer(1 - N + m, n - m)
                  * pochhammer(beta + 1 + m, n - m) * factorial(n)
                  / ((s + m + n + 1) * (n - m)
                     * pochhammer(s + 1 + 2 * m, 2 * n - 2 * m) * factorial(m)))
    return out


@_register_pd("hahn", "beta")
def _pd_hahn_beta(n, alpha, beta, N):
    s = alpha + beta
    out = {n: sum((Fraction(1) / (s + m + n + 1) for m in range(n)), start=as_field(0))}
    for m in range(n):
        out[m] = ((s + 1 + 2 * m) * pochhammer(1 - N + m, n - m)
                  * pochhammer(alpha + 1 + m, n - m)
                  / ((n - m) * (s + 1 + m + n) * pochhammer(s + 1 + m, n - m)))
    return out


@_register_pd("hahn-monic", "beta")
def _pd_hahn_beta_monic(n, alpha, beta, N):
    s = alpha + beta
    out = {}
    for m in range(n):
        out[m] = ((s + 1 + 2 * m) * pochhammer(1 - N + m, n - m)
                  * pochhammer(alpha + 1 + m, n - m) * factorial(n)
                  / ((s + m + n + 1) * (n - m)
                     * pochhammer(s + 1 + 2 * m, 2 * n - 2 * m) * factorial(m)))
    return out


@_register_pd("hahn-q", "alpha")
def _pd_hahnq_alpha(n, alpha, beta, N):
    del N
    s = alpha + beta
    out = {n: sum((Fraction(1) / (s + m + n + 1) - Fraction(1) / (alpha + m + 1)
                   for m in range(n)), start=as_field(0))}
    for m in range(n):
        out[m] = ((s + 1 + 2 * m) * pochhammer(beta + 1 + m, n - m) * factorial(n)
                  / ((n - m) * (s + m + n + 1) * pochhammer(alpha + 1 + m, n - m)
                     * pochhammer(s + 1 + m, n - m) * factorial(m)))
    return out


@_register_pd("hahn-q", "beta")
def _pd_hahnq_beta(n, alpha, beta, N):
    del N
    s = alpha + beta
    out = {n: sum((Fraction(1) / (s + m + n + 1) for m in range(n)), start=as_field(0))}
    for m in range(n):
        out[m] = (_neg1(n - m) * (s + 1 + 2 * m) * factorial(n)
                  / ((n - m) * (s + m + n + 1) * pochhammer(s + 1 + m, n - m)
                     * factorial(m)))
    return out


@_register_pd("meixner", "mu")
def _pd_meixner_mu(n, gamma, mu):
    return {n - 1: n * (gamma + n - 1) / ((1 - mu) * mu),
            n: -n / ((1 - mu) * mu)}


@_register_pd("meixner-monic", "mu")
def _pd_meixner_mu_monic(n, gamma, mu):
    return {n - 1: n * (1 - gamma - n) / (1 - mu) ** 2}


@_register_pd("meixner", "gamma")
def _pd_meixner_gamma(n, gamma, mu):
    del gamma, mu
    return {m: factorial(n) / (factorial(m) * (n - m)) for m in range(n)}


@_register_pd("meixner-monic", "gamma")
def _pd_meixner_gamma_monic(n, gamma, mu):
    del gamma
    return {m: (mu / (mu - 1)) ** (n - m) * factorial(n) / (factorial(m) * (n - m))
            for m in range(n)}


@_register_pd("krawtchouk", "p")
def _pd_krawtchouk_p(n, p, N):
    del p
    return {n - 1: as_field(n - 1 - N)}


@_register_pd("krawtchouk-monic", "p")
def _pd_krawtchouk_p_monic(n, p, N):
    del p
    return {n - 1: as_field(n * (n - 1 - N))}


@_register_pd("charlier", "mu")
def _pd_charlier_mu(n, mu):
    return {n - 1: Fraction(n) / mu, n: Fraction(-n) / mu}


@_register_pd("charlier-monic", "mu")
def _pd_charlier_mu_monic(n, mu):
    del mu
    return {n - 1: Fraction(-n)}


@_register_pd("k-family", "beta")
def _pd_kfamily_beta(n, alpha, beta):
    del beta
    return {m: alpha ** (n - m - 1) * factorial(n) / ((n - m) * factorial(m))
            for m in range(n)}


@_register_pd("k-family-monic", "beta")
def _pd_kfamily_beta_monic(n, alpha, beta):
    del beta
    return {m: factorial(n) / (alpha * (n - m) * factorial(m)) for m in range(n)}


PARAMETER_DERIVATIVE_PAIRS = tuple(sorted(_PDERIV))


def parameter_derivative(family: str, param: str, n: int,
                         at: Mapping[str, FieldElement]) -> ConnectionRow:
    """Coefficients D_m with d p_n / d param = sum_m D_m p_m (same family).

    ``at`` holds the values of all family parameters; the formula catalog
    covers the printed cases (and monic variants).
    """
    wanted = catalog_params(family)
    if set(at) != set(wanted):
        raise ValueError(f"family {family!r} takes parameters {wanted}, got {sorted(at)}")
    key = (family, param)
    if key not in _PDERIV:
        raise KeyError(f"no parameter-derivative formula for {key}; "
                       f"known: {PARAMETER_DERIVATIVE_PAIRS}")
    if n < 1:
        return ConnectionRow(n, (Fraction(0),) * (n + 1))
    try:
        values = _PDERIV[key](n, **{k: as_field(v) for k, v in at.items()})
    except ZeroDivisionError:
        point = ",".join(f"{k}={format_rational(v)}" for k, v in at.items())
        raise AdmissibilityError(f"{family}.{param} formula has a pole at {point}") from None
    return ConnectionRow(n, tuple(as_field(values.get(m, Fraction(0)))
                                  for m in range(n + 1)))


def exact_parameter_derivative(family: str, param: str, n: int,
                               at: Mapping[str, Fraction]) -> ConnectionRow:
    """Oracle: differentiate p_n exactly with dual numbers.

    The family is generated at the rational point first, so an inadmissible
    point fails with the message of the numeric route.  It is then generated
    again with the chosen parameter as Dual(v, 1) and the others as
    Dual(v, 0): the dual part of each monomial coefficient of p_n is its
    derivative in the parameter at the point (forward mode).  The result is
    expanded over the family's own polynomials at that point.
    """
    if param not in at:
        raise KeyError(f"{param!r} is not among the parameters {sorted(at)}")
    basis = generate(catalog(family, {k: Fraction(v) for k, v in at.items()}), n)
    seeded = {k: Dual(v, 1 if k == param else 0) for k, v in at.items()}
    try:
        p_n = generate(catalog(family, seeded), n)[n]
    except ZeroDivisionError:
        point = ",".join(f"{k}={format_rational(v)}" for k, v in at.items())
        raise AdmissibilityError(f"{family}.{param} derivative has a pole at {point}") from None
    d_coeffs = [c.d if isinstance(c, Dual) else Fraction(0) for c in p_n.coeffs]
    return ConnectionRow(n, tuple(expand_over(Polynomial(d_coeffs), basis)))
