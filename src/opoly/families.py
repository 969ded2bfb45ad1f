"""Family specifications for classical orthogonal polynomial systems.

A family is the data (a, b, c, d, e) of the second-order equation

    continuous:  (a x^2 + b x + c) y'' + (d x + e) y' + lambda_n y = 0
    discrete:    (a x^2 + b x + c) DeltaNabla y + (d x + e) Delta y + lambda_n y = 0

together with a standardization rule k_n (the leading coefficient of the
degree-n member) and the kind flag.  The catalog carries the named classical
families; raw specs cover everything else.  Parameters may be exact
rationals or dual numbers (a ``Dual`` carrying the derivative in one
parameter), which is how parameter derivatives are verified.  A spec with
rational data also keeps them cleared of denominators (``IntegerData``):
every formula is homogeneous in the data, so the brackets and the series
recurrences run on those integers; other data run the same kernels on
their own field elements.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

from .algebra import (
    FALLING,
    MONOMIAL,
    FieldElement,
    Polynomial,
    _from_ints,
    _IntPoly,
    _Quotient,
    as_field,
    factorial,
    format_field,
    parse_rational,
    pochhammer,
)

CONTINUOUS = "continuous"
DISCRETE = "discrete"


class AdmissibilityError(ValueError):
    """A formula denominator (or k_n) vanishes for a requested n."""


def per_degree(fn: Callable) -> Callable:
    """Keep the value of ``fn(spec, n, ...)`` in ``spec``'s memo, under (fn, n).

    Each per-degree value is then computed once per spec instance, however
    many formulas read it: k_n, the term ratio k_{n+1}/k_n and the base
    triples.  A call that raises stores nothing and raises again on
    the next call, with the message of that caller.  Arguments after n are
    not part of the key: they may only shape the error raised.  The
    brackets and entries those values are built from are polynomials and
    quotients in n, kept once per spec by ``polynomial_in_n`` and
    ``quotient_in_n``.
    """
    @functools.wraps(fn)
    def memoized(spec: "FamilySpec", n: int, *rest):
        key = (fn, n)
        value = spec._memo.get(key)
        if value is None:
            value = spec._memo[key] = fn(spec, n, *rest)
        return value

    return memoized


def polynomial_in_n(degree: int) -> Callable:
    """Evaluate ``fn(spec, n, ...)`` as a polynomial in n, expanded once per spec.

    The first call runs the body with an indeterminate in place of n and
    keeps the polynomial in ``spec``'s memo, under fn and the arguments
    after n; each call returns its value at n, in integer arithmetic when
    the spec's data are rational.  At the indeterminate itself (an
    ``_IntPoly`` n, as ``quotient_in_n`` bodies pass it) it returns the
    kept polynomial.  So the body may
    combine n only by ``+``, ``-``, ``*`` and ``**``, and may branch only
    on ``spec.kind`` and the arguments after n, never on n.

    The indeterminate is a bare coefficient list (``algebra._IntPoly``),
    and the body reads ``spec.scaled()``.  ``degree`` is the body's
    homogeneous degree w in the data (a, ..., e): scaling every datum by t
    scales the value by t^w.  For rational data the body runs on the
    spec's integer data ``L (a, ..., e)``, and the result is its int
    coefficients over L^w, reduced once; no Fraction is made while it
    runs.  Other data put their field elements in the same list.
    """
    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def evaluated(spec: "FamilySpec", n: int, *rest):
            key = (fn, *rest)
            poly = spec._memo.get(key)
            if poly is None:
                c = fn(spec.scaled(), _IntPoly([0, 1]), *rest).c
                poly = spec._memo[key] = (Polynomial(c) if spec._ints is None
                                          else _from_ints(c, spec._ints.scale ** degree, MONOMIAL))
            return poly if type(n) is _IntPoly else poly(n)

        return evaluated

    return decorate


def quotient_in_n(fn: Callable) -> Callable:
    """Evaluate ``fn(spec, n, ...)`` as one quotient of polynomials in n.

    The body runs once per spec with the bare indeterminate ``_IntPoly([0,
    1])`` in place of n and returns (numerator factors, denominator
    factors): brackets (the polynomials ``polynomial_in_n`` keeps), linear
    factors of n such as ``sign * n`` or a rule ratio's ``alpha + n + 1``
    (``_IntPoly``s, on bare int or Fraction lists for rational data), and
    constants.  The factors make one ``algebra._Quotient`` from their
    integer views (integer polynomials over one denominator, for rational
    data), kept in ``spec``'s memo under fn and the arguments after n; a
    call evaluates it at n (``_Quotient.at``: one Horner pass on each side,
    and one Fraction at an integer n for rational data), and at an
    ``_IntPoly`` n returns the quotient itself, whose Horner ints
    (``_Quotient.values``) ``structure.generate`` steps on and
    ``structure.formula_triple`` combines.  Returns None
    where the denominator vanishes, so that each caller raises its own
    message.
    """
    @functools.wraps(fn)
    def evaluated(spec: "FamilySpec", n: int, *rest):
        key = (fn, *rest)
        entry = spec._memo.get(key)
        if entry is None:
            entry = spec._memo[key] = _Quotient.of_factors(*fn(spec, _IntPoly([0, 1]), *rest))
        return entry if type(n) is _IntPoly else entry.at(n)

    return evaluated


@dataclass(frozen=True)
class LeadingRule:
    """Closed-form standardization n -> k_n, with a display label.

    The rule evaluates its closed form on every call; ``FamilySpec.k`` keeps
    the values.  The label is required: equal labels make equal specs, so
    two rules with different k_n must not share one.  The optional ratio
    gives k_{n+1}/k_n as a ``quotient_in_n`` body in n alone, each factor
    linear in n.
    """

    fn: Callable[[int], FieldElement] = field(compare=False)
    label: str
    ratio: Callable | None = field(default=None, compare=False)

    def __call__(self, n: int) -> FieldElement:
        return as_field(self.fn(n))


MONIC = LeadingRule(lambda n: Fraction(1), "monic", lambda n: ((), ()))


@quotient_in_n
def _rule_ratio(spec: "FamilySpec", n: int):
    return spec.leading.ratio(n)


@per_degree
def _term_ratio(spec: "FamilySpec", n: int) -> FieldElement | None:
    """rho_n = k_{n+1}/k_n from the rule's ratio; None (asked again) where the
    rule has none, the data are not rational or a factor of rho_n vanishes."""
    # rational data only: a dual rho may carry a factor 0 + eps that k_n lacks
    if spec.leading.ratio is None or spec._ints is None:
        return None
    return _rule_ratio(spec, n) or None


def _leading_coefficient(spec: "FamilySpec", n: int) -> FieldElement:
    """k_n, once per degree on this spec: k_{n-1} rho_{n-1} when k_{n-1} is
    in the memo and no factor of rho_{n-1} vanishes, else the closed form;
    a failed k_j is not kept, so the next value is a closed form too (jacobi
    alpha = -3/2, beta = -5/2 has k_2 = k_3 = 0 but k_4 = 1/16).  A zero value
    or a vanishing denominator of the rule is inadmissible."""
    if n:
        previous = spec._memo.get((_leading_coefficient, n - 1))
        if previous is not None:
            rho = _term_ratio(spec, n - 1)
            if rho is not None:
                return previous * rho
    try:
        value = spec.leading(n)
    except ZeroDivisionError:
        raise AdmissibilityError(
            f"k_{n} has a vanishing denominator for family {spec.name or spec.abcde()}"
        ) from None
    if value == 0:
        raise AdmissibilityError(f"k_{n} = 0 for family {spec.name or spec.abcde()}")
    return value


@dataclass(frozen=True, slots=True)
class IntegerData:
    """The data of a rational spec cleared of denominators: (a, ..., e) =
    (A, ..., E) / scale, with ints A, ..., E and scale the lcm of the
    data's denominators.  Every formula is homogeneous in the data (the
    equation does not change under (sigma, tau) -> (t sigma, t tau)), so
    the formula bodies may read these ints in place of the Fractions and
    divide by a power of ``scale`` once at the end, or not at all when
    every term of a recurrence has the same degree.  It has the attributes
    the bodies read: ``kind``, ``a`` to ``e`` and ``abcde()``."""

    kind: str
    a: int
    b: int
    c: int
    d: int
    e: int
    scale: int

    def abcde(self) -> tuple[int, ...]:
        return (self.a, self.b, self.c, self.d, self.e)


@dataclass(frozen=True)
class FamilySpec:
    kind: str
    a: FieldElement
    b: FieldElement
    c: FieldElement
    d: FieldElement
    e: FieldElement
    leading: LeadingRule = MONIC
    name: str = ""
    params: tuple[tuple[str, FieldElement], ...] = ()
    # per-degree values of this instance (see ``per_degree``); equal specs
    # do not share it
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    # the data cleared of denominators; set exactly when every datum and
    # parameter is a Fraction
    _ints: IntegerData | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in (CONTINUOUS, DISCRETE):
            raise ValueError(f"unknown kind {self.kind!r}")
        for attr in "abcde":
            object.__setattr__(self, attr, as_field(getattr(self, attr)))
        if self.d == 0:
            raise ValueError("tau must have degree exactly 1 (d != 0)")
        if all(type(v) is Fraction for v in (*self.abcde(), *(v for _, v in self.params))):
            scale = math.lcm(*(v.denominator for v in self.abcde()))
            object.__setattr__(self, "_ints", IntegerData(
                self.kind, *(v.numerator * (scale // v.denominator) for v in self.abcde()),
                scale))

    # -- basic data ---------------------------------------------------------

    def sigma(self) -> Polynomial:
        return Polynomial([self.c, self.b, self.a])

    def tau(self) -> Polynomial:
        return Polynomial([self.e, self.d])

    k = per_degree(_leading_coefficient)

    def abcde(self) -> tuple[FieldElement, ...]:
        return (self.a, self.b, self.c, self.d, self.e)

    def scaled(self) -> "IntegerData | FamilySpec":
        """The data up to a common factor, for formulas homogeneous in them:
        the integer data of a rational spec, else the spec itself."""
        return self._ints or self

    def is_monic(self) -> bool:
        return self.leading.label == "monic"

    def monic(self) -> "FamilySpec":
        if self.is_monic():
            return self
        name = f"{self.name}-monic" if self.name else ""
        return FamilySpec(self.kind, self.a, self.b, self.c, self.d, self.e,
                          MONIC, name, self.params)

    def param(self, key: str) -> FieldElement:
        for k, v in self.params:
            if k == key:
                return v
        raise KeyError(key)

    def basis(self) -> str:
        """Natural series basis: monomials (continuous) or falling factorials."""
        return MONOMIAL if self.kind == CONTINUOUS else FALLING

    def differences(self, y: Polynomial) -> tuple[Polynomial, Polynomial]:
        """(D'D y, D y) of a monomial-basis y: (y'', y') for a continuous
        family, (nabla delta y, delta y) for a discrete one."""
        if self.kind == CONTINUOUS:
            first = y.derivative()
            return first.derivative(), first
        first = y.delta()
        return first.nabla(), first

    def apply_operator(self, y: Polynomial, n: int) -> Polynomial:
        """sigma y'' + tau y' + lambda_n y (or the DeltaNabla analogue)."""
        p = y.to_basis(MONOMIAL)
        sig, tau = self.sigma(), self.tau()
        lam = lambda_n(self, n)
        second, first = self.differences(p)
        return sig * second + tau * first + p.scale(lam)


@polynomial_in_n(1)
def lambda_n(spec: FamilySpec, n: int) -> FieldElement:
    """Eigenvalue -(a n (n-1) + d n) of the degree-n member."""
    return -(spec.a * n * (n - 1) + spec.d * n)


def affine_transform(spec: FamilySpec, scale: FieldElement, offset: FieldElement) -> FamilySpec:
    """The family rewritten in the variable u = scale*x + offset.

    q_n(u) := p_n((u - offset)/scale) satisfies the same kind of equation
    with sigma, tau transformed accordingly and leading k_n / scale^n.
    Only meaningful for continuous families (a discrete lattice is not
    preserved by a general affine map).
    """
    if spec.kind != CONTINUOUS:
        raise ValueError("affine_transform applies to continuous families")
    s, t = as_field(scale), as_field(offset)
    if s == 0:
        raise ValueError("scale must be nonzero")
    a, b, c, d, e = spec.abcde()
    new_b = b * s - 2 * a * t
    new_c = a * t * t - b * s * t + c * s * s
    new_e = e * s - d * t
    base = spec.leading

    def k(n: int, base=base, s=s):
        return base(n) / s ** n

    def ratio(n, base=base, s=s):
        num, den = base.ratio(n)
        return num, (*den, s)

    label = f"({base.label})/scale^n, scale={format_field(s)}, offset={format_field(t)}"
    return FamilySpec(CONTINUOUS, a, new_b, new_c, d, new_e,
                      LeadingRule(k, label, ratio if base.ratio else None),
                      f"{spec.name}@affine", spec.params)


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

def _jacobi(alpha, beta):
    def k(n):
        return pochhammer(alpha + beta + n + 1, n) / (Fraction(2) ** n * factorial(n))
    return FamilySpec(CONTINUOUS, -1, 0, 1, -(alpha + beta + 2), beta - alpha,
                      LeadingRule(k, "binom(2n+a+b,n)/2^n", lambda n: (
                          (alpha + beta + 2 * n + 1, alpha + beta + 2 * n + 2),
                          (2, n + 1, alpha + beta + n + 1))))


def _gegenbauer(alpha):
    def k(n):
        return Fraction(2) ** n * pochhammer(alpha, n) / factorial(n)
    return FamilySpec(CONTINUOUS, -1, 0, 1, -(2 * alpha + 1), 0,
                      LeadingRule(k, "2^n (a)_n / n!", lambda n: ((2, alpha + n), (n + 1,))))


def _laguerre(alpha):
    def k(n):
        return Fraction(-1) ** n / factorial(n)
    return FamilySpec(CONTINUOUS, 0, 1, 0, -1, alpha + 1,
                      LeadingRule(k, "(-1)^n/n!", lambda n: ((-1,), (n + 1,))))


def _hermite():
    return FamilySpec(CONTINUOUS, 0, 0, 1, -2, 0,
                      LeadingRule(lambda n: Fraction(2) ** n, "2^n", lambda n: ((2,), ())))


def _bessel(alpha):
    def k(n):
        return pochhammer(alpha + n + 1, n) / Fraction(2) ** n
    return FamilySpec(CONTINUOUS, 1, 0, 0, alpha + 2, 2,
                      LeadingRule(k, "(n+a+1)_n/2^n", lambda n: (
                          (alpha + 2 * n + 1, alpha + 2 * n + 2), (2, alpha + n + 1))))


def _monomial():
    # The powers x^n themselves: sigma = 0, tau = -x.
    return FamilySpec(CONTINUOUS, 0, 0, 0, -1, 0, MONIC)


def _hahn(alpha, beta, N):
    def k(n):
        return pochhammer(alpha + beta + n + 1, n) / factorial(n)
    return FamilySpec(DISCRETE, -1, N + alpha, 0, -(alpha + beta + 2),
                      (beta + 1) * (N - 1), LeadingRule(k, "binom(a+b+2n,n)", lambda n: (
                          (alpha + beta + 2 * n + 1, alpha + beta + 2 * n + 2),
                          (n + 1, alpha + beta + n + 1))))


def _hahnq(alpha, beta, N):
    # Q_n(x; alpha, beta, N) shares its difference equation with
    # h_n^{(beta, alpha)}(x, N+1); only the standardization differs.
    def k(n):
        return pochhammer(alpha + beta + n + 1, n) / (
            pochhammer(-N, n) * pochhammer(alpha + 1, n))
    return FamilySpec(DISCRETE, -1, N + 1 + beta, 0, -(alpha + beta + 2),
                      (alpha + 1) * N, LeadingRule(k, "(a+b+n+1)_n/((-N)_n (a+1)_n)", lambda n: (
                          (alpha + beta + 2 * n + 1, alpha + beta + 2 * n + 2),
                          (alpha + beta + n + 1, n - N, alpha + n + 1))))


def _meixner(gamma, mu):
    def k(n):
        return ((mu - 1) / as_field(mu)) ** n
    return FamilySpec(DISCRETE, 0, 1, 0, mu - 1, gamma * mu,
                      LeadingRule(k, "(1-1/mu)^n", lambda n: ((mu - 1,), (mu,))))


def _krawtchouk(p, N):
    def k(n):
        return 1 / factorial(n)
    d = -1 / (1 - as_field(p))
    return FamilySpec(DISCRETE, 0, 1, 0, d, N * p / (1 - as_field(p)),
                      LeadingRule(k, "1/n!", lambda n: ((), (n + 1,))))


def _charlier(mu):
    def k(n):
        return (-1 / as_field(mu)) ** n
    return FamilySpec(DISCRETE, 0, 1, 0, -1, mu,
                      LeadingRule(k, "(-1/mu)^n", lambda n: ((-1,), (mu,))))


def _kfamily(alpha, beta):
    def k(n):
        return as_field(alpha) ** n
    return FamilySpec(DISCRETE, 0, 0, 1, alpha, beta,
                      LeadingRule(k, "alpha^n", lambda n: ((alpha,), ())))


def _falling_factorial():
    # The falling factorials x^(falling n): sigma = x, tau = -x.
    return FamilySpec(DISCRETE, 0, 1, 0, -1, 0, MONIC)


_CATALOG: dict[str, tuple[tuple[str, ...], Callable[..., FamilySpec]]] = {
    "jacobi": (("alpha", "beta"), _jacobi),
    "gegenbauer": (("alpha",), _gegenbauer),
    "laguerre": (("alpha",), _laguerre),
    "hermite": ((), _hermite),
    "bessel": (("alpha",), _bessel),
    "monomial": ((), _monomial),
    "hahn": (("alpha", "beta", "N"), _hahn),
    "hahn-q": (("alpha", "beta", "N"), _hahnq),
    "discrete-chebyshev": (("N",), lambda N: _hahn(Fraction(0), Fraction(0), N)),
    "meixner": (("gamma", "mu"), _meixner),
    "krawtchouk": (("p", "N"), _krawtchouk),
    "charlier": (("mu",), _charlier),
    "k-family": (("alpha", "beta"), _kfamily),
    "falling-factorial": ((), _falling_factorial),
}

CATALOG_NAMES = tuple(sorted(_CATALOG))


def catalog_params(name: str) -> tuple[str, ...]:
    """Parameter names of a catalog family (``<name>-monic`` included)."""
    base = name.removesuffix("-monic")
    if base not in _CATALOG:
        raise KeyError(f"unknown family {name!r}")
    return _CATALOG[base][0]


def catalog(name: str, params: Mapping[str, FieldElement] | None = None,
            **kwargs: FieldElement) -> FamilySpec:
    """Look up a named family; ``<name>-monic`` gives its monic variant."""
    wanted = catalog_params(name)
    base = name.removesuffix("-monic")
    builder = _CATALOG[base][1]
    given = dict(params or {})
    given.update(kwargs)
    missing = [p for p in wanted if p not in given]
    extra = [p for p in given if p not in wanted]
    if missing or extra:
        raise ValueError(f"family {base!r} takes parameters {wanted}, got {sorted(given)}")
    args = [as_field(given[p]) for p in wanted]
    point = ",".join(f"{k}={format_field(v)}" for k, v in given.items())
    try:
        spec = builder(*args)
    except ZeroDivisionError:
        raise AdmissibilityError(f"family {base!r} has a vanishing denominator at {point}") from None
    except ValueError as exc:  # the parameters parse, but tau degenerates there
        raise AdmissibilityError(f"family {base!r} degenerates at {point}: {exc}") from None
    spec = FamilySpec(spec.kind, spec.a, spec.b, spec.c, spec.d, spec.e,
                      spec.leading, base, tuple((p, as_field(given[p])) for p in wanted))
    if base != name:
        spec = spec.monic()
    spec.k(0)  # reject parameters that kill the standardization outright
    return spec


# ---------------------------------------------------------------------------
# JSON form
# ---------------------------------------------------------------------------

def spec_to_json(spec: FamilySpec) -> dict:
    return {
        "kind": spec.kind,
        "a": format_field(spec.a),
        "b": format_field(spec.b),
        "c": format_field(spec.c),
        "d": format_field(spec.d),
        "e": format_field(spec.e),
        "k": spec.leading.label if not spec.name else (
            "monic" if spec.is_monic() else spec.name),
        "params": {key: format_field(val) for key, val in spec.params},
    }


def spec_from_json(data: Mapping) -> FamilySpec:
    """Rebuild a spec from the JSON form (catalog names or monic raw specs)."""
    k = data.get("k", "monic")
    params = {key: parse_rational(val) for key, val in data.get("params", {}).items()}
    if k not in ("monic",) and k in _CATALOG:
        return catalog(k, params)
    if k != "monic":
        raise ValueError(f"unknown leading rule {k!r} for a raw spec")
    return FamilySpec(data["kind"], parse_rational(data["a"]), parse_rational(data["b"]),
                      parse_rational(data["c"]), parse_rational(data["d"]),
                      parse_rational(data["e"]), MONIC)
