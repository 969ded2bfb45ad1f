"""Output checks for the benchmark, with references computed apart from opoly.

Reference polynomials, in the monomial basis with exact ``Fraction``
coefficients:

* Jacobi, Gegenbauer, Laguerre and Hermite from sympy's ``jacobi_poly``,
  ``gegenbauer_poly``, ``laguerre_poly`` (associated) and ``hermite_poly``,
  whose standardizations are the catalog's;
* Bessel, Charlier, Meixner, Krawtchouk, Hahn-Q and Hahn from explicit
  terminating hypergeometric sums, made monic and scaled by the catalog's
  leading coefficient k_n.  Hahn(alpha, beta, N) shares its equation with
  Hahn-Q(beta, alpha, N - 1);
* raw specs and the k-family from their defining equation, solved here.

What is checked, per verb:

* ``tabulate``: the rows are exactly n = start..n_max, and sampled rows,
  substituted into their relation with the reference polynomials, leave a
  zero residual polynomial;
* ``generate``, ``repr --what series`` and ``closed-form``: exact equality of
  coefficients with the reference (falling-factorial output converted);
* ``repr --what in-basis``: the row summed over the reference basis gives x^n
  (or the falling factorial of degree n);
* ``connect``: the row summed over the target's reference basis gives P_n;
* ``param-deriv``: the row summed over the family's basis equals sympy's
  derivative of the reference P_n in the parameter, at the point;
* ``verify``: the verdict is ok, and the checks are exactly the (relation, n)
  pairs that the relation set and n_max imply, so "0 mismatches" is never
  vacuous.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from fractions import Fraction

import sympy
from sympy.polys.orthopolys import gegenbauer_poly, hermite_poly, jacobi_poly, laguerre_poly

X = sympy.Symbol("x")
THETA = sympy.Symbol("theta")


class Mismatch(Exception):
    """An output disagrees with the reference."""


# ---------------------------------------------------------------------------
# Dense polynomials: coefficient lists, lowest degree first.  The helpers
# work over Fraction and over sympy expressions alike.
# ---------------------------------------------------------------------------

def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def padd(p, q):
    n = max(len(p), len(q))
    return trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def pscale(p, s):
    return trim([c * s for c in p])


def psub(p, q):
    return padd(p, pscale(q, -1))


def pmul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def pderiv(p):
    return trim([p[k] * k for k in range(1, len(p))])


def pshift(p, h):
    """p(x + h)."""
    out = []
    for c in reversed(p):
        out = padd(pmul(out, [h, 1]), [c])
    return out


def pdelta(p):
    return psub(pshift(p, 1), p)


def pnabla(p):
    return psub(p, pshift(p, -1))


def falling_basis(n):
    """x^(falling k) for k = 0..n, each in the monomial basis."""
    basis = [[1]]
    for k in range(n):
        basis.append(pmul(basis[-1], [-k, 1]))
    return basis


def from_falling(coeffs):
    total = []
    for c, b in zip(coeffs, falling_basis(len(coeffs) - 1) if coeffs else []):
        total = padd(total, pscale(b, c))
    return total


def rising(a, k):
    result = Fraction(1)
    for j in range(k):
        result = result * (a + j)
    return result


def factorial(k):
    return rising(1, k)


def inverse(value):
    return Fraction(1, value) if isinstance(value, int) else 1 / value


def to_fraction(value) -> Fraction:
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    value = sympy.sympify(value)
    if not value.is_Rational:
        value = sympy.cancel(value)
    if not value.is_Rational:
        raise Mismatch(f"reference value {value} is not a rational number")
    return Fraction(int(value.p), int(value.q))


def sym(value):
    return sympy.Rational(value.numerator, value.denominator) if isinstance(value, Fraction) else value


# ---------------------------------------------------------------------------
# Families: sigma, tau, leading coefficient and reference polynomials
# ---------------------------------------------------------------------------

def equation_data(base: str, v: dict) -> tuple:
    """(a, b, c, d, e) of sigma = a x^2 + b x + c and tau = d x + e."""
    if base == "raw":
        return tuple(v[k] for k in "abcde")
    if base == "jacobi":
        return (-1, 0, 1, -(v["alpha"] + v["beta"] + 2), v["beta"] - v["alpha"])
    if base == "gegenbauer":
        return (-1, 0, 1, -(2 * v["alpha"] + 1), 0)
    if base == "laguerre":
        return (0, 1, 0, -1, v["alpha"] + 1)
    if base == "hermite":
        return (0, 0, 1, -2, 0)
    if base == "bessel":
        return (1, 0, 0, v["alpha"] + 2, 2)
    if base == "hahn":
        return (-1, v["N"] + v["alpha"], 0, -(v["alpha"] + v["beta"] + 2),
                (v["beta"] + 1) * (v["N"] - 1))
    if base == "hahn-q":
        return (-1, v["N"] + 1 + v["beta"], 0, -(v["alpha"] + v["beta"] + 2),
                (v["alpha"] + 1) * v["N"])
    if base == "meixner":
        return (0, 1, 0, v["mu"] - 1, v["gamma"] * v["mu"])
    if base == "krawtchouk":
        return (0, 1, 0, -1 / (1 - v["p"]), v["N"] * v["p"] / (1 - v["p"]))
    if base == "charlier":
        return (0, 1, 0, -1, v["mu"])
    if base == "k-family":
        return (0, 0, 1, v["alpha"], v["beta"])
    raise ValueError(f"no reference for family {base!r}")


def leading(base: str, v: dict, n: int):
    """The catalog's k_n for the families built from sums or equations."""
    if base == "bessel":
        return rising(n + v["alpha"] + 1, n) / 2 ** n
    if base == "hahn":
        return rising(v["alpha"] + v["beta"] + n + 1, n) / factorial(n)
    if base == "hahn-q":
        return rising(v["alpha"] + v["beta"] + n + 1, n) / (rising(-v["N"], n) * rising(v["alpha"] + 1, n))
    if base == "meixner":
        return ((v["mu"] - 1) / v["mu"]) ** n
    if base == "krawtchouk":
        return Fraction(1, factorial(n))
    if base == "charlier":
        return (-1 / v["mu"]) ** n
    if base == "k-family":
        return v["alpha"] ** n
    raise ValueError(base)


def _hypergeometric_falling(base: str, v: dict, n: int):
    """Falling-factorial coefficients of the textbook terminating sum."""
    if base == "hahn":  # shares its equation with Hahn-Q(beta, alpha, N - 1)
        base, v = "hahn-q", {"alpha": v["beta"], "beta": v["alpha"], "N": v["N"] - 1}
    out = []
    for k in range(n + 1):
        # (-x)_k = (-1)^k x^(falling k)
        term = Fraction(rising(-n, k) * (-1) ** k, factorial(k))
        if base == "hahn-q":
            term = term * rising(n + v["alpha"] + v["beta"] + 1, k) / (
                rising(v["alpha"] + 1, k) * rising(-v["N"], k))
        elif base == "meixner":
            term = term * (1 - 1 / v["mu"]) ** k / rising(v["gamma"], k)
        elif base == "krawtchouk":
            term = term * (1 / v["p"]) ** k / rising(-v["N"], k)
        elif base == "charlier":
            term = term * (-1 / v["mu"]) ** k
        else:
            raise ValueError(base)
        out.append(term)
    return out


def _bessel(v: dict, n: int):
    # y_n(x; alpha) = sum_k C(n, k) (n + alpha + 1)_k (x/2)^k
    return [Fraction(rising(-n, k) * (-1) ** k, factorial(k) * 2 ** k) * rising(n + v["alpha"] + 1, k)
            for k in range(n + 1)]


def solve_monic(kind: str, data: tuple, n: int):
    """The monic degree-n solution of the defining equation, solved here."""
    a, b, c, d, e = data
    lam = -(a * n * (n - 1) + d * n)
    columns = []
    for j in range(n + 1):
        x_j = [0] * j + [1]
        if kind == "continuous":
            second, first = pderiv(pderiv(x_j)), pderiv(x_j)
        else:
            # Delta x^j = sum_{i<j} C(j,i) x^i;  Delta nabla x^j = the terms with j - i even, doubled
            first = [math.comb(j, i) for i in range(j)]
            second = [2 * math.comb(j, i) if (j - i) % 2 == 0 else 0 for i in range(j - 1)]
        col = padd(padd(pmul([c, b, a], trim(second)), pmul([e, d], trim(first))),
                   pscale(x_j, lam))
        columns.append(col + [0] * (n + 1 - len(col)))
    y = [0] * (n + 1)
    y[n] = 1
    for m in range(n - 1, -1, -1):
        diag = columns[m][m]
        if diag == 0:
            raise Mismatch(f"reference equation is degenerate at m={m}")
        y[m] = -sum(columns[j][m] * y[j] for j in range(m + 1, n + 1)) / diag
        if isinstance(y[m], sympy.Basic):
            y[m] = sympy.cancel(y[m])
    return y


def _sympy_family(base: str, v: dict, n: int):
    args = {k: sym(val) for k, val in v.items()}
    if base == "jacobi":
        poly = jacobi_poly(n, args["alpha"], args["beta"], X, polys=True)
    elif base == "gegenbauer":
        poly = gegenbauer_poly(n, args["alpha"], X, polys=True)
    elif base == "laguerre":
        poly = laguerre_poly(n, X, alpha=args["alpha"], polys=True)
    else:
        poly = hermite_poly(n, X, polys=True)
    return list(reversed(poly.all_coeffs()))


def reference_coeffs(base: str, monic: bool, kind: str, v: dict, n: int):
    """Monomial coefficients of p_n (Fraction values, or sympy expressions)."""
    if base in ("jacobi", "gegenbauer", "laguerre", "hermite"):
        coeffs = _sympy_family(base, v, n)
        if not any(isinstance(val, sympy.Basic) for val in v.values()):
            coeffs = [to_fraction(c) for c in coeffs]
        return pscale(coeffs, inverse(coeffs[-1])) if monic else coeffs
    if base in ("raw", "k-family"):
        shape = solve_monic(kind, equation_data(base, v), n)
    elif base == "bessel":
        shape = _bessel(v, n)
    else:
        shape = from_falling(_hypergeometric_falling(base, v, n))
    shape = pscale(shape, inverse(shape[-1]))
    return shape if monic else pscale(shape, leading(base, v, n))


class References:
    """Cached reference polynomials for the families of one run."""

    def __init__(self):
        self._cache: dict = {}

    def poly(self, fam, n: int) -> list[Fraction]:
        if n < 0:
            return []
        key = (fam, n)
        if key not in self._cache:
            self._cache[key] = reference_coeffs(fam.base, fam.monic, fam.kind,
                                                dict(fam.params), n)
        return self._cache[key]


# ---------------------------------------------------------------------------
# Per-verb checks
# ---------------------------------------------------------------------------

def _table_rows(op, out: str) -> list[tuple[int, Fraction, Fraction, Fraction]]:
    if op.fmt == "json":
        payload = json.loads(out)
        if payload.get("relation") != op.what:
            raise Mismatch(f"relation {payload.get('relation')!r}, expected {op.what!r}")
        rows = [(e["n"], e["lo"], e["mid"], e["hi"]) for e in payload["entries"]]
    else:
        reader = list(csv.reader(io.StringIO(out)))
        if reader[0] != ["n", "lo", "mid", "hi"]:
            raise Mismatch(f"csv header {reader[0]}")
        rows = [(int(r[0]), r[1], r[2], r[3]) for r in reader[1:]]
    return [(int(n), Fraction(lo), Fraction(mid), Fraction(hi)) for n, lo, mid, hi in rows]


def table_residual(kind: str, what: str, data: tuple, p, n: int, lo, mid, hi):
    """Residual of one table row; p(m) gives the reference polynomial p_m."""
    a, b, c, d, e = data
    sigma, tau, x = [c, b, a], [e, d], [0, 1]
    cont = kind == "continuous"
    pn, pp, pm = p(n), p(n + 1), p(n - 1)

    def over(basis_hi, basis_mid, basis_lo):
        return padd(padd(pscale(basis_hi, hi), pscale(basis_mid, mid)), pscale(basis_lo, lo))

    if what == "recurrence":
        return padd(psub(pp, pmul([mid, hi], pn)), pscale(pm, lo))
    if what == "xpn":
        return psub(pmul(x, pn), over(pp, pn, pm))
    if what == "derivative":
        return psub(pmul(sigma, pderiv(pn) if cont else pnabla(pn)), over(pp, pn, pm))
    if what == "delta":
        return psub(pmul(padd(sigma, tau), pdelta(pn)), over(pp, pn, pm))
    D = pderiv if cont else pdelta
    dp, dn, dm = D(pp), D(pn), D(pm)
    if what == "starred":
        lhs = pmul(x, dn)
    elif what == "primed":
        lhs = pmul(sigma, pderiv(pderiv(pn)) if cont else pdelta(pnabla(pn)))
    elif what == "hatted":
        lhs = pn
    else:
        raise ValueError(what)
    return psub(lhs, over(dp, dn, dm))


def check_tabulate(op, out, refs, rng):
    rows = _table_rows(op, out)
    start = 0 if op.what in ("recurrence", "xpn") else 1
    if [r[0] for r in rows] != list(range(start, op.n + 1)):
        raise Mismatch(f"rows n = {[r[0] for r in rows][:5]}..., expected {start}..{op.n}")
    fam = op.fams[0]
    data = equation_data(fam.base, dict(fam.params))
    # lo multiplies p_{-1} (recurrence at n = 0) or D p_0 = 0 (at n = 1): skip those rows
    first = start + 1 if op.what not in ("recurrence", "xpn") else 1
    picks = {first, rng.randint(first, op.n), op.n}
    for n, lo, mid, hi in rows:
        if n in picks:
            residual = table_residual(fam.kind, op.what, data, lambda m: refs.poly(fam, m),
                                      n, lo, mid, hi)
            if residual:
                raise Mismatch(f"{op.what} row n={n} leaves a nonzero residual")


def check_generate(op, out, refs, rng):
    if op.fmt == "json":
        payload = json.loads(out)
        polys = [(e["n"], [Fraction(c) for c in e["coeffs"]]) for e in payload["polynomials"]]
    else:
        reader = list(csv.reader(io.StringIO(out)))
        polys = [(int(r[0]), [Fraction(c) for c in r[1].split()]) for r in reader[1:]]
    if [n for n, _ in polys] != list(range(op.n + 1)):
        raise Mismatch(f"polynomials n = 0..{len(polys) - 1}, expected 0..{op.n}")
    for n in {0, rng.randint(1, op.n), op.n}:
        if trim(polys[n][1]) != refs.poly(op.fams[0], n):
            raise Mismatch(f"p_{n} coefficients differ from the reference")


def _basis_coeffs(payload, kind) -> list[Fraction]:
    expected = "monomial" if kind == "continuous" else "falling"
    if payload["basis"] != expected:
        raise Mismatch(f"basis {payload['basis']!r}, expected {expected!r}")
    return [Fraction(c) for c in payload["coeffs"]]


def check_repr(op, out, refs, rng):
    payload = json.loads(out)
    fam = op.fams[0]
    if op.what == "closed-form":
        if payload.get("supported") is not True:
            raise Mismatch(f"closed form not supported: {payload.get('reason')}")
        payload = payload["expansion"]
        if payload["basis"] == "monomial" and fam.kind == "discrete":
            raise Mismatch("discrete closed form expanded over monomials")
        coeffs = [Fraction(c) for c in payload["coeffs"]]
        got = coeffs if payload["basis"] == "monomial" else from_falling(coeffs)
        if trim(got) != refs.poly(fam, op.n):
            raise Mismatch("closed-form expansion differs from the reference p_n")
        return
    if payload["n"] != op.n:
        raise Mismatch(f"n = {payload['n']}, expected {op.n}")
    coeffs = _basis_coeffs(payload, fam.kind)
    if op.what == "series":
        got = coeffs if fam.kind == "continuous" else from_falling(coeffs)
        if trim(got) != refs.poly(fam, op.n):
            raise Mismatch("series coefficients differ from the reference p_n")
        return
    total = []
    for m, value in enumerate(coeffs):
        total = padd(total, pscale(refs.poly(fam, m), value))
    target = [0] * op.n + [1]
    if fam.kind == "discrete":
        target = falling_basis(op.n)[op.n]
    if total != trim(target):
        raise Mismatch("in-basis row does not sum back to the power")


def _row(payload, n) -> list[Fraction]:
    if payload["n"] != n:
        raise Mismatch(f"n = {payload['n']}, expected {n}")
    coeffs = payload["coeffs"]
    if sorted(coeffs, key=int) != [str(m) for m in range(n + 1)]:
        raise Mismatch(f"row indices {sorted(coeffs, key=int)}")
    return [Fraction(coeffs[str(m)]) for m in range(n + 1)]


def check_connect(op, out, refs, rng):
    row = _row(json.loads(out), op.n)
    src, dst = op.fams
    total = []
    for m, value in enumerate(row):
        total = padd(total, pscale(refs.poly(dst, m), value))
    if total != refs.poly(src, op.n):
        raise Mismatch("connection row does not sum back to P_n")


def parameter_derivative(fam, param: str, n: int) -> list[Fraction]:
    """sympy's d/dparam of the reference p_n, at the family's point."""
    point = dict(fam.params)
    values = {k: (THETA if k == param else sym(v)) for k, v in point.items()}
    coeffs = reference_coeffs(fam.base, fam.monic, fam.kind, values, n)
    at = sym(point[param])
    return trim([to_fraction(sympy.diff(c, THETA).subs(THETA, at)) for c in coeffs])


def check_param_deriv(op, out, refs, rng):
    payload = json.loads(out)
    if payload.get("matches_exact_derivative") is not True:
        raise Mismatch("opoly reports that its formula and its exact derivative differ")
    row = _row(payload, op.n)
    fam = op.fams[0]
    total = []
    for m, value in enumerate(row):
        total = padd(total, pscale(refs.poly(fam, m), value))
    if total != parameter_derivative(fam, op.what, op.n):
        raise Mismatch(f"d p_n / d {op.what} row differs from sympy's derivative")


RELATIONS = ("equation", "recurrence", "derivative_rule", "delta_rule",
             "starred", "primed", "hatted")


def implied_checks(kind: str, n_max: int) -> list[tuple[str, int]]:
    """(relation, n) pairs of a full verify: the count behind '0 mismatches'."""
    pairs = [("equation", n) for n in range(n_max + 1)]
    pairs += [("recurrence", n) for n in range(n_max)]
    for relation in RELATIONS[2:]:
        if relation == "delta_rule" and kind != "discrete":
            continue
        pairs += [(relation, n) for n in range(1, n_max)]
    return sorted(pairs)


def check_verify(op, out, refs, rng):
    payload = json.loads(out)
    fam = op.fams[0]
    relations = [r for r in RELATIONS if r != "delta_rule" or fam.kind == "discrete"]
    if payload["relations"] != relations or payload["n_max"] != op.n:
        raise Mismatch(f"relations {payload['relations']} at n_max {payload['n_max']}")
    got = sorted((c["relation"], c["n"]) for c in payload["checks"])
    if got != implied_checks(fam.kind, op.n):
        raise Mismatch(f"{len(got)} checks, expected {len(implied_checks(fam.kind, op.n))}")
    if not all(c["ok"] for c in payload["checks"]) or payload["oracle_mismatches"] \
            or payload["ok"] is not True:
        raise Mismatch("verify reports a failure")


CHECKS = {"tabulate": check_tabulate, "generate": check_generate, "repr": check_repr,
          "connect": check_connect, "param-deriv": check_param_deriv, "verify": check_verify}


def check_all(items, seed: int) -> list[str]:
    """Check (op, stdout) pairs; return one line per output that fails."""
    refs = References()
    rng = random.Random(f"opoly-bench-check:{seed}")
    problems = []
    for op, out in items:
        try:
            CHECKS[op.verb](op, out, refs, rng)
        except (Mismatch, ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"wrong output: opoly {' '.join(op.argv())}: "
                            f"{type(exc).__name__}: {exc}")
    return problems
