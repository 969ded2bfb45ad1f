"""Acceptance suite: one test per criterion, exact (zero-tolerance) checks.

Every expected value below is either printed in the antiderivative /
representation / connection / derivative tables being reproduced, or is
computed by an independent oracle (equation solver, triangular basis solve,
dual-number derivative).  All comparisons are exact equality of
rationals; there are no float tolerances anywhere.
"""

import time
from fractions import Fraction as F

from opoly.algebra import FALLING, MONOMIAL, Polynomial, binomial, factorial, pochhammer
from opoly.families import affine_transform, catalog
from opoly.structure import (
    binomial_partial_sum,
    generate,
    theorem1_coeffs,
    verify_structure,
)
from opoly.series import (
    closed_form,
    expand_descriptor,
    falling_coeffs,
    falling_in_basis,
    power_coeffs,
    power_in_basis,
)
from opoly.connection import (
    closed_form_connection,
    connect_oracle,
    connect_recurrence,
    exact_parameter_derivative,
    parameter_derivative,
    PARAMETER_DERIVATIVE_PAIRS,
)
from opoly.diagnostics import transcription_report

from conftest import FAMILY_POINTS, PD_POINTS, iter_specs


def _report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


# -----------------------------------------------------------------------------
# 1. Structure-relation suite
# -----------------------------------------------------------------------------

def test_criterion_1_structure_relations():
    """All residuals of the equation, recurrence, derivative/difference rules
    and the starred/primed/hatted relations are identically zero polynomials
    for every catalog family at 3 parameter points, 1 <= n <= 10."""
    t0 = time.time()
    count = 0
    for name, params in iter_specs():
        report = verify_structure(catalog(name, params), 11)
        assert report.ok, (name, params, report.failures()[:3])
        count += len(report.checks)
    elapsed = time.time() - t0
    assert elapsed < 60, f"runtime target exceeded: {elapsed:.1f}s"
    _report("1 structure-relations", f"{count} residuals identically zero, "
            f"{elapsed:.1f}s")


# -----------------------------------------------------------------------------
# 2. Antiderivative / antidifference tables
# -----------------------------------------------------------------------------

def _expected_hatted(name, params, n):
    a = params.get("alpha")
    b = params.get("beta")
    N = params.get("N")
    if name == "hermite":
        return (F(1, 2 * (n + 1)), F(0), F(0))
    if name == "laguerre":
        return (F(-1), F(1), F(0))
    if name == "bessel":
        return (2 * (n + 1 + a) / ((n + 1) * (2 * n + a + 1) * (2 * n + a + 2)),
                4 / ((2 * n + a) * (2 * n + a + 2)),
                2 * n / ((n + a) * (2 * n + a) * (2 * n + a + 1)))
    if name == "gegenbauer":
        return (1 / (2 * (n + a)), F(0), -1 / (2 * (n + a)))
    if name == "jacobi":
        s = a + b
        return (2 * (n + s + 1) / ((2 * n + s + 1) * (2 * n + s + 2)),
                2 * (a - b) / ((2 * n + s) * (2 * n + s + 2)),
                -2 * (n + a) * (n + b) / ((n + s) * (2 * n + s) * (2 * n + s + 1)))
    if name == "charlier":
        return (-params["mu"] / (n + 1), F(0), F(0))
    if name == "krawtchouk":
        return (F(1), -params["p"], F(0))
    if name == "meixner":
        mu = params["mu"]
        return (mu / ((mu - 1) * (n + 1)), -mu / (mu - 1), F(0))
    if name == "discrete-chebyshev":
        return (F(1, 2 * (2 * n + 1)), F(-1, 2),
                (n - N) * (n + N) / (2 * (2 * n + 1)))
    if name == "hahn":
        s = a + b
        mid = -((2 * n * n + 2 * n + 2 * n * a + 2 * n * b + a - a * N + b * N
                 + a * b + b + b * b)
                / ((2 * n + s) * (2 * n + s + 2)))
        return ((n + s + 1) / ((2 * n + s + 1) * (2 * n + s + 2)), mid,
                (n + a) * (n + b) * (n - N) * (n + s + N)
                / ((n + s) * (2 * n + s) * (2 * n + s + 1)))
    if name == "k-family":
        return (1 / (a * (n + 1)), F(-1), F(0))
    if name in ("monomial", "falling-factorial"):
        return (F(1, n + 1), F(0), F(0))
    raise KeyError(name)


TABLE_FAMILIES = ("hermite", "laguerre", "bessel", "gegenbauer", "jacobi",
                  "charlier", "krawtchouk", "meixner", "discrete-chebyshev",
                  "hahn", "k-family")


def test_criterion_2_antiderivative_tables():
    """The (a^, b^, c^) triples match the printed antiderivative and
    antidifference tables symbol-for-symbol, n <= 8, exact equality; the
    power families reduce to x^(n+1)/(n+1)."""
    checked = 0
    for name in TABLE_FAMILIES + ("monomial", "falling-factorial"):
        for params in FAMILY_POINTS[name]:
            spec = catalog(name, params)
            for n in range(1, 9):
                got = tuple(theorem1_coeffs(spec, n)["hatted"])
                assert got == _expected_hatted(name, params, n), (name, params, n)
                checked += 1
    _report("2 antiderivative-tables", f"{checked} printed triples reproduced")


# -----------------------------------------------------------------------------
# 3. Hypergeometric representation suite
# -----------------------------------------------------------------------------

def _check_closed_form_family(spec, n_max=10):
    desc = closed_form(spec)
    fn = power_coeffs if spec.kind == "continuous" else falling_coeffs
    polys = generate(spec, n_max)
    for n in range(n_max + 1):
        sc = fn(spec, n)
        assert expand_descriptor(desc, n).coeffs == sc.coeffs, (spec.name, n)
        assert sc.polynomial().to_basis(MONOMIAL) == polys[n], (spec.name, n)
    return desc


def _poly_power(p, k):
    out = Polynomial.const(1)
    for _ in range(k):
        out = out * p
    return out


def test_criterion_3_hypergeometric_representations():
    """Each listed representation, expanded term by term, equals the series
    coefficients and the generated polynomial, n <= 10, exactly."""
    checked = 0
    x = Polynomial.x()

    # closed-form route: every family with a series form at the origin (or the
    # even/odd form), standard and monic standardizations
    for name, points in FAMILY_POINTS.items():
        if name in ("jacobi", "k-family", "falling-factorial"):
            continue
        for params in points:
            for variant in ("", "-monic"):
                _check_closed_form_family(catalog(name + variant, params))
                checked += 1

    # printed prefactors of the classical forms
    for alpha in (F(1, 2), F(3)):
        desc = closed_form(catalog("laguerre", alpha=alpha))
        for n in range(11):
            assert desc.prefactor(n) == binomial(n + alpha, n)
        desc = closed_form(catalog("laguerre-monic", alpha=alpha))
        for n in range(11):
            assert desc.prefactor(n) == pochhammer(1 + alpha, n) * F(-1) ** n
        desc = closed_form(catalog("bessel", alpha=alpha))
        assert all(desc.prefactor(n) == 1 for n in range(11))
        desc = closed_form(catalog("bessel-monic", alpha=alpha))
        for n in range(11):
            assert desc.prefactor(n) == F(2) ** n / pochhammer(n + alpha + 1, n)
    desc = closed_form(catalog("hermite"))
    assert all(desc.prefactor(n) == 2 ** n for n in range(11))

    for name, points in (("hahn", FAMILY_POINTS["hahn"]),
                         ("discrete-chebyshev", FAMILY_POINTS["discrete-chebyshev"])):
        for params in points:
            al = params.get("alpha", F(0))
            be = params.get("beta", F(0))
            N = params["N"]
            desc = closed_form(catalog(name, params))
            for n in range(9):
                want = (F(-1) ** n * pochhammer(be + 1, n) * pochhammer(N - n, n)
                        / factorial(n))
                assert desc.prefactor(n) == want
    for params in FAMILY_POINTS["hahn-q"]:
        desc = closed_form(catalog("hahn-q", params))
        assert all(desc.prefactor(n) == 1 for n in range(9))
    for params in FAMILY_POINTS["meixner"]:
        desc = closed_form(catalog("meixner", params))
        for n in range(9):
            assert desc.prefactor(n) == pochhammer(params["gamma"], n)
    for params in FAMILY_POINTS["krawtchouk"]:
        desc = closed_form(catalog("krawtchouk", params))
        for n in range(9):
            want = F(-1) ** n * binomial(params["N"], n) * params["p"] ** n
            assert desc.prefactor(n) == want
        desc = closed_form(catalog("krawtchouk-monic", params))
        for n in range(9):
            assert desc.prefactor(n) == pochhammer(-params["N"], n) * params["p"] ** n
    for params in FAMILY_POINTS["charlier"]:
        desc = closed_form(catalog("charlier-monic", params))
        for n in range(9):
            assert desc.prefactor(n) == (-params["mu"]) ** n

    # Jacobi: the four 2F1 forms
    for params in FAMILY_POINTS["jacobi"]:
        al, be = params["alpha"], params["beta"]
        spec = catalog("jacobi", params)
        polys = generate(spec, 10)
        # development at x = 1 and x = -1 via the affine change of variable
        for s, t, lower_param in ((F(-1, 2), F(1, 2), al + 1),
                                  (F(1, 2), F(1, 2), be + 1)):
            shifted = affine_transform(spec, s, t)
            desc = _check_closed_form_family(shifted)
            assert desc.lower[0].value_at(0) == lower_param
            for n in range(11):
                back = expand_descriptor(desc, n).polynomial().compose_affine(s, t)
                assert back == polys[n], (params, n)
            checked += 1
        # prefactors binom(n+alpha, n) and (-1)^n binom(n+beta, n)
        d1 = closed_form(affine_transform(spec, F(-1, 2), F(1, 2)))
        d3 = closed_form(affine_transform(spec, F(1, 2), F(1, 2)))
        for n in range(9):
            assert d1.prefactor(n) == binomial(n + al, n)
            assert d3.prefactor(n) == F(-1) ** n * binomial(n + be, n)
        # reversed forms: binom(2n+al+be, n) ((x -+ 1)/2)^n
        #   2F1(-n, -n-al; -2n-al-be; 2/(1-x))  and the (1+x) twin
        for n in range(9):
            for sign, upper2 in ((1, al), (-1, be)):
                total = Polynomial.zero()
                base = x - Polynomial.const(sign)  # (x - 1) resp. (x + 1)
                for k in range(n + 1):
                    coef = (pochhammer(F(-n), k) * pochhammer(-n - upper2, k)
                            / (pochhammer(-2 * n - al - be, k) * factorial(k))
                            * F(2) ** k * F(-sign) ** k / F(2) ** n)
                    total = total + _poly_power(base, n - k).scale(coef)
                total = total.scale(binomial(2 * n + al + be, n))
                assert total == polys[n], (params, n, sign)
                checked += 1

    # Laguerre reversed 2F0 form: (-x)^n/n! 2F0(-n, -n-alpha; ; -1/x)
    for params in FAMILY_POINTS["laguerre"]:
        al = params["alpha"]
        polys = generate(catalog("laguerre", params), 10)
        monic = generate(catalog("laguerre-monic", params), 10)
        for n in range(11):
            total = Polynomial.zero()
            for k in range(n + 1):
                coef = (pochhammer(F(-n), k) * pochhammer(-n - al, k)
                        / factorial(k) * F(-1) ** k)
                total = total + Polynomial.monomial(n - k, coef)
            assert total == monic[n]
            assert total.scale(F(-1) ** n / factorial(n)) == polys[n]
            checked += 1

    # Bessel reversed 1F1 form: x^n 1F1(-n; -2n-alpha; 2/x)
    for params in FAMILY_POINTS["bessel"]:
        al = params["alpha"]
        monic = generate(catalog("bessel-monic", params), 10)
        std = generate(catalog("bessel", params), 10)
        for n in range(11):
            total = Polynomial.zero()
            for k in range(n + 1):
                coef = (pochhammer(F(-n), k)
                        / (pochhammer(-2 * n - al, k) * factorial(k)) * F(2) ** k)
                total = total + Polynomial.monomial(n - k, coef)
            assert total == monic[n]
            assert total.scale(pochhammer(n + al + 1, n) / F(2) ** n) == std[n]
            checked += 1

    # the two Hahn standardizations are tied: Q~(x; a, b, N) = h~(b, a)(x, N+1)
    for params in FAMILY_POINTS["hahn-q"]:
        qt = generate(catalog("hahn-q-monic", params), 8)
        ht = generate(catalog("hahn-monic", {"alpha": params["beta"],
                                             "beta": params["alpha"],
                                             "N": params["N"] + 1}), 8)
        assert qt == ht
        checked += 1

    _report("3 hypergeometric-representations", f"{checked} listed forms verified")


# -----------------------------------------------------------------------------
# 4. Inverse representation suite
# -----------------------------------------------------------------------------

def _contract(spec, coeffs, n):
    polys = generate(spec, n)
    total = Polynomial.zero()
    for m, value in coeffs.items():
        total = total + polys[m].scale(value)
    return total


def test_criterion_4_inverse_representations():
    """The printed power / falling-factorial expansions reproduce x^n and
    x^(falling n) when contracted against generated polynomials, n <= 8, and
    the forward/inverse coefficient matrices are exact mutual inverses."""
    checked = 0
    x = Polynomial.x()

    for params in FAMILY_POINTS["jacobi"]:
        al, be = params["alpha"], params["beta"]
        spec = catalog("jacobi", params)
        for n in range(9):
            for sign, head in ((1, al), (-1, be)):
                # (1 -+ x)^n over P_m^{(al,be)}
                coeffs = {m: (F(2) ** n * F(-sign) ** (m if sign < 0 else 0)
                              * F(1) ** 0) for m in range(n + 1)}
                coeffs = {}
                for m in range(n + 1):
                    sgn = F(1) if sign == 1 else F(-1) ** m
                    top = head  # alpha for (1-x)^n, beta for (1+x)^n
                    coeffs[m] = (F(2) ** n * sgn * (al + be + 2 * m + 1)
                                 * pochhammer(top + m + 1, n - m)
                                 * pochhammer(F(-n), m)
                                 / pochhammer(al + be + m + 1, n + 1))
                target = _poly_power(Polynomial([1, -sign]), n)
                assert _contract(spec, coeffs, n) == target, (params, n, sign)
                checked += 1

    for params in FAMILY_POINTS["gegenbauer"]:
        al = params["alpha"]
        monic = catalog("gegenbauer-monic", params)
        std = catalog("gegenbauer", params)
        for n in range(9):
            coeffs = {n - 2 * k: (pochhammer(F(-n, 2), k)
                                  * pochhammer(F(-n, 2) + F(1, 2), k)
                                  * pochhammer(-n - al, k)
                                  / (pochhammer(F(-n, 2) - al / 2, k)
                                     * pochhammer(F(-n, 2) - al / 2 + F(1, 2), k)
                                     * factorial(k)) * F(-1, 4) ** k)
                      for k in range(n // 2 + 1)}
            assert _contract(monic, coeffs, n) == Polynomial.monomial(n)
            coeffs = {n - 2 * k: (factorial(n) / F(2) ** n * (n + al - 2 * k)
                                  / (factorial(k) * pochhammer(al, n + 1 - k)))
                      for k in range(n // 2 + 1)}
            assert _contract(std, coeffs, n) == Polynomial.monomial(n)
            checked += 2

    for params in FAMILY_POINTS["laguerre"]:
        al = params["alpha"]
        for n in range(9):
            coeffs = {m: (pochhammer(1 + al, n) * pochhammer(F(-n), m) * F(-1) ** m
                          / (pochhammer(1 + al, m) * factorial(m)))
                      for m in range(n + 1)}
            assert _contract(catalog("laguerre-monic", params), coeffs, n) == \
                Polynomial.monomial(n)
            coeffs = {m: (pochhammer(1 + al, n) * pochhammer(F(-n), m)
                          / pochhammer(1 + al, m))
                      for m in range(n + 1)}
            assert _contract(catalog("laguerre", params), coeffs, n) == \
                Polynomial.monomial(n)
            checked += 2

    for n in range(9):
        coeffs = {n - 2 * k: (pochhammer(F(-n, 2), k)
                              * pochhammer(F(-n, 2) + F(1, 2), k) / factorial(k))
                  for k in range(n // 2 + 1)}
        assert _contract(catalog("hermite-monic"), coeffs, n) == Polynomial.monomial(n)
        coeffs = {n - 2 * k: factorial(n) / F(2) ** n
                  / (factorial(k) * factorial(n - 2 * k))
                  for k in range(n // 2 + 1)}
        assert _contract(catalog("hermite"), coeffs, n) == Polynomial.monomial(n)
        checked += 2

    for params in FAMILY_POINTS["bessel"]:
        al = params["alpha"]
        for n in range(9):
            coeffs = {m: (F(-2) ** n / pochhammer(al + 2, n)
                          * pochhammer(F(-n), m) * pochhammer(al / 2 + 1, m)
                          * pochhammer(al / 2 + F(3, 2), m)
                          / (pochhammer(n + 2 + al, m) * factorial(m)) * F(2) ** m)
                      for m in range(n + 1)}
            assert _contract(catalog("bessel-monic", params), coeffs, n) == \
                Polynomial.monomial(n)
            coeffs = {m: (F(-2) ** n * (2 * m + al + 1) * pochhammer(F(-n), m)
                          / (factorial(m) * pochhammer(al + m + 1, n + 1)))
                      for m in range(n + 1)}
            assert _contract(catalog("bessel", params), coeffs, n) == \
                Polynomial.monomial(n)
            checked += 2

    falling = lambda n: Polynomial.monomial(n, 1, FALLING).to_basis(MONOMIAL)

    for params in FAMILY_POINTS["hahn"]:
        al, be, N = params["alpha"], params["beta"], params["N"]
        s = al + be
        for n in range(9):
            coeffs = {m: (pochhammer(be + 1, n) * pochhammer(1 - N, n) * F(-1) ** n
                          * (1 + s + 2 * m) * pochhammer(F(-n), m)
                          * pochhammer(1 + s, m)
                          / (pochhammer(s + 2, n) * (1 + s)
                             * pochhammer(n + 2 + s, m) * pochhammer(be + 1, m)
                             * pochhammer(1 - N, m)))
                      for m in range(n + 1)}
            assert _contract(catalog("hahn", params), coeffs, n) == falling(n)
            coeffs = {m: (pochhammer(be + 1, n) * pochhammer(1 - N, n) * F(-1) ** n
                          / pochhammer(s + 2, n)
                          * pochhammer(F(-n), m) * pochhammer(s / 2 + 1, m)
                          * pochhammer(s / 2 + F(3, 2), m) * F(4) ** m
                          / (pochhammer(n + 2 + s, m) * pochhammer(be + 1, m)
                             * pochhammer(1 - N, m) * factorial(m)))
                      for m in range(n + 1)}
            assert _contract(catalog("hahn-monic", params), coeffs, n) == falling(n)
            checked += 2

    for params in FAMILY_POINTS["hahn-q"]:
        al, be, N = params["alpha"], params["beta"], params["N"]
        s = al + be
        for n in range(9):
            coeffs = {m: (pochhammer(1 + al, n) * pochhammer(-N, n) * F(-1) ** n
                          / pochhammer(s + 2, n) * (s + 1 + 2 * m) / (s + 1)
                          * pochhammer(F(-n), m) * pochhammer(1 + s, m)
                          / (pochhammer(n + 2 + s, m) * factorial(m)))
                      for m in range(n + 1)}
            assert _contract(catalog("hahn-q", params), coeffs, n) == falling(n)
            checked += 1

    for params in FAMILY_POINTS["discrete-chebyshev"]:
        N = params["N"]
        for n in range(9):
            head = pochhammer(1 - N, n) * F(-1) ** n / (n + 1)
            coeffs = {m: (head * pochhammer(F(-n), m) * (1 + 2 * m)
                          / (pochhammer(F(n + 2), m) * pochhammer(1 - N, m)))
                      for m in range(n + 1)}
            assert _contract(catalog("discrete-chebyshev", params), coeffs, n) == \
                falling(n)
            coeffs = {m: (head * pochhammer(F(-n), m) * pochhammer(F(3, 2), m)
                          * F(4) ** m
                          / (pochhammer(F(n + 2), m) * pochhammer(1 - N, m)
                             * factorial(m)))
                      for m in range(n + 1)}
            assert _contract(catalog("discrete-chebyshev-monic", params), coeffs, n) \
                == falling(n)
            checked += 2

    for params in FAMILY_POINTS["meixner"]:
        ga, mu = params["gamma"], params["mu"]
        for n in range(9):
            head = F(-1) ** n * pochhammer(ga, n) * (mu / (mu - 1)) ** n
            coeffs = {m: head * pochhammer(F(-n), m) / (pochhammer(ga, m) * factorial(m))
                      for m in range(n + 1)}
            assert _contract(catalog("meixner", params), coeffs, n) == falling(n)
            coeffs = {m: (F(-1) ** n * pochhammer(ga, n) * (mu / (mu - 1)) ** (n - m)
                          * pochhammer(F(-n), m) / (pochhammer(ga, m) * factorial(m)))
                      for m in range(n + 1)}
            assert _contract(catalog("meixner-monic", params), coeffs, n) == falling(n)
            checked += 2

    for params in FAMILY_POINTS["krawtchouk"]:
        p, N = params["p"], params["N"]
        for n in range(9):
            coeffs = {m: (F(-1) ** n * pochhammer(-N, n) * p ** (n - m)
                          * pochhammer(F(-n), m) / pochhammer(-N, m))
                      for m in range(n + 1)}
            assert _contract(catalog("krawtchouk", params), coeffs, n) == falling(n)
            coeffs = {m: (F(-1) ** n * pochhammer(-N, n) * p ** (n - m)
                          * pochhammer(F(-n), m) / (pochhammer(-N, m) * factorial(m)))
                      for m in range(n + 1)}
            assert _contract(catalog("krawtchouk-monic", params), coeffs, n) == falling(n)
            checked += 2

    for params in FAMILY_POINTS["charlier"]:
        mu = params["mu"]
        for n in range(9):
            coeffs = {m: mu ** n * pochhammer(F(-n), m) / factorial(m)
                      for m in range(n + 1)}
            assert _contract(catalog("charlier", params), coeffs, n) == falling(n)
            coeffs = {m: (F(-1) ** n * (-mu) ** (n - m) * pochhammer(F(-n), m)
                          / factorial(m))
                      for m in range(n + 1)}
            assert _contract(catalog("charlier-monic", params), coeffs, n) == falling(n)
            checked += 2

    # exact mutual inverses of the forward/inverse coefficient matrices
    for name, params in iter_specs():
        spec = catalog(name, params)
        fwd = power_coeffs if spec.kind == "continuous" else falling_coeffs
        inv = power_in_basis if spec.kind == "continuous" else falling_in_basis
        nmax = 8
        fwd_rows = [fwd(spec, n) for n in range(nmax + 1)]
        inv_rows = [inv(spec, n) for n in range(nmax + 1)]
        for i in range(nmax + 1):
            for j in range(nmax + 1):
                total = sum((fwd_rows[i][k] * inv_rows[k][j] for k in range(nmax + 1)),
                            start=F(0))
                assert total == (1 if i == j else 0), (name, i, j)
        checked += 1

    _report("4 inverse-representations", f"{checked} expansions reproduced")


# -----------------------------------------------------------------------------
# 5. Connection suite
# -----------------------------------------------------------------------------

CONNECTION_CASES = [
    # (pair, closed-form params, P family+params, Q family+params) x 3 points
    ("laguerre", {"alpha": a, "beta": b}, ("laguerre", {"alpha": a}),
     ("laguerre", {"alpha": b}))
    for a, b in ((F(2), F(0)), (F(1, 2), F(-1, 3)), (F(3), F(5, 2)))
] + [
    ("gegenbauer", {"alpha": a, "beta": b}, ("gegenbauer", {"alpha": a}),
     ("gegenbauer", {"alpha": b}))
    for a, b in ((F(3, 4), F(5, 2)), (F(2), F(1, 5)), (F(1, 3), F(3)))
] + [
    ("jacobi-alpha", {"alpha": a, "beta": b, "gamma": g},
     ("jacobi", {"alpha": a, "beta": b}), ("jacobi", {"alpha": g, "beta": b}))
    for a, b, g in ((F(1, 2), F(1, 3), F(2)), (F(2), F(3), F(1, 4)),
                    (F(5, 2), F(1, 4), F(1)))
] + [
    ("jacobi-beta", {"alpha": a, "beta": b, "delta": d},
     ("jacobi", {"alpha": a, "beta": b}), ("jacobi", {"alpha": a, "beta": d}))
    for a, b, d in ((F(1, 2), F(1, 3), F(3)), (F(2), F(3), F(1, 2)),
                    (F(5, 2), F(1, 4), F(2)))
] + [
    ("bessel", {"alpha": a, "beta": b}, ("bessel", {"alpha": a}),
     ("bessel", {"alpha": b}))
    for a, b in ((F(1), F(3)), (F(0), F(3, 2)), (F(1), F(-1, 2)))
] + [
    ("charlier", {"mu": m, "nu": v}, ("charlier", {"mu": m}), ("charlier", {"mu": v}))
    for m, v in ((F(2), F(3)), (F(1), F(1, 3)), (F(1, 2), F(5)))
] + [
    ("meixner-gamma", {"gamma": g, "delta": d, "mu": m},
     ("meixner", {"gamma": g, "mu": m}), ("meixner", {"gamma": d, "mu": m}))
    for g, d, m in ((F(2), F(5, 2), F(1, 3)), (F(1, 2), F(3), F(2)),
                    (F(3), F(1), F(1, 4)))
] + [
    ("meixner-mu", {"gamma": g, "mu": m, "nu": v},
     ("meixner", {"gamma": g, "mu": m}), ("meixner", {"gamma": g, "mu": v}))
    for g, m, v in ((F(2), F(1, 3), F(1, 5)), (F(1, 2), F(2), F(3)),
                    (F(3), F(1, 4), F(1, 2)))
] + [
    ("krawtchouk-p", {"p": p, "q": q, "N": N},
     ("krawtchouk", {"p": p, "N": N}), ("krawtchouk", {"p": q, "N": N}))
    for p, q, N in ((F(1, 2), F(1, 3), F(12)), (F(1, 4), F(3, 4), F(13)),
                    (F(2, 3), F(1, 6), F(14)))
] + [
    ("krawtchouk-N", {"p": p, "N": N, "M": M},
     ("krawtchouk", {"p": p, "N": N}), ("krawtchouk", {"p": p, "N": M}))
    for p, N, M in ((F(1, 2), F(10), F(12)), (F(1, 3), F(9), F(12)),
                    (F(3, 4), F(11), F(14)))
] + [
    ("hahn-beta", {"alpha": a, "beta": b, "delta": d, "N": N},
     ("hahn", {"alpha": a, "beta": b, "N": N}),
     ("hahn", {"alpha": a, "beta": d, "N": N}))
    for a, b, d, N in ((F(1, 2), F(1, 3), F(3), F(12)),
                       (F(2), F(1), F(1, 2), F(13)),
                       (F(1, 4), F(3, 2), F(1), F(14)))
] + [
    ("hahn-alpha", {"alpha": a, "beta": b, "gamma": g, "N": N},
     ("hahn", {"alpha": a, "beta": b, "N": N}),
     ("hahn", {"alpha": g, "beta": b, "N": N}))
    for a, b, g, N in ((F(1, 2), F(1, 3), F(2), F(12)),
                       (F(2), F(1), F(1, 2), F(13)),
                       (F(1, 4), F(3, 2), F(1), F(14)))
] + [
    ("hahnq-beta", {"alpha": a, "beta": b, "delta": d, "N": N},
     ("hahn-q", {"alpha": a, "beta": b, "N": N}),
     ("hahn-q", {"alpha": a, "beta": d, "N": N}))
    for a, b, d, N in ((F(1), F(2), F(1, 2), F(12)),
                       (F(1, 2), F(1, 3), F(2), F(13)),
                       (F(3), F(1), F(2), F(14)))
] + [
    ("hahnq-alpha", {"alpha": a, "beta": b, "gamma": g, "N": N},
     ("hahn-q", {"alpha": a, "beta": b, "N": N}),
     ("hahn-q", {"alpha": g, "beta": b, "N": N}))
    for a, b, g, N in ((F(1), F(2), F(3), F(12)),
                       (F(1, 2), F(1, 3), F(2), F(13)),
                       (F(3), F(1), F(1, 2), F(14)))
] + [
    ("kfamily-beta", {"alpha": a, "beta": b, "delta": d},
     ("k-family", {"alpha": a, "beta": b}), ("k-family", {"alpha": a, "beta": d}))
    for a, b, d in ((F(3), F(1, 2), F(2)), (F(1, 2), F(2), F(-1)), (F(2), F(1), F(5)))
] + [
    ("hahn-symmetric", {"alpha": a, "gamma": g, "N": N},
     ("hahn", {"alpha": a, "beta": a, "N": N}),
     ("hahn", {"alpha": g, "beta": g, "N": N}))
    for a, g, N in ((F(1, 2), F(2), F(14)), (F(1), F(1, 4), F(13)),
                    (F(2), F(3), F(15)))
] + [
    ("hahn-symmetric-monic", {"alpha": a, "gamma": g, "N": N},
     ("hahn-monic", {"alpha": a, "beta": a, "N": N}),
     ("hahn-monic", {"alpha": g, "beta": g, "N": N}))
    for a, g, N in ((F(1, 2), F(2), F(14)), (F(1), F(1, 4), F(13)),
                    (F(2), F(3), F(15)))
] + [
    ("hahnq-symmetric", {"alpha": a, "gamma": g, "N": N},
     ("hahn-q", {"alpha": a, "beta": a, "N": N}),
     ("hahn-q", {"alpha": g, "beta": g, "N": N}))
    for a, g, N in ((F(1, 2), F(2), F(14)), (F(1), F(1, 4), F(13)),
                    (F(2), F(3), F(15)))
]

MONIC_CLOSED = {
    "laguerre": None, "gegenbauer": None, "jacobi-alpha": None, "jacobi-beta": None,
    "bessel": None,
    "charlier": "charlier-monic", "meixner-gamma": "meixner-gamma-monic",
    "meixner-mu": "meixner-mu-monic", "krawtchouk-p": "krawtchouk-p-monic",
    "krawtchouk-N": "krawtchouk-N-monic", "hahn-beta": "hahn-beta-monic",
    "hahn-alpha": "hahn-alpha-monic", "hahnq-beta": None, "hahnq-alpha": None,
    "kfamily-beta": "kfamily-beta-monic", "hahn-symmetric": None,
    "hahn-symmetric-monic": None, "hahnq-symmetric": None,
}


def test_criterion_5_connection_suite():
    """connect_recurrence == connect_oracle == closed_form_connection, n <= 8,
    three parameter points per pair, exact equality."""
    rows_checked = 0
    for pair, params, (pn, pp), (qn, qp) in CONNECTION_CASES:
        p, q = catalog(pn, pp), catalog(qn, qp)
        symmetric = "symmetric" in pair
        monic_pair = MONIC_CLOSED.get(pair)
        for n in range(9):
            oracle = connect_oracle(p, q, n)
            closed = closed_form_connection(pair, n, **params)
            assert closed.coeffs == oracle.coeffs, (pair, params, n)
            rows_checked += 1
            if symmetric:
                continue  # both parameters shift: the recurrence route does not apply
            pm, qm = p.monic(), q.monic()
            rec = connect_recurrence(pm, qm, n)
            oracle_monic = connect_oracle(pm, qm, n)
            assert rec.coeffs == oracle_monic.coeffs, (pair, params, n)
            rows_checked += 1
            if monic_pair:
                closed_monic = closed_form_connection(monic_pair, n, **params)
                assert closed_monic.coeffs == oracle_monic.coeffs, (pair, params, n)
                rows_checked += 1
    # small-N pair (degrees stay below both supports): all three routes
    p5 = catalog("krawtchouk", p=F(1, 2), N=F(5))
    q7 = catalog("krawtchouk", p=F(1, 2), N=F(7))
    for n in range(3):
        oracle = connect_oracle(p5, q7, n)
        assert closed_form_connection("krawtchouk-N", n,
                                      p=F(1, 2), N=F(5), M=F(7)).coeffs == oracle.coeffs
        rec = connect_recurrence(p5.monic(), q7.monic(), n)
        assert rec.coeffs == connect_oracle(p5.monic(), q7.monic(), n).coeffs
        rows_checked += 2
    _report("5 connection-suite", f"{rows_checked} rows agree across routes")


# -----------------------------------------------------------------------------
# 6. Parameter-derivative suite
# -----------------------------------------------------------------------------

def test_criterion_6_parameter_derivatives():
    """Every parameter-derivative formula equals the exact derivative computed
    with dual numbers, coefficient-wise, n <= 6, three points."""
    checked = 0
    for family, param in PARAMETER_DERIVATIVE_PAIRS:
        base = family[:-len("-monic")] if family.endswith("-monic") else family
        for at in PD_POINTS[base]:
            for n in range(1, 7):
                got = parameter_derivative(family, param, n, at)
                want = exact_parameter_derivative(family, param, n, at)
                assert got.coeffs == want.coeffs, (family, param, at, n)
                checked += 1
    _report("6 parameter-derivatives",
            f"{checked} rows equal the dual-number derivative "
            f"({len(PARAMETER_DERIVATIVE_PAIRS)} formula pairs)")


# -----------------------------------------------------------------------------
# 7. Binomial identity
# -----------------------------------------------------------------------------

def test_criterion_7_binomial_identity():
    """sum_{k=0..m} C(n+k, k) = C(n+m+1, m) via the antidifference of the
    falling factorial, for all 0 <= n, m <= 12."""
    for n in range(13):
        for m in range(13):
            lhs, rhs = binomial_partial_sum(n, m)
            assert lhs == rhs, (n, m)
    _report("7 binomial-identity", "169 (n, m) pairs, exact")


# -----------------------------------------------------------------------------
# 8. Transcription diagnostics
# -----------------------------------------------------------------------------

def test_criterion_8_transcription_diagnostics():
    """Zero unresolved formula-vs-oracle mismatches; found misprints are
    documented with both values."""
    report = transcription_report(deep=True)
    assert report["unresolved"] == []
    assert len(report["documented_variants"]) >= 4
    for variant in report["documented_variants"]:
        assert variant["shipped"] and variant["rejected_example"]
    _report("8 transcription-diagnostics",
            f"0 unresolved, {len(report['documented_variants'])} documented variants")
