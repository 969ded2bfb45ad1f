from fractions import Fraction as F

import pytest

from opoly.algebra import MONOMIAL, Polynomial, RationalFunction, expand_over, pochhammer
from opoly.families import affine_transform, catalog
from opoly.series import (
    UnsupportedRepresentation,
    closed_form,
    descend,
    descriptor_to_json,
    expand_descriptor,
    falling_coeffs,
    falling_coeffs_three_term,
    falling_in_basis,
    power_coeffs,
    power_in_basis,
    series_polynomial,
    _falling_in_monic_three_term,
    _falling_in_monic_two_term,
    _power_in_monic_closed,
    _power_in_monic_three_term,
    _power_in_monic_two_term,
)
from opoly.structure import generate

from conftest import iter_specs


def continuous_specs():
    for name, params in iter_specs():
        spec = catalog(name, params)
        if spec.kind == "continuous":
            yield name, spec


def discrete_specs():
    for name, params in iter_specs():
        spec = catalog(name, params)
        if spec.kind == "discrete":
            yield name, spec


class TestForwardSeries:
    def test_hermite_n2(self):
        assert power_coeffs(catalog("hermite"), 2).coeffs == (-2, 0, 4)

    def test_laguerre0_n2(self):
        assert power_coeffs(catalog("laguerre", alpha=F(0)), 2).coeffs == (1, -2, F(1, 2))

    def test_monic_top_coefficient(self):
        for name, params in iter_specs(monic=True):
            spec = catalog(name, params)
            fn = power_coeffs if spec.kind == "continuous" else falling_coeffs
            for n in range(6):
                assert fn(spec, n).coeffs[n] == 1, (name, n)

    def test_charlier1_n2(self):
        sc = falling_coeffs(catalog("charlier", mu=F(1)), 2)
        assert sc.coeffs == (1, -2, 1)
        assert sc.polynomial().to_basis(MONOMIAL) == Polynomial([1, -3, 1])

    def test_discrete_chebyshev_n1(self):
        N = F(9)
        sc = falling_coeffs(catalog("discrete-chebyshev", N=N), 1)
        assert sc.polynomial().to_basis(MONOMIAL) == Polynomial([1 - N, 2])

    def test_reconstruction_equals_generate(self):
        for name, spec in continuous_specs():
            polys = generate(spec, 12)
            for n in range(13):
                assert power_coeffs(spec, n).polynomial() == polys[n], (name, n)
        for name, spec in discrete_specs():
            polys = generate(spec, 12)
            for n in range(13):
                got = falling_coeffs(spec, n).polynomial().to_basis(MONOMIAL)
                assert got == polys[n], (name, n)

    def test_two_term_equals_three_term(self):
        for name, spec in discrete_specs():
            if spec.c != 0:
                continue
            for n in range(11):
                assert falling_coeffs(spec, n).coeffs == \
                    falling_coeffs_three_term(spec, n).coeffs, (name, n)

    def test_negative_degree_is_value_error(self):
        # n = -1 gave empty coefficients and n = -2 a bare IndexError; a k_n
        # rule that rejects a negative n itself raises its own ValueError first
        for name, params in iter_specs():
            spec = catalog(name, params)
            fns = ((power_coeffs,) if spec.kind == "continuous"
                   else (falling_coeffs, falling_coeffs_three_term))
            for fn in (*fns, series_polynomial):
                for n in (-1, -2):
                    with pytest.raises(ValueError):
                        fn(spec, n)
        for spec in (catalog("hermite"), catalog("charlier", mu=F(2))):
            for n in (-1, -2):
                with pytest.raises(ValueError, match=r"^series recurrence needs n >= 0$"):
                    series_polynomial(spec, n)
        with pytest.raises(ValueError, match="n >= 0"):
            descend(-1, F(1), "", lambda m: 1, lambda m: 1)
        assert descend(0, F(3), "", lambda m: 1, lambda m: 1) == [3]

    def test_even_odd_structure(self):
        # b = e = 0 families have C_m = 0 whenever n - m is odd
        for name in ("hermite", "gegenbauer"):
            spec = catalog(name, {} if name == "hermite" else {"alpha": F(3, 4)})
            for n in range(13):
                sc = power_coeffs(spec, n)
                for m in range(n + 1):
                    if (n - m) % 2 == 1:
                        assert sc[m] == 0, (name, n, m)


class TestClosedForms:
    def test_laguerre_descriptor(self):
        alpha = F(1, 2)
        desc = closed_form(catalog("laguerre", alpha=alpha))
        assert [e.render() for e in desc.upper] == ["-n"]
        assert desc.lower[0].value_at(0) == alpha + 1
        assert desc.argument.kind == "affine" and desc.argument.scale == 1
        for n in range(7):  # prefactor binom(n+alpha, n)
            assert desc.prefactor(n) == pochhammer(alpha + 1, n) / pochhammer(F(1), n)

    def test_charlier_descriptor(self):
        mu = F(2)
        desc = closed_form(catalog("charlier", mu=mu))
        assert [e.render() for e in desc.upper] == ["-n", "-x"]
        assert desc.lower == ()
        assert desc.argument.kind == "unit" and desc.argument.scale == -1 / mu
        assert all(desc.prefactor(n) == 1 for n in range(6))

    def test_hahn_descriptor(self):
        alpha, beta, N = F(1, 2), F(1, 3), F(12)
        desc = closed_form(catalog("hahn", alpha=alpha, beta=beta, N=N))
        lowers = sorted(e.value_at(0) for e in desc.lower)
        assert lowers == sorted([beta + 1, 1 - N])
        assert desc.argument.scale == 1
        for n in range(6):  # prefactor (-1)^n (beta+1)_n (N-n)_n / n!
            want = F(-1) ** n * pochhammer(beta + 1, n) * pochhammer(N - n, n) / \
                pochhammer(F(1), n)
            assert desc.prefactor(n) == want

    def test_hermite_symmetric_descriptor(self):
        desc = closed_form(catalog("hermite"))
        assert desc.step == 2
        assert desc.argument.kind == "reciprocal" and desc.argument.power == 2
        assert desc.argument.scale == -1

    def test_expansions_match_series(self):
        for name, spec in list(continuous_specs()) + list(discrete_specs()):
            try:
                desc = closed_form(spec)
            except UnsupportedRepresentation:
                continue
            fn = power_coeffs if spec.kind == "continuous" else falling_coeffs
            for n in range(11):
                assert expand_descriptor(desc, n).coeffs == fn(spec, n).coeffs, (name, n)

    def test_jacobi_has_no_origin_form(self):
        with pytest.raises(UnsupportedRepresentation):
            closed_form(catalog("jacobi", alpha=F(1, 2), beta=F(2)))

    def test_k_family_unsupported(self):
        with pytest.raises(UnsupportedRepresentation):
            closed_form(catalog("k-family", alpha=F(3), beta=F(1, 2)))
        # falling factorials: a = b + d = e = 0, so p_n is one term
        with pytest.raises(UnsupportedRepresentation,
                           match=r"^p_n is the single term k_n x\^\(falling n\)$"):
            closed_form(catalog("falling-factorial"))

    def test_jacobi_shifted_representation(self):
        alpha, beta = F(1, 2), F(2)
        spec = catalog("jacobi", alpha=alpha, beta=beta)
        shifted = affine_transform(spec, F(-1, 2), F(1, 2))  # u = (1-x)/2
        desc = closed_form(shifted)
        uppers = sorted(e.render() for e in desc.upper)
        assert uppers == sorted(["-n", "n+7/2"])  # n + alpha + beta + 1
        assert desc.lower[0].value_at(0) == alpha + 1
        polys = generate(spec, 8)
        for n in range(8):
            in_u = expand_descriptor(desc, n).polynomial()
            assert in_u.compose_affine(F(-1, 2), F(1, 2)) == polys[n], n
            assert desc.prefactor(n) == pochhammer(alpha + 1, n) / pochhammer(F(1), n)

    def test_descriptor_json(self):
        data = descriptor_to_json(closed_form(catalog("charlier", mu=F(2))), 3)
        assert data["upper"] == ["-n", "-x"]
        assert data["argument"] == {"kind": "unit", "scale": "-1/2", "offset": "0"}
        assert data["prefactor"] == "1"

    def test_descriptor_json_of_non_rational_entries(self):
        # a formal or dual constant has no sign to pull out of it
        from opoly.algebra import Dual
        from opoly.families import FamilySpec, MONIC
        t = RationalFunction.parameter()
        spec = FamilySpec("continuous", 1, 1, 0, t + 3, 0, MONIC)
        assert descriptor_to_json(closed_form(spec))["upper"] == ["-n", "n+(2 + 1*t)"]
        data = descriptor_to_json(closed_form(catalog("laguerre", alpha=Dual(F(1, 2), 1))))
        assert data["upper"] == ["-n"]
        assert data["lower"] == ["Dual(3/2, 1)"]
        assert data["argument"] == {"kind": "affine", "scale": "1", "offset": "0"}

    def test_irrational_roots_fall_back(self):
        # discrete, a != 0, quadratic with non-square discriminant
        from opoly.families import FamilySpec, MONIC
        spec = FamilySpec("discrete", -1, F(7), 0, -3, F(1), MONIC)
        with pytest.raises(UnsupportedRepresentation):
            closed_form(spec)
        # the recurrence route still works
        polys = generate(spec, 6)
        for n in range(7):
            assert falling_coeffs(spec, n).polynomial().to_basis(MONOMIAL) == polys[n]


def _in_basis_oracle(spec, n):
    target = Polynomial.monomial(n, 1, spec.basis()).to_basis(MONOMIAL)
    return tuple(expand_over(target, generate(spec, n)))


class TestInverseSeries:
    def test_hermite_x2(self):
        assert power_in_basis(catalog("hermite"), 2).coeffs == (F(1, 2), 0, F(1, 4))

    def test_monic_laguerre_x(self):
        alpha = F(1, 2)
        sc = power_in_basis(catalog("laguerre-monic", alpha=alpha), 1)
        assert sc.coeffs == (1 + alpha, 1)

    def test_bessel_n2_matches_oracle_and_closed_form(self):
        spec = catalog("bessel", alpha=F(1))
        assert power_in_basis(spec, 2).coeffs == _in_basis_oracle(spec, 2)
        # the closed form with the (-2)^n/(alpha+2)_n prefactor, monic variant
        alpha = F(1)
        monic = catalog("bessel-monic", alpha=alpha)
        for n in range(7):
            got = power_in_basis(monic, n)
            head = F(-2) ** n / pochhammer(alpha + 2, n)
            for m in range(n + 1):
                want = head * (pochhammer(F(-n), m) * pochhammer(alpha / 2 + 1, m)
                               * pochhammer(alpha / 2 + F(3, 2), m) * F(2) ** m
                               / (pochhammer(n + 2 + alpha, m) * pochhammer(F(1), m)))
                assert got[m] == want, (n, m)

    def test_charlier_desk_check(self):
        # x = -c_1 + c_0 for mu = 1
        sc = falling_in_basis(catalog("charlier", mu=F(1)), 1)
        assert sc.coeffs == (1, -1)

    def test_monic_n0(self):
        for name, params in iter_specs(monic=True):
            sc_fn = power_in_basis if catalog(name, params).kind == "continuous" \
                else falling_in_basis
            assert sc_fn(catalog(name, params), 0).coeffs == (1,)

    def test_krawtchouk_n2_matches_oracle(self):
        spec = catalog("krawtchouk", p=F(1, 2), N=F(12))
        assert falling_in_basis(spec, 2).coeffs == _in_basis_oracle(spec, 2)

    def test_matches_oracle_everywhere(self):
        for name, spec in continuous_specs():
            for n in range(9):
                assert power_in_basis(spec, n).coeffs == _in_basis_oracle(spec, n), (name, n)
        for name, spec in discrete_specs():
            for n in range(9):
                assert falling_in_basis(spec, n).coeffs == _in_basis_oracle(spec, n), (name, n)
        # raw discrete specs with a, c != 0, which no catalog family has: every
        # monomial of the three-term route is live
        from opoly.families import FamilySpec, MONIC
        for data in ((1, F(1, 2), F(1, 3), 3, F(2, 3)), (2, -1, F(-2, 3), F(1, 3), F(1, 2)),
                     (F(1, 3), F(-5, 4), 2, F(-7, 2), 1)):
            spec = FamilySpec("discrete", *data, MONIC, "raw")
            for n in range(9):
                assert falling_in_basis(spec, n).coeffs == _in_basis_oracle(spec, n), (data, n)

    def test_route_agreement(self):
        # (34) == (33), and (35) where a*b != 0 (shifted-Jacobi-like spec)
        from opoly.families import FamilySpec, MONIC
        raw = FamilySpec("continuous", -1, 1, 0, F(-9, 2), F(3, 2), MONIC)
        for n in range(9):
            two = _power_in_monic_two_term(raw, n)
            assert two == _power_in_monic_closed(raw, n), n
            assert two == _power_in_monic_three_term(raw, n), n
        lag = catalog("laguerre-monic", alpha=F(1, 2))
        for n in range(9):
            assert _power_in_monic_two_term(lag, n) == _power_in_monic_three_term(lag, n)
        # the discrete routes agree where c = 0
        for spec in (catalog("hahn-monic", alpha=F(1, 2), beta=F(1, 3), N=F(12)),
                     catalog("charlier-monic", mu=F(2)),
                     FamilySpec("discrete", 1, F(1, 2), 0, 3, F(2, 3), MONIC)):
            for n in range(9):
                two = _falling_in_monic_two_term(spec, n)
                assert two == _falling_in_monic_three_term(spec, n), (spec, n)

    def test_removable_closed_form_uses_two_term_route(self):
        # e = 0 makes (e/b)_m vanish: the closed route is 0/0, the two-term
        # route still has the unique expansion
        from opoly.families import FamilySpec, MONIC
        spec = FamilySpec("continuous", 1, 1, 0, 3, 0, MONIC)
        assert power_in_basis(spec, 3).coeffs == (0, F(1, 5), F(-6, 7), 1)
        polys = generate(spec, 8)
        for n in range(9):
            row = power_in_basis(spec, n)
            total = Polynomial.zero()
            for m in range(n + 1):
                total = total + polys[m].scale(row[m])
            assert total == Polynomial.monomial(n), n

    def test_closed_form_prefactor_pole_is_inadmissible(self):
        # (d/a)_n = 0 for d = -a: no route divides by it unguarded
        from opoly.families import AdmissibilityError, FamilySpec, MONIC
        spec = FamilySpec("continuous", 1, 1, 0, -1, 2, MONIC)
        with pytest.raises(AdmissibilityError):
            power_in_basis(spec, 3)

    def test_matrix_inverse_round_trip(self):
        # the matrices of forward and inverse coefficients are exact inverses
        for name, spec in list(continuous_specs()) + list(discrete_specs()):
            nmax = 10
            fwd = power_coeffs if spec.kind == "continuous" else falling_coeffs
            inv = power_in_basis if spec.kind == "continuous" else falling_in_basis
            fwd_rows = [fwd(spec, n) for n in range(nmax + 1)]
            inv_rows = [inv(spec, n) for n in range(nmax + 1)]
            for i in range(nmax + 1):
                for j in range(nmax + 1):
                    total = sum((fwd_rows[i][k] * inv_rows[k][j] for k in range(nmax + 1)),
                                start=F(0))
                    assert total == (1 if i == j else 0), (name, i, j)


class TestKFamilyRepresentation:
    def test_two_f_zero_form(self):
        # K_n = (-1)^n sum_m (-n)_m (x + (1+beta)/alpha)_m alpha^m / m!
        alpha, beta = F(3), F(1, 2)
        spec = catalog("k-family", alpha=alpha, beta=beta)
        polys = generate(spec, 7)
        shift = (1 + beta) / alpha
        x = Polynomial.x()
        for n in range(8):
            total = Polynomial.zero()
            for m in range(n + 1):
                term = Polynomial.const(pochhammer(F(-n), m) * alpha ** m / pochhammer(F(1), m))
                for j in range(m):
                    term = term * (x + Polynomial.const(shift + j))
                total = total + term
            assert total.scale(F(-1) ** n) == polys[n], n

    def test_confluent_form_in_rational_function_field(self):
        # K_n = (x + s)_n alpha^n 1F1(-n; 1 - x - n - s | -1/alpha), s = (1+beta)/alpha,
        # evaluated with x treated as a formal parameter (the lower Pochhammer
        # makes each term rational in x; the terminating sum is a polynomial)
        alpha, beta = F(2), F(1)
        spec = catalog("k-family", alpha=alpha, beta=beta)
        polys = generate(spec, 6)
        s = (1 + beta) / alpha
        x = RationalFunction.parameter()
        for n in range(6):
            head = pochhammer(x + s, n) * alpha ** n
            total = RationalFunction.const(0)
            for k in range(n + 1):
                den = pochhammer(1 - x - n - s, k) * pochhammer(F(1), k)
                total = total + pochhammer(F(-n), k) / den * (-1 / alpha) ** k
            value = head * total
            assert value.den == (F(1),), n  # a genuine polynomial in x
            got = Polynomial(list(value.num))
            assert got == polys[n], n
