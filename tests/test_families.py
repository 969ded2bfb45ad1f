from fractions import Fraction as F

import pytest

from opoly.algebra import Polynomial, factorial, pochhammer
from opoly.families import (
    AdmissibilityError,
    FamilySpec,
    LeadingRule,
    MONIC,
    affine_transform,
    catalog,
    lambda_n,
    spec_from_json,
    spec_to_json,
)
from opoly.cli import run
from opoly.connection import exact_parameter_derivative
from opoly.structure import admissibility, generate

from conftest import FAMILY_POINTS, iter_specs


class TestLambdaN:
    def test_hermite(self):
        assert lambda_n(catalog("hermite"), 3) == 6

    def test_any_spec_at_zero(self):
        for name, params in iter_specs():
            assert lambda_n(catalog(name, params), 0) == 0

    def test_jacobi(self):
        spec = catalog("jacobi", alpha=F(1), beta=F(2))
        assert (spec.a, spec.d) == (-1, -5)
        assert lambda_n(spec, 2) == 12


class TestCatalog:
    def test_charlier_data(self):
        spec = catalog("charlier", mu=F(2))
        assert spec.kind == "discrete"
        assert spec.abcde() == (0, 1, 0, -1, 2)
        assert spec.k(3) == F(-1, 2) ** 3

    def test_hermite_data(self):
        spec = catalog("hermite")
        assert spec.kind == "continuous"
        assert spec.abcde() == (0, 0, 1, -2, 0)
        assert spec.k(5) == 32

    def test_k_family_data(self):
        spec = catalog("k-family", alpha=F(3), beta=F(1, 2))
        assert spec.kind == "discrete"
        assert spec.abcde() == (0, 0, 1, 3, F(1, 2))
        assert spec.k(4) == 81

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            catalog("legendre")

    def test_wrong_parameters(self):
        with pytest.raises(ValueError):
            catalog("laguerre", beta=F(1))

    def test_degenerate_standardization_rejected(self):
        # k_1 = 2 alpha vanishes for Gegenbauer at alpha = 0
        with pytest.raises(AdmissibilityError):
            generate(catalog("gegenbauer", alpha=F(0)), 3)

    def test_monic_variant_is_standard_over_kn(self):
        for name, params in iter_specs():
            spec = catalog(name, params)
            monic = catalog(name + "-monic", params)
            polys = generate(spec, 10)
            monic_polys = generate(monic, 10)
            for n in range(11):
                assert polys[n].scale(1 / spec.k(n)) == monic_polys[n], (name, n)

    def test_equality_includes_the_leading_rule(self):
        hermite = catalog("hermite")
        scaled = FamilySpec("continuous", 0, 0, 1, -2, 0, hermite.leading, "x")
        unit = FamilySpec("continuous", 0, 0, 1, -2, 0, MONIC, "x")
        assert (scaled.k(3), unit.k(3)) == (8, 1)
        assert scaled != unit
        assert len({scaled, unit}) == 2
        assert scaled == FamilySpec("continuous", 0, 0, 1, -2, 0,
                                    LeadingRule(lambda n: F(2) ** n, "2^n"), "x")

    def test_leading_rule_needs_a_label(self):
        with pytest.raises(TypeError):
            LeadingRule(lambda n: F(2) ** n)

    def test_tau_degree_enforced(self):
        with pytest.raises(ValueError):
            FamilySpec("continuous", 0, 1, 0, 0, F(3, 2), MONIC)


def _k_or_error(spec, n):
    try:
        return spec.k(n)
    except AdmissibilityError as exc:
        return ("inadmissible", str(exc))


def _jacobi_k(alpha, beta, n):
    return pochhammer(alpha + beta + n + 1, n) / (F(2) ** n * factorial(n))


class TestLeadingMemo:
    """k_n is memoized on the spec instance; every read gives the closed form."""

    def test_repeated_reads_match_a_fresh_spec(self):
        for name, points in FAMILY_POINTS.items():
            spec = catalog(name, points[0])
            first = [_k_or_error(spec, n) for n in range(41)]
            again = [_k_or_error(spec, n) for n in range(41)]
            fresh = catalog(name, points[0])
            assert first == again == [_k_or_error(fresh, n) for n in range(41)], name

    def test_specs_of_one_family_do_not_share_values(self):
        half = catalog("jacobi", alpha=F(1, 2), beta=F(-1, 3))
        whole = catalog("jacobi", alpha=F(2), beta=F(3))
        for n in range(1, 21):
            assert half.k(n) == _jacobi_k(F(1, 2), F(-1, 3), n)
            assert whole.k(n) == _jacobi_k(F(2), F(3), n)
            assert half.k(n) != whole.k(n)

    def test_a_failing_rule_raises_on_every_call(self):
        spec = catalog("hahn-q", alpha=F(1), beta=F(2), N=F(5))
        for n in (6, 7):
            messages = set()
            for _ in range(3):
                with pytest.raises(AdmissibilityError) as exc:
                    spec.k(n)
                messages.add(str(exc.value))
            assert messages == {f"k_{n} has a vanishing denominator for family hahn-q"}
        assert spec.k(5) == F(9 * 10 * 11 * 12 * 13) / (F(-120) * 720)  # (9)_5/((-5)_5 (2)_5)

    def test_k_after_a_failed_k_is_a_closed_form(self):
        # rho_n = (2n-3)(2n-2) / (2(n+1)(n-3)): rho_1 = 0 and rho_3 has a pole,
        # yet k_4 exists, so no value after a failed k_j is stepped from it
        for degrees in (range(6), range(5, -1, -1)):
            spec = catalog("jacobi", alpha=F(-3, 2), beta=F(-5, 2))
            got = {n: _k_or_error(spec, n) for n in degrees}
            assert got == {0: 1, 1: -1, 2: ("inadmissible", "k_2 = 0 for family jacobi"),
                           3: ("inadmissible", "k_3 = 0 for family jacobi"),
                           4: F(1, 16), 5: F(3, 16)}

    def test_dual_data_keep_the_closed_form(self):
        # at n = 0 the Hahn ratio has the factor alpha + beta + 1, which k_0
        # lacks; at alpha = -1 as a dual number it is 0 + eps, not a unit
        row = exact_parameter_derivative("hahn", "alpha", 1,
                                         {"alpha": F(-1), "beta": F(0), "N": F(8)})
        assert row.coeffs == (7, 1)

    def test_wrapped_rules_read_the_base_values(self):
        alpha, beta = F(1, 2), F(-1, 3)
        spec = catalog("jacobi", alpha=alpha, beta=beta)
        shifted = affine_transform(spec, F(-1, 2), F(1, 2))
        for _ in range(2):
            for n in range(30):
                assert shifted.k(n) == _jacobi_k(alpha, beta, n) * F(-2) ** n


class TestEquation:
    def test_generated_polynomials_solve_the_equation(self):
        for name, params in iter_specs():
            spec = catalog(name, params)
            for n, p in enumerate(generate(spec, 10)):
                assert spec.apply_operator(p, n).is_zero(), (name, params, n)

    def test_operator_on_monomial_consistency(self):
        # lambda_n is minus the x^n coefficient of (sigma D^2 + tau D) x^n
        for name, params in iter_specs():
            spec = catalog(name, params)
            zero_spec = spec
            for n in range(16):
                x_n = Polynomial.monomial(n)
                if spec.kind == "continuous":
                    op = spec.sigma() * x_n.derivative().derivative() + spec.tau() * x_n.derivative()
                else:
                    op = spec.sigma() * x_n.delta().nabla() + spec.tau() * x_n.delta()
                assert lambda_n(zero_spec, n) == -op.coeff(n), (name, n)


class TestAdmissibility:
    def test_hermite_all_formulas_ok(self):
        assert admissibility(catalog("hermite"), 10).ok

    def test_gegenbauer_degenerate_alpha(self):
        # d + 2an = -(2 alpha + 1) - 2n vanishes at n = 1 for alpha = -3/2
        spec = FamilySpec("continuous", -1, 0, 1, 2, 0, MONIC, "gegenbauer(-3/2)")
        report = admissibility(spec, 10)
        assert not report.ok
        assert any(n == 1 for (_, n, _) in report.failures)

    def test_generation_aborts_with_structured_error(self):
        spec = FamilySpec("continuous", -1, 0, 1, 2, 0, MONIC)
        with pytest.raises(AdmissibilityError):
            generate(spec, 5)

    def test_vanishing_standardization_reported(self):
        # k_1 = 2 alpha vanishes for Gegenbauer at alpha = 0
        report = admissibility(catalog("gegenbauer", alpha=F(0)), 6)
        assert not report.ok
        assert any(formula == "leading" for (formula, _, _) in report.failures)
        # a raw rule with k_0 = 0: the series group is evaluated from n = 0
        spec = FamilySpec("continuous", 0, 1, 0, -1, F(3, 2),
                          LeadingRule(lambda n: F(n), "k_n = n"), "raw")
        assert admissibility(spec, 2, ("series",)).failures == (
            ("series", 0, "k_0 = 0 for family raw"), ("leading", 0, "k_0"))

    def test_failures_carry_the_formula_message(self, capsys):
        # Chebyshev T: C_1 of the recurrence is a 0/0 on the alpha + beta = -1 line
        spec = catalog("jacobi", alpha=F(-1, 2), beta=F(-1, 2))
        failures = admissibility(spec, 4, ("recurrence",)).failures
        assert failures[0][:2] == ("recurrence", 1)
        message = failures[0][2]
        assert message.startswith("C_1 denominator vanishes")
        assert run(["generate", "--family", "jacobi:alpha=-1/2,beta=-1/2", "--n-max", "4"]) == 2
        assert message in capsys.readouterr().err

    def test_derivative_system_degenerates_where_d_plus_2a_vanishes(self):
        # the derivatives satisfy an equation with tau = (d + 2a) x + e', which
        # loses its degree here; the derivative rule fails first at n = 1, 2
        for kind in ("continuous", "discrete"):
            spec = FamilySpec(kind, 1, F(1, 2), F(1, 3), -2, F(1, 5), MONIC, "raw")
            failures = admissibility(spec, 5, ("theorem1",)).failures
            assert failures == (
                ("theorem1", 1, "beta_1 denominator vanishes"),
                ("theorem1", 2, "beta_2 denominator vanishes"),
                *(("theorem1", n, "tau must have degree exactly 1 (d != 0)")
                  for n in (3, 4, 5)),
            ), kind
            # the derivative group is evaluated from n = 1
            assert admissibility(spec, 5, ("derivative",)).failures == (
                ("derivative", 1, "beta_1 denominator vanishes"),
                ("derivative", 2, "beta_2 denominator vanishes"),
            ), kind

    def test_standardization_pole_reported(self):
        # Hahn-Q k_n divides by (-N)_n, which vanishes for n > N
        spec = catalog("hahn-q", alpha=F(1), beta=F(2), N=F(5))
        assert spec.k(5) != 0
        with pytest.raises(AdmissibilityError):
            spec.k(6)
        report = admissibility(spec, 8)
        assert [(formula, n) for (formula, n, _) in report.failures
                if formula == "leading"] == [("leading", n) for n in range(6, 10)]


class TestAffineTransform:
    def test_jacobi_shift_kills_constant_term(self):
        spec = catalog("jacobi", alpha=F(1, 2), beta=F(2))
        shifted = affine_transform(spec, F(-1, 2), F(1, 2))  # u = (1-x)/2
        assert shifted.c == 0
        assert shifted.e == F(3, 2)  # alpha + 1
        # q_n(u) = p_n(1 - 2u)
        polys = generate(spec, 6)
        shifted_polys = generate(shifted, 6)
        for n in range(7):
            assert polys[n].compose_affine(F(-2), F(1)) == shifted_polys[n]

    def test_discrete_rejected(self):
        with pytest.raises(ValueError):
            affine_transform(catalog("charlier", mu=F(1)), F(1), F(1))

    def test_scale_and_offset_distinguish_specs(self):
        monomial = catalog("monomial")
        by_two = affine_transform(monomial, F(2), F(0))
        by_three = affine_transform(monomial, F(3), F(0))
        assert (by_two.k(2), by_three.k(2)) == (F(1, 4), F(1, 9))
        assert by_two != by_three
        assert by_two == affine_transform(monomial, F(2), F(0))


class TestSpecJson:
    def test_catalog_round_trip(self):
        spec = catalog("meixner", gamma=F(2), mu=F(1, 3))
        data = spec_to_json(spec)
        assert data["kind"] == "discrete"
        back = spec_from_json(data)
        assert back.abcde() == spec.abcde()
        assert back.k(5) == spec.k(5)

    def test_raw_monic_round_trip(self):
        spec = FamilySpec("continuous", 0, 1, 0, -1, F(3, 2), MONIC)
        back = spec_from_json(spec_to_json(spec))
        assert back.abcde() == spec.abcde()
        assert back.is_monic()
