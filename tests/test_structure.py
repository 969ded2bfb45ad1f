from fractions import Fraction as F

import pytest

from opoly import structure
from opoly.algebra import Polynomial
from opoly.connection import connect_oracle, connect_recurrence
from opoly.families import AdmissibilityError, FamilySpec, LeadingRule, catalog
from opoly.structure import (
    antiderivative,
    antidifference,
    binomial_partial_sum,
    delta_rule_coeffs,
    derivative_rule_coeffs,
    formula_triples,
    generate,
    oracle_basis,
    oracle_triples,
    recurrence_coeffs,
    solve_equation,
    starred_coeffs,
    theorem1_coeffs,
    verify_structure,
)

from conftest import iter_specs


class TestRecurrenceCoeffs:
    def test_hermite(self):
        spec = catalog("hermite")
        for n in range(8):
            A, B, C = recurrence_coeffs(spec, n)
            assert (A, B, C) == (2, 0, 2 * n)

    def test_laguerre(self):
        spec = catalog("laguerre", alpha=F(1, 2))
        a = F(1, 2)
        for n in range(1, 8):
            A, B, C = recurrence_coeffs(spec, n)
            assert A == F(-1, n + 1)
            assert B == F(2 * n + 1, n + 1) + a / (n + 1)
            assert C == (n + a) / (n + 1)

    def test_charlier(self):
        mu = F(2)
        spec = catalog("charlier", mu=mu)
        for n in range(8):
            A, B, _ = recurrence_coeffs(spec, n)
            assert A == -1 / mu
            assert B == (n + mu) / mu

    def test_brute_force_equivalence(self):
        # formula triple == unique solution of the expanded linear system
        for name, params in iter_specs():
            spec = catalog(name, params)
            basis = oracle_basis(spec, 11)
            for n in range(11):
                assert tuple(recurrence_coeffs(spec, n)) == \
                    tuple(oracle_triples(spec, basis, n)["recurrence"]), (name, n)


class TestDerivativeRule:
    def test_hermite_gamma_is_2n(self):
        spec = catalog("hermite")
        for n in range(1, 8):
            alpha, beta, gamma = derivative_rule_coeffs(spec, n)
            assert (alpha, beta) == (0, 0)
            assert gamma == 2 * n  # H'_n = 2n H_{n-1}

    def test_laguerre_alpha_vanishes(self):
        spec = catalog("laguerre", alpha=F(2))
        for n in range(1, 8):
            assert derivative_rule_coeffs(spec, n).hi == 0  # a = 0 forces it

    def test_charlier_delta_rule_n1(self):
        spec = catalog("charlier", mu=F(3, 2))
        polys = generate(spec, 2)
        S, T, R = delta_rule_coeffs(spec, 1)
        lhs = (spec.sigma() + spec.tau()) * polys[1].delta()
        rhs = polys[2].scale(S) + polys[1].scale(T) + polys[0].scale(R)
        assert lhs == rhs


def _printed_continuous_starred(spec, n):
    a, b, c, d, e = spec.abcde()
    alpha = F(n, n + 1) * spec.k(n) / spec.k(n + 1)
    beta = (-2 * b * n * (a * n + d - a) + d * (b - e)) / ((d + 2 * a * n) * (d - 2 * a + 2 * a * n))
    s = (n - 1) * (a * n + d - a) * (4 * c * a - b * b) + a * e * e + d * d * c - b * e * d
    den = (d - 2 * a + 2 * a * n) ** 2 * (2 * a * n - 3 * a + d) * (2 * a * n - a + d)
    gamma = -s * n * (a * n + d - a) / den * spec.k(n) / spec.k(n - 1)
    return alpha, beta, gamma


class TestTheorem1:
    def test_hermite_hatted(self):
        spec = catalog("hermite")
        for n in range(1, 9):
            hat = theorem1_coeffs(spec, n)["hatted"]
            assert tuple(hat) == (F(1, 2 * (n + 1)), 0, 0)

    def test_laguerre_hatted(self):
        spec = catalog("laguerre", alpha=F(3))
        for n in range(1, 9):
            assert tuple(theorem1_coeffs(spec, n)["hatted"]) == (-1, 1, 0)

    def test_k_family_hatted(self):
        alpha = F(3)
        spec = catalog("k-family", alpha=alpha, beta=F(1, 2))
        for n in range(1, 9):
            hat = theorem1_coeffs(spec, n)["hatted"]
            assert tuple(hat) == (1 / (alpha * (n + 1)), -1, 0)

    def test_substitution_route_matches_printed_formulas(self):
        # continuous starred values against the explicit printed expressions
        for name, params in iter_specs():
            spec = catalog(name, params)
            if spec.kind != "continuous" or spec.a == 0 and spec.name == "monomial":
                continue
            for n in range(1, 11):
                got = theorem1_coeffs(spec, n)["starred"]
                alpha, beta, gamma = _printed_continuous_starred(spec, n)
                assert got.hi == alpha, (name, n)
                assert got.mid == beta, (name, n)
                if n >= 2:  # the n=1 value multiplies p'_0 = 0
                    assert got.lo == gamma, (name, n)

    def test_triples_match_oracle_solve(self):
        for name, params in iter_specs():
            spec = catalog(name, params)
            basis = oracle_basis(spec, 9)
            for n in range(2, 9):
                oracle = oracle_triples(spec, basis, n)
                got = theorem1_coeffs(spec, n)
                for key in ("starred", "primed", "hatted"):
                    assert tuple(got[key]) == tuple(oracle[key]), (name, n, key)

    def test_k_family_relations_hold(self):
        # the non-orthogonal system still satisfies every Theorem-1 relation
        spec = catalog("k-family", alpha=F(3), beta=F(1, 2))
        assert verify_structure(spec, 11).ok

    def test_differentiated_hatted_relation(self):
        # d/dx of p_n = a^ p'_{n+1} + b^ p'_n + c^ p'_{n-1} holds exactly too
        spec = catalog("jacobi", alpha=F(1, 2), beta=F(2))
        polys = generate(spec, 9)
        for n in range(1, 8):
            hat = theorem1_coeffs(spec, n)["hatted"]
            second = [p.derivative().derivative() for p in polys]
            lhs = polys[n].derivative()
            rhs = second[n + 1].scale(hat.hi) + second[n].scale(hat.mid) + second[n - 1].scale(hat.lo)
            assert lhs == rhs


class TestPerDegreeMemo:
    """k_n, Q_n and the base triples are kept per spec instance; failures are not."""

    @staticmethod
    def _count_sum_factor(monkeypatch):
        calls = []
        original = structure._sum_factor

        def counted(spec, n):
            calls.append((id(spec), n))
            return original(spec, n)

        monkeypatch.setattr(structure, "_sum_factor", counted)
        return calls

    def test_connection_row_evaluates_each_bracket_once(self, monkeypatch):
        calls = self._count_sum_factor(monkeypatch)
        p = catalog("jacobi-monic", alpha=F(1, 2), beta=F(1, 3))
        q = catalog("jacobi-monic", alpha=F(2), beta=F(1, 3))
        row = connect_recurrence(p, q, 16)
        # Q_16 on the P side, Q_1 .. Q_17 on the Q side
        assert sorted(calls) == sorted([(id(p), 16)] + [(id(q), j) for j in range(1, 18)])
        assert row.coeffs == connect_oracle(p, q, 16).coeffs

    def test_repeated_formula_triples_evaluate_each_bracket_once(self, monkeypatch):
        calls = self._count_sum_factor(monkeypatch)
        spec = catalog("hahn", alpha=F(1, 2), beta=F(1, 3), N=F(14))
        first = [formula_triples(spec, n) for n in range(1, 9)]
        again = [formula_triples(spec, n) for n in range(1, 9)]
        assert first == again
        assert calls == [(id(spec), n) for n in range(1, 9)]

    def test_failures_raise_their_own_message_on_every_call(self):
        # Chebyshev T: alpha + beta = -1 makes the lower bracket 0/0 at n = 1
        messages = {recurrence_coeffs: "C_1 denominator vanishes for jacobi",
                    derivative_rule_coeffs: "gamma_1 denominator vanishes",
                    starred_coeffs: "gamma_1 denominator vanishes",
                    theorem1_coeffs: "gamma_1 denominator vanishes"}
        for order in (list(messages), list(reversed(messages))):
            spec = catalog("jacobi", alpha=F(-1, 2), beta=F(-1, 2))
            for _ in range(2):
                for formula in order:
                    with pytest.raises(AdmissibilityError) as exc:
                        formula(spec, 1)
                    assert str(exc.value) == messages[formula]

    def test_equal_specs_keep_their_own_values(self):
        def spec(base):
            return FamilySpec("continuous", 0, 0, 1, -2, 0,
                              LeadingRule(lambda n: F(base) ** n, "same label"), "x")

        doubling, tripling = spec(2), spec(3)
        assert doubling == tripling and hash(doubling) == hash(tripling)
        assert (doubling.k(3), tripling.k(3), doubling.k(3)) == (8, 27, 8)
        got = [recurrence_coeffs(s, 3) for s in (doubling, tripling, doubling)]
        assert got == [recurrence_coeffs(spec(base), 3) for base in (2, 3, 2)]
        assert (got[0].hi, got[1].hi) == (2, 3)


class TestGenerate:
    def test_hermite_values(self):
        polys = generate(catalog("hermite"), 3)
        assert polys == [Polynomial([1]), Polynomial([0, 2]),
                         Polynomial([-2, 0, 4]), Polynomial([0, -12, 0, 8])]

    def test_monic_leading_coefficients(self):
        for name, params in iter_specs(monic=True):
            for n, p in enumerate(generate(catalog(name, params), 8)):
                assert p.leading() == 1, (name, n)

    def test_charlier_n2(self):
        polys = generate(catalog("charlier", mu=F(1)), 2)
        assert polys[2] == Polynomial([1, -3, 1])

    def test_generate_matches_equation_solver(self):
        for name, params in iter_specs():
            spec = catalog(name, params)
            for n, p in enumerate(generate(spec, 8)):
                assert p == solve_equation(spec, n), (name, n)


class TestVerifyStructure:
    def test_jacobi_all_zero(self):
        assert verify_structure(catalog("jacobi", alpha=F(1, 2), beta=F(-1, 3)), 10).ok

    def test_hermite_hatted_relation_n4(self):
        report = verify_structure(catalog("hermite"), 6, ("hatted",))
        assert all(c.ok for c in report.checks if c.n == 4)

    def test_meixner_relation_subset(self):
        report = verify_structure(
            catalog("meixner", gamma=F(2), mu=F(1, 3)), 8,
            ("equation", "derivative_rule", "delta_rule", "starred", "primed", "hatted"))
        assert report.ok
        relations = {c.relation for c in report.checks}
        assert relations == {"equation", "derivative_rule", "delta_rule",
                             "starred", "primed", "hatted"}


class TestAntiderivativeRepresentations:
    def test_gegenbauer(self):
        alpha = F(3, 4)
        spec = catalog("gegenbauer", alpha=alpha)
        for n in range(1, 8):
            hat = antiderivative(spec, n)
            assert tuple(hat) == (1 / (2 * (n + alpha)), 0, -1 / (2 * (n + alpha)))

    def test_discrete_chebyshev(self):
        N = F(9)
        spec = catalog("discrete-chebyshev", N=N)
        for n in range(1, 8):
            hat = antidifference(spec, n)
            assert tuple(hat) == (F(1, 2 * (2 * n + 1)), F(-1, 2),
                                  (n - N) * (n + N) / (2 * (2 * n + 1)))

    def test_kind_checks(self):
        with pytest.raises(ValueError):
            antiderivative(catalog("charlier", mu=F(1)), 2)
        with pytest.raises(ValueError):
            antidifference(catalog("hermite"), 2)

    def test_derivative_recovers_pn(self):
        for name, params in iter_specs():
            spec = catalog(name, params)
            polys = generate(spec, 11)
            for n in range(1, 11):
                if spec.kind == "continuous":
                    hat = antiderivative(spec, n)
                    big = polys[n + 1].scale(hat.hi) + polys[n].scale(hat.mid) \
                        + polys[n - 1].scale(hat.lo)
                    assert big.derivative() == polys[n], (name, n)
                else:
                    hat = antidifference(spec, n)
                    big = polys[n + 1].scale(hat.hi) + polys[n].scale(hat.mid) \
                        + polys[n - 1].scale(hat.lo)
                    assert big.delta() == polys[n], (name, n)


class TestBinomialSum:
    def test_identity_via_antidifference(self):
        for n in range(13):
            for m in range(13):
                lhs, rhs = binomial_partial_sum(n, m)
                assert lhs == rhs, (n, m)

    def test_against_direct_sum(self):
        from math import comb
        for n in range(8):
            for m in range(8):
                lhs, _ = binomial_partial_sum(n, m)
                assert lhs == sum(comb(n + k, k) for k in range(m + 1))
