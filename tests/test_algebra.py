import random
from fractions import Fraction as F

import pytest

from opoly.algebra import (
    FALLING,
    MONOMIAL,
    BasisError,
    Dual,
    Polynomial,
    RationalFunction,
    binomial,
    expand_over,
    format_rational,
    parse_rational,
    pochhammer,
)


def rand_fraction(rng, span=50):
    return F(rng.randint(-span, span), rng.randint(1, span))


def rand_poly(rng, max_deg, basis=MONOMIAL):
    deg = rng.randint(0, max_deg)
    return Polynomial([rand_fraction(rng) for _ in range(deg + 1)], basis)


class TestPolynomialArithmetic:
    def test_difference_of_squares(self):
        x = Polynomial.x()
        one = Polynomial.const(1)
        assert (x + one) * (x - one) == Polynomial([-1, 0, 1])

    def test_multiplication_by_zero_annihilates(self):
        p = Polynomial([3, 0, 2])
        assert (p * Polynomial.zero()).is_zero()

    def test_schoolbook_multiplication_oracle(self):
        # (2x^2+3) * x against an independent schoolbook convolution
        p, q = Polynomial([3, 0, 2]), Polynomial([0, 1])
        out = [F(0)] * 4
        for i, ci in enumerate(p.coeffs):
            for j, cj in enumerate(q.coeffs):
                out[i + j] += ci * cj
        assert p * q == Polynomial(out)
        assert p * q == Polynomial([0, 3, 0, 2])

    def test_random_products_match_schoolbook(self):
        rng = random.Random(1)
        for _ in range(50):
            p, q = rand_poly(rng, 8), rand_poly(rng, 8)
            out = [F(0)] * (p.degree() + q.degree() + 2)
            for i, ci in enumerate(p.coeffs):
                for j, cj in enumerate(q.coeffs):
                    out[i + j] += ci * cj
            assert p * q == Polynomial(out)

    def test_degree_adds_over_field(self):
        rng = random.Random(2)
        for _ in range(30):
            p, q = rand_poly(rng, 10), rand_poly(rng, 10)
            if p.is_zero() or q.is_zero():
                continue
            assert (p * q).degree() == p.degree() + q.degree()

    def test_basis_mismatch_rejected(self):
        p = Polynomial([1, 2])
        q = Polynomial([1, 2], FALLING)
        with pytest.raises(BasisError):
            p + q
        with pytest.raises(BasisError):
            p * q


class TestCalculusOperators:
    def test_derivative_power_rule(self):
        assert Polynomial([0, 0, 0, 1]).derivative() == Polynomial([0, 0, 3])
        assert Polynomial.const(7).derivative().is_zero()
        assert Polynomial([-2, 0, 4]).derivative() == Polynomial([0, 8])

    def test_derivative_rejects_falling_basis(self):
        with pytest.raises(BasisError):
            Polynomial([0, 1], FALLING).derivative()

    def test_delta_of_square(self):
        assert Polynomial([0, 0, 1]).delta() == Polynomial([1, 2])

    def test_delta_falling_factorial(self):
        # delta of x^(falling 3) is 3 x^(falling 2)
        assert Polynomial.monomial(3, 1, FALLING).delta() == Polynomial.monomial(2, 3, FALLING)

    def test_nabla_of_x(self):
        assert Polynomial.x().nabla() == Polynomial.const(1)

    def test_shift_definition(self):
        rng = random.Random(3)
        for _ in range(20):
            p = rand_poly(rng, 8)
            h = rng.randint(-3, 3)
            x0 = rand_fraction(rng)
            assert p.shift(h)(x0) == p(x0 + h)

    def test_shift_matches_evaluation(self):
        rng = random.Random(5)
        for h in range(-3, 4):
            for deg in range(13):
                p = Polynomial([rand_fraction(rng) for _ in range(deg + 1)])
                shifted = p.shift(h)
                for x0 in (F(0), F(1), F(-2), rand_fraction(rng), rand_fraction(rng)):
                    assert shifted(x0) == p(x0 + h), (h, deg, x0)

    def test_shift_rational_function_coefficients(self):
        t = RationalFunction.parameter()
        p = Polynomial([1 / (t + 1), t, F(2, 3), t * t])  # t^2 x^3 + 2/3 x^2 + t x + 1/(t+1)
        for h in range(-3, 4):
            shifted = p.shift(h)
            for x0 in (F(0), F(1, 2), F(-3)):
                assert shifted(x0) == p(x0 + h), (h, x0)

    def test_delta_nabla_operator_identity(self):
        # Delta Nabla = Delta - Nabla, exactly, degree <= 20
        rng = random.Random(4)
        for _ in range(15):
            p = rand_poly(rng, 20)
            assert p.nabla().delta() == p.delta() - p.nabla()


class TestBasisConversion:
    def test_square(self):
        assert Polynomial([0, 0, 1]).to_basis(FALLING) == Polynomial([0, 1, 1], FALLING)

    def test_degree_one_bases_coincide(self):
        assert Polynomial([0, 1], FALLING).to_basis(MONOMIAL) == Polynomial([0, 1])

    def test_cube_by_evaluation(self):
        converted = Polynomial([0, 0, 0, 1]).to_basis(FALLING)
        assert converted == Polynomial([0, 1, 3, 1], FALLING)
        for x0 in range(4):
            assert converted(F(x0)) == F(x0) ** 3

    def test_round_trip_identity_degree_30(self):
        rng = random.Random(5)
        for _ in range(10):
            p = rand_poly(rng, 30)
            assert p.to_basis(FALLING).to_basis(MONOMIAL) == p
            q = rand_poly(rng, 30, FALLING)
            assert q.to_basis(MONOMIAL).to_basis(FALLING) == q

    def test_delta_commutes_with_conversion(self):
        rng = random.Random(6)
        for _ in range(10):
            p = rand_poly(rng, 20)
            assert p.to_basis(FALLING).delta() == p.delta().to_basis(FALLING)


class TestExpandOver:
    def test_parts_in_any_order_with_a_zero_part(self):
        # -x^2 + 2x + 3 = -(x^2 + 1) + 0 * 0 + 2(x - 1) + 3 * 2
        parts = [Polynomial([1, 0, 1]), Polynomial.zero(), Polynomial([-1, 1]),
                 Polynomial.const(2)]
        assert expand_over(Polynomial([3, 2, -1]), parts) == [-1, 0, 2, 3]

    def test_target_outside_the_span(self):
        with pytest.raises(ValueError):
            expand_over(Polynomial([0, 0, 1]), [Polynomial.const(1), Polynomial.x()])


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(F(3), 0) == 1

    def test_half(self):
        assert pochhammer(F(1, 2), 3) == F(15, 8)

    def test_factor_hits_zero(self):
        assert pochhammer(F(-2), 3) == 0

    def test_binomial(self):
        assert binomial(F(7), 2) == 21
        assert binomial(F(1, 2), 2) == F(-1, 8)


class TestFieldAxioms:
    def test_rational_field_axioms_sampled(self):
        rng = random.Random(7)
        for _ in range(1000):
            a, b, c = (rand_fraction(rng, 10 ** 6) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if a != 0:
                assert a * (1 / a) == 1
            assert a + (-a) == 0


class TestRationalFunction:
    def test_normalization_monic_denominator(self):
        t = RationalFunction.parameter()
        r = (t + 1) / (t * t - 1)
        assert r.den[-1] == 1
        assert r == 1 / (t - 1)

    def test_division_by_nonzero_succeeds(self):
        rng = random.Random(8)
        t = RationalFunction.parameter()
        for _ in range(50):
            r = RationalFunction([rand_fraction(rng) for _ in range(3)],
                                 [rand_fraction(rng) for _ in range(2)] + [F(1)])
            s = t * rng.randint(1, 5) + rng.randint(1, 9)
            assert (r / s) * s == r

    def test_evaluation_commutes_with_arithmetic(self):
        rng = random.Random(9)
        t = RationalFunction.parameter()
        r = (2 * t + 3) / (t * t + 1)
        s = (t - F(1, 2)) / (t + 4)
        points = 0
        while points < 5:
            x0 = rand_fraction(rng, 20)
            try:
                r0, s0 = r.evaluate(x0), s.evaluate(x0)
            except ZeroDivisionError:
                continue
            points += 1
            assert (r + s).evaluate(x0) == r0 + s0
            assert (r * s).evaluate(x0) == r0 * s0
            assert (r - s).evaluate(x0) == r0 - s0
            if s0 != 0:
                assert (r / s).evaluate(x0) == r0 / s0

    def test_derivative_quotient_rule(self):
        t = RationalFunction.parameter()
        r = 1 / (t - 1)
        assert r.derivative() == -1 / ((t - 1) ** 2)
        assert (t ** 3).derivative() == 3 * t ** 2

    def test_pole_detection(self):
        t = RationalFunction.parameter()
        with pytest.raises(ZeroDivisionError):
            (1 / (t - 2)).evaluate(F(2))


def rand_dual(rng):
    return Dual(rand_fraction(rng), rand_fraction(rng))


class TestDual:
    def test_field_identities(self):
        rng = random.Random(10)
        for _ in range(50):
            x, y, z = rand_dual(rng), rand_dual(rng), rand_dual(rng)
            c = rng.choice([rng.randint(-9, 9), rand_fraction(rng)])
            assert (x + y) * z == x * z + y * z
            assert x - y == -(y - x)
            assert (x + c) - c == x and c + x == x + c and c - x == -(x - c)
            assert c * x == x * c and x * c == x * Dual(c)
            if x.v:
                assert (y / x) * x == y
                assert (c / x) * x == c
                assert x ** -2 * x ** 3 == x
                assert x ** -3 == 1 / (x * x * x)
            if c:
                assert (x / c) * c == x
            assert x ** 0 == 1 and x ** 1 == x
            assert x ** 4 == x * x * x * x

    def test_product_rule(self):
        # d/dt (t^2 + 1)^3 at t = 2 is 3 (t^2 + 1)^2 2t = 300
        t = Dual(2, 1)
        assert (t * t + 1) ** 3 == Dual(125, 300)

    def test_equality_compares_both_parts(self):
        eps = Dual(0, 1)
        assert eps != 0 and eps
        assert Dual(3, 0) == 3 == Dual(F(3)) and hash(Dual(3, 0)) == hash(F(3))
        assert Dual(3, 1) != 3 and not Dual(0, 0)
        assert Polynomial([1, Dual(0, 1)]).coeffs == (F(1), Dual(0, 1))
        assert Polynomial([Dual(0, 1)]).degree() == 0
        assert Polynomial([1, Dual(0, 0)]).degree() == 0

    def test_division_by_zero_value(self):
        for divide in (lambda: Dual(1, 1) / Dual(0, 3), lambda: 1 / Dual(0, 3),
                       lambda: Dual(0, 3) ** -1, lambda: Dual(1, 2) / 0):
            with pytest.raises(ZeroDivisionError):
                divide()

    def test_matches_rational_function_derivative(self):
        r = RationalFunction([1, 0, 1], [-2, 1])  # (t^2 + 1)/(t - 2)
        t = Dual(5, 1)
        q = (t * t + 1) / (t - 2)
        assert q == Dual(r.evaluate(5), r.derivative().evaluate(5))
        assert q.d == r.derivative().evaluate(5) == F(4, 9)


class TestSerialization:
    def test_rational_string_forms(self):
        assert format_rational(F(3, 4)) == "3/4"
        assert format_rational(F(-3, 4)) == "-3/4"
        assert format_rational(F(5)) == "5"
        assert parse_rational("-3/4") == F(-3, 4)
        assert parse_rational("17") == 17

    def test_decimals_rejected(self):
        with pytest.raises(ValueError):
            parse_rational("0.5")
        with pytest.raises(ValueError):
            parse_rational("1e3")
