import random
from fractions import Fraction as F
from functools import cache
from math import comb, gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from opoly.algebra import (
    FALLING,
    MONOMIAL,
    BasisError,
    Dual,
    Polynomial,
    RationalFunction,
    _pseudo_divmod,
    _Quotient,
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

    def test_unknown_basis_rejected(self):
        for coeff in (1, F(2, 3), Dual(1, 1)):
            with pytest.raises(BasisError, match="unknown basis 'bogus'"):
                Polynomial.monomial(2, coeff, "bogus")
        with pytest.raises(BasisError, match="unknown basis 'bogus'"):
            Polynomial([1, 2], "bogus")
        with pytest.raises(BasisError, match="unknown basis 'bogus'"):
            Polynomial([1, 2]).to_basis("bogus")


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


# ---------------------------------------------------------------------------
# Per-coefficient references for the integer kernels.  They work over any
# field element, so they also check the Dual and RationalFunction routes.
# ---------------------------------------------------------------------------

def ref_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_lin(p, q, s=1):
    """p + s q, coefficient by coefficient."""
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else F(0)) + s * (q[i] if i < len(q) else F(0))
            for i in range(n)]


def ref_mul(p, q):
    out = [F(0)] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


def ref_shift(p, h):
    """p(x + h) = sum_k c_k sum_i C(k, i) h^(k-i) x^i."""
    out = [F(0)] * len(p)
    for k, c in enumerate(p):
        for i in range(k + 1):
            out[i] = out[i] + c * (comb(k, i) * F(h) ** (k - i))
    return out


@cache
def stirling2(k, j):
    if k == j:
        return 1
    if j == 0 or j > k:
        return 0
    return j * stirling2(k - 1, j) + stirling2(k - 1, j - 1)


@cache
def stirling1(k, j):
    """Signed: x^(falling k) = sum_j s(k, j) x^j."""
    if k == j:
        return 1
    if j == 0 or j > k:
        return 0
    return stirling1(k - 1, j - 1) - (k - 1) * stirling1(k - 1, j)


def ref_to_falling(p):
    return [sum((c * stirling2(k, j) for k, c in enumerate(p)), F(0)) for j in range(len(p))]


def ref_to_monomial(p):
    return [sum((c * stirling1(k, j) for k, c in enumerate(p)), F(0)) for j in range(len(p))]


def ref_residual(target, parts):
    """What per-coefficient back-substitution over the parts leaves of target."""
    rem = list(target) + [F(0)] * max(max(map(len, parts), default=0) - len(target), 0)
    for part in sorted(map(ref_trim, parts), key=len, reverse=True):
        if part:
            value = rem[len(part) - 1] / part[-1]
            for j, c in enumerate(part):
                rem[j] = rem[j] - value * c
    return ref_trim(rem)


def assert_poly(poly, basis, coeffs):
    """poly holds exactly coeffs, as Fractions, with a canonical integer view."""
    want = ref_trim(coeffs)
    # compared before coeffs is read, while a kernel's result holds only its view
    assert poly == Polynomial(want, basis)
    assert poly != Polynomial(want[:-1] + (want[-1] + 1,) if want else (1,), basis)
    assert poly.degree() == len(want) - 1
    assert poly.basis == basis
    assert poly.coeffs == want
    assert all(type(c) is F for c in poly.coeffs)
    nums, den = poly._int_view()
    assert den > 0 and gcd(den, *nums) == 1
    assert tuple(F(c, den) for c in nums) == want
    assert hash(poly) == hash(Polynomial(want, basis))


NONZERO = st.builds(F, st.integers(-30, 30).filter(bool), st.integers(1, 12))
RATIONALS = st.one_of(st.just(F(0)), NONZERO)
COEFFS = st.lists(RATIONALS, max_size=7)


class TestIntegerKernels:
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(p=COEFFS, q=COEFFS, s=RATIONALS, h=st.integers(-2, 2))
    def test_kernels_match_per_coefficient_reference(self, p, q, s, h):
        P, Q = Polynomial(p), Polynomial(q)
        assert_poly(P * Q, MONOMIAL, ref_mul(p, q))
        assert_poly(P + Q, MONOMIAL, ref_lin(p, q))
        assert_poly(P - Q, MONOMIAL, ref_lin(p, q, -1))
        assert_poly(-P, MONOMIAL, [-c for c in p])
        assert_poly(P.scale(s), MONOMIAL, [c * s for c in p])
        assert_poly(P.shift(h), MONOMIAL, ref_shift(p, h))
        assert_poly(P.delta(), MONOMIAL, ref_lin(ref_shift(p, 1), p, -1))
        assert_poly(P.nabla(), MONOMIAL, ref_lin(p, ref_shift(p, -1), -1))
        assert_poly(P.derivative(), MONOMIAL, [k * c for k, c in enumerate(p)][1:])
        assert_poly(Polynomial.monomial(len(p), s), MONOMIAL, [F(0)] * len(p) + [s])
        # the kernels again, on polynomials that kernels built
        pq = ref_mul(p, q)
        assert_poly((P * Q - P.scale(s)).shift(h), MONOMIAL,
                    ref_shift(ref_lin(pq, [c * s for c in p], -1), h))
        assert_poly((P * Q).to_basis(FALLING), FALLING, ref_to_falling(pq))

        Pf, Qf = Polynomial(p, FALLING), Polynomial(q, FALLING)
        mono = ref_to_monomial(p)
        assert_poly(P.to_basis(FALLING), FALLING, ref_to_falling(p))
        assert_poly(Pf.to_basis(MONOMIAL), MONOMIAL, mono)
        assert_poly(Pf.to_basis(MONOMIAL).to_basis(FALLING), FALLING, p)
        assert_poly(Pf.delta(), FALLING, [k * c for k, c in enumerate(p)][1:])
        assert_poly(Pf.nabla(), FALLING, ref_to_falling(ref_lin(mono, ref_shift(mono, -1), -1)))
        assert_poly(Pf.shift(h), FALLING, ref_to_falling(ref_shift(mono, h)))
        assert_poly(Pf * Qf, FALLING, ref_to_falling(ref_mul(mono, ref_to_monomial(q))))
        assert_poly(Pf - Qf.scale(s), FALLING, ref_lin(p, q, -s))

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(raw=st.lists(COEFFS, max_size=5), zero_at=st.integers(0, 5),
           values=st.lists(NONZERO, min_size=6, max_size=6), extra=NONZERO)
    def test_expand_over_matches_back_substitution(self, raw, zero_at, values, extra):
        # parts of distinct degrees (a zero leading coefficient becomes 1), and a zero part
        parts = list({len(cs): cs[:-1] + [cs[-1] or F(1)] for cs in raw if cs}.values())
        degrees = [len(part) - 1 for part in parts]
        parts.insert(min(zero_at, len(parts)), [])
        values = [v if part else F(0) for v, part in zip(values, parts)]
        target = [F(0)]
        for v, part in zip(values, parts):
            target = ref_lin(target, part, v)
        polys = [Polynomial(part) for part in parts]
        built = Polynomial.zero()
        for v, poly in zip(values, polys):
            built = built + poly.scale(v)
        for tgt in (Polynomial(target), built):
            got = expand_over(tgt, polys)
            assert got == values and all(type(v) is F for v in got)

        # outside the span: the residual is the reference's, in the message
        missing = min(set(range(8)) - set(degrees))
        off = ref_lin(target, [F(0)] * missing + [extra])
        residual = ref_residual(off, parts)
        with pytest.raises(ValueError) as exc:
            expand_over(Polynomial(off), polys)
        assert str(exc.value) == ("target is not in the span of the parts; residual "
                                  f"{Polynomial(residual)!r}")
        if degrees:
            with pytest.raises(BasisError):
                expand_over(Polynomial(target), [Polynomial(part, FALLING) for part in parts])

    @pytest.mark.parametrize("a", [0, 3, -4, F(1, 2), F(-7, 3), F(-2), F(5, 4)])
    def test_pochhammer_of_rationals(self, a):
        for k in range(7):
            want = F(1)
            for j in range(k):
                want *= F(a) + j
            got = pochhammer(a, k)
            assert got == want and type(got) is F, (a, k)
        assert pochhammer(-4, 5) == 0 and pochhammer(F(-2), 3) == 0 and pochhammer(0, 1) == 0
        assert pochhammer(a, 0) == 1

    def test_dual_coefficients(self):
        p = [Dual(1, 2), Dual(F(1, 2), -1), F(3)]
        q = [F(-1), Dual(2, 1)]
        P, Q = Polynomial(p), Polynomial(q)
        assert (P * Q).coeffs == ref_trim(ref_mul(p, q))
        for h in range(-2, 3):
            assert P.shift(h).coeffs == ref_trim(ref_shift(p, h))
        parts = [Polynomial([1, 1, 1]), Polynomial([2, -1]), Polynomial.const(F(1, 3))]
        got = expand_over(P, parts)
        value = expand_over(Polynomial([c.v if isinstance(c, Dual) else c for c in p]), parts)
        slope = expand_over(Polynomial([c.d if isinstance(c, Dual) else 0 for c in p]), parts)
        assert got == [Dual(v, d) for v, d in zip(value, slope)]

    def test_rational_function_coefficients(self):
        t = RationalFunction.parameter()
        p = [1 / (t + 1), t, F(2, 3)]
        q = [t, F(1)]
        P, Q = Polynomial(p), Polynomial(q)
        assert (P * Q).coeffs == ref_trim(ref_mul(p, q))
        for h in range(-2, 3):
            assert P.shift(h).coeffs == ref_trim(ref_shift(p, h))
        parts = [Polynomial([1, 1, 1]), Polynomial([2, -1]), Polynomial.const(F(1, 3))]
        got = expand_over(P, parts)
        for point in (F(0), F(1, 2), F(-3)):
            def at(c):
                return c.evaluate(point) if isinstance(c, RationalFunction) else c

            assert [at(v) for v in got] == expand_over(Polynomial(map(at, p)), parts)


def _quotient_value(q, n):
    """num(n) / den(n) from the quotient's Horner values: one Fraction where
    both are ints, None where den vanishes (a dual den of value 0 raises
    ZeroDivisionError), and num / den at a formal n."""
    num, den = q.values(n)
    if not den:
        return None
    return F(num, den) if type(num) is int and type(den) is int else num / den


class TestQuotient:
    # (n - 3)(2n + 1/2)(-2/3) over (n - 7)^2 (3/5)(n^2/4 - 25/4): the top
    # vanishes at n = 3, the bottom at n = 5 and n = 7 (and at n = -5)
    TOP = (Polynomial([-3, 1]), Polynomial([F(1, 2), 2]), F(-2, 3))
    BOTTOM = (Polynomial([-7, 1]), F(3, 5), Polynomial([F(-25, 4), 0, F(1, 4)]),
              Polynomial([-7, 1]))

    @staticmethod
    def product(factors, n):
        return prod((f(n) if isinstance(f, Polynomial) else f for f in factors), start=F(1))

    def test_of_factors_is_the_quotient_of_the_factor_values(self):
        q = _Quotient.of_factors(self.TOP, self.BOTTOM)
        for n in range(41):
            bottom = self.product(self.BOTTOM, n)
            want = self.product(self.TOP, n) / bottom if bottom else None
            got = _quotient_value(q, n)
            assert got == want and (got is None or type(got) is F), n
        assert [n for n in range(41) if _quotient_value(q, n) is None] == [5, 7]
        assert _quotient_value(q, 3) == 0
        t = RationalFunction.parameter()
        formal = _quotient_value(q, t)
        assert type(formal) is RationalFunction
        assert formal == self.product(self.TOP, t) / self.product(self.BOTTOM, t)

    # the same with dual coefficients, and one factor without: the bottom is
    # 0 + 2.4 eps at n = 5 and exactly 0 at n = 7, the top 0 + eps at n = 3
    DUAL_TOP = (Polynomial([Dual(-3, 1), 1]), Polynomial([F(1, 2), 2]), Dual(F(-2, 3), 4))
    DUAL_BOTTOM = (Polynomial([Dual(-5, 2), 1]), Dual(F(3, 5), -1), Polynomial([-7, 1]))

    def test_of_dual_factors_is_the_quotient_of_the_factor_values(self):
        q = _Quotient.of_factors(self.DUAL_TOP, self.DUAL_BOTTOM)
        for n in range(41):
            top, bottom = self.product(self.DUAL_TOP, n), self.product(self.DUAL_BOTTOM, n)
            if n == 5:  # no dual-number value: both raise
                assert bottom == Dual(0, F(-12, 5))
                for quotient in (lambda: _quotient_value(q, n), lambda: top / bottom):
                    with pytest.raises(ZeroDivisionError):
                        quotient()
                continue
            want = top / bottom if bottom else None
            got = _quotient_value(q, n)
            assert got == want and (got is None or type(got) is Dual), n
        assert [n for n in range(41) if n != 5 and _quotient_value(q, n) is None] == [7]
        assert _quotient_value(q, 3) == Dual(0, _quotient_value(q, 3).d) != 0


class TestScalarOperations:
    def test_scalar_sum_difference_and_power(self):
        p = Polynomial([F(1, 2), F(-3), F(2, 5)])
        assert p + 3 == 3 + p == Polynomial([F(7, 2), F(-3), F(2, 5)])
        assert p - F(1, 2) == Polynomial([0, F(-3), F(2, 5)])
        assert F(1, 2) - p == Polynomial([0, 3, F(-2, 5)])
        assert (p + Dual(1, 2)).coeffs == (Dual(F(3, 2), 2), F(-3), F(2, 5))
        assert Polynomial([1, 2], FALLING) - 1 == Polynomial([0, 2], FALLING)
        assert p ** 0 == Polynomial([1]) and p ** 1 == p and p ** 3 == p * p * p
        assert Polynomial.x(FALLING) ** 2 == Polynomial([0, 1, 1], FALLING)
        for bad in (lambda: p ** -1, lambda: p ** F(1, 2), lambda: p + "1"):
            with pytest.raises(TypeError):
                bad()

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(p=COEFFS, q=COEFFS, x=st.integers(-40, 40))
    def test_integer_point_matches_horner_at_a_fraction(self, p, q, x):
        for poly in (Polynomial(p), Polynomial(p) * Polynomial(q)):
            got = poly(x)
            assert got == poly(F(x)) and type(got) is F
            horner = F(0)
            for c in reversed(poly.coeffs):
                horner = horner * F(x) + c
            assert got == horner
        dual = Polynomial([Dual(1, 2)] + p)
        assert dual(x) == dual(F(x)) == Dual(1, 2) + x * Polynomial(p)(x)


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

    def test_a_constant_hashes_as_its_fraction(self):
        three = RationalFunction.const(3)
        assert three == F(3) and hash(three) == hash(F(3))
        assert len({three, F(3), 3}) == 1
        assert len({Polynomial([three]), Polynomial([3])}) == 1
        assert hash(RationalFunction.const(0)) == hash(F(0))
        t = RationalFunction.parameter()
        assert hash(t) == hash(((F(0), F(1)), (F(1),)))  # a non-constant keeps its hash
        assert hash(1 / t) == hash(((F(1),), (F(0), F(1))))

    def test_canonical_form_matches_the_euclidean_reference(self):
        rng = random.Random(21)
        for _ in range(80):
            common = [rand_fraction(rng, 9) for _ in range(rng.randint(2, 4))]
            common[-1] = common[-1] or F(1)
            num = [rand_fraction(rng, 9) for _ in range(rng.randint(0, 4))]
            den = [rand_fraction(rng, 9) for _ in range(rng.randint(0, 3))] + [F(rng.choice([-3, 1, 2]))]
            num, den = _ref_mul(num, common), _ref_mul(den, common)
            r = RationalFunction(num, den)
            assert (r.num, r.den) == _ref_canonical(num, den), (num, den)
            assert all(type(c) is F for c in r.num + r.den)
        with pytest.raises(AttributeError):
            r.num = ()

    def test_pseudo_division_identity(self):
        rng = random.Random(22)
        for _ in range(300):
            u = _ref_trim([rng.randint(-30, 30) for _ in range(rng.randint(0, 8))])
            v = [rng.randint(-30, 30) for _ in range(rng.randint(0, 4))] + [rng.choice([-7, -1, 1, 4])]
            q, r = _pseudo_divmod(u, v)
            k = max(len(u) - len(v) + 1, 0)
            assert len(r) < len(v) and (not r or r[-1])
            assert _ref_add(_ref_mul(q, v), r) == _ref_trim([v[-1] ** k * c for c in u])


# A per-coefficient Euclidean normalization over Fraction, independent of
# the integer pseudo-remainder route: the reference for the canonical form.

def _ref_trim(p):
    end = len(p)
    while end > 0 and p[end - 1] == 0:
        end -= 1
    return tuple(p[:end])


def _ref_add(p, q):
    n = max(len(p), len(q))
    return _ref_trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def _ref_mul(p, q):
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _ref_trim(out)


def _ref_divmod(p, q):
    rem = list(p)
    quot = [F(0)] * max(len(p) - len(q) + 1, 0)
    for i in range(len(rem) - len(q), -1, -1):
        factor = rem[i + len(q) - 1] / q[-1]
        quot[i] = factor
        for j, b in enumerate(q):
            rem[i + j] -= factor * b
    return _ref_trim(quot), _ref_trim(rem)


def _ref_canonical(num, den):
    """(num, den) over Fraction with den monic and gcd(num, den) = 1, by the
    Euclidean algorithm on Fraction coefficients."""
    a, b = _ref_trim([F(c) for c in num]), _ref_trim([F(c) for c in den])
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    num, den = _ref_divmod(num, a)[0], _ref_divmod(den, a)[0]
    return tuple(c / den[-1] for c in num), tuple(c / den[-1] for c in den)


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
