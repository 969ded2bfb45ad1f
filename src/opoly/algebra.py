"""Exact scalar and polynomial arithmetic.

Everything in this package is computed over exact rationals
(``fractions.Fraction``).  Two exact scalar types extend them: dual numbers
v + d*eps with eps^2 = 0 (``Dual``, which differentiates with respect to a
family parameter in forward mode), and univariate rational functions in one
formal parameter (``RationalFunction``).  No floating point is used
anywhere.

Polynomials are dense and univariate, and carry a basis tag: ``MONOMIAL``
(powers x^k) or ``FALLING`` (falling factorials x(x-1)...(x-k+1)).  The
difference operators delta/nabla/shift and the formal derivative act on
them exactly, and ``expand_over`` is the one triangular solve that writes a
polynomial over a basis of distinct degrees.

A polynomial over the rationals also has an integer view, the design of
FLINT's ``fmpq_poly``: integer numerators over one common denominator,
reduced so that the denominator is positive and shares no factor with all
the numerators.  Products, sums, scalings, the Taylor shift, both basis
conversions and the back-substitution of ``expand_over`` run on that view
with integer arithmetic only (fraction-free), and a polynomial they build
makes its ``Fraction`` coefficients only when they are read.  Dual-number
and rational-function coefficients take the per-coefficient route instead.

``RationalFunction`` holds its numerator and denominator as such
polynomials and computes on their integer views; a primitive
pseudo-remainder-sequence gcd, in integers, keeps it in lowest terms.

Each entry of a structure relation is an unreduced quotient of bare int
polynomials in n (``_Quotient`` of ``_IntPoly``), evaluated by one Horner
pass on each side (``_Quotient.at``); other data put field elements in the
same lists.  ``_IntPoly`` and ``Polynomial`` share one product loop and one
Taylor shift.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

Rational = Fraction

#: Field elements are rationals, dual numbers over the rationals, or rational
#: functions in one parameter.
FieldElement = Union[int, Fraction, "Dual", "RationalFunction"]

MONOMIAL = "monomial"
FALLING = "falling"


class BasisError(ValueError):
    """Raised when an operation gets a polynomial in the wrong basis."""


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"p"`` with integer p, q.  Decimals are rejected."""
    s = text.strip()
    if "." in s or "e" in s.lower():
        raise ValueError(f"not an exact rational: {text!r}")
    if "/" in s:
        num, _, den = s.partition("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def format_rational(value: Fraction) -> str:
    """Serialize as ``"p/q"``, or ``"p"`` when the denominator is 1."""
    if type(value) is not Fraction:
        value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def format_field(value: FieldElement) -> str:
    """``format_rational`` for a rational, the repr of any other field element."""
    if isinstance(value, (int, Fraction)):
        return format_rational(value)
    return repr(value)


def pochhammer(a: FieldElement, k: int) -> FieldElement:
    """Shifted factorial (a)_k = a(a+1)...(a+k-1), with (a)_0 = 1."""
    if k < 0:
        raise ValueError("pochhammer needs k >= 0")
    if isinstance(a, (int, Fraction)):
        # (p/q)_k = prod_j (p + jq) / q^k: one division, at the end
        p, q = a.numerator, a.denominator
        num = 1
        for j in range(k):
            num *= p + j * q
        return Fraction(num, q ** k)
    result: FieldElement = Fraction(1)
    for j in range(k):
        result = result * (a + j)
    return result


def factorial(n: int) -> Fraction:
    if n < 0:
        raise ValueError("factorial needs n >= 0")
    result = 1
    for j in range(2, n + 1):
        result *= j
    return Fraction(result)


def binomial(top: FieldElement, k: int) -> FieldElement:
    """Generalized binomial coefficient C(top, k) = (top-k+1)_k / k!."""
    if k < 0:
        raise ValueError("binomial needs k >= 0")
    return pochhammer(top - k + 1, k) / factorial(k)


def _pseudo_divmod(u: list[int], v: list[int]) -> tuple[list[int], list[int]]:
    """(q, r) with lead(v)^k u = q v + r and deg r < deg v, where
    k = max(deg u - deg v + 1, 0): pseudo-division of integer coefficient
    lists (v nonzero, no trailing zeros), in integers only."""
    m, lead = len(v), v[-1]
    r = list(u)
    q = [0] * max(len(u) - m + 1, 0)
    for i in range(len(q) - 1, -1, -1):
        c = r.pop()  # the entry at degree i + m - 1; i steps remain after this one
        q[i] = c * lead ** i
        r = [lead * x for x in r]
        for j in range(m - 1):
            r[i + j] -= c * v[j]
    while r and not r[-1]:
        r.pop()
    return q, r


def _primitive(p: list[int]) -> tuple[int, list[int]]:
    """(c, q) with p = c q, q primitive with a positive leading coefficient."""
    c = gcd(*p) if p[-1] > 0 else -gcd(*p)
    return c, [x // c for x in p]


def _primitive_gcd(u: list[int], v: list[int]) -> list[int]:
    """gcd of two primitive integer polynomials with positive leading
    coefficients, normalized the same way: the primitive pseudo-remainder
    sequence (Knuth, TAOCP vol. 2, section 4.6.1)."""
    if len(u) < len(v):
        u, v = v, u
    while len(v) > 1:
        r = _pseudo_divmod(u, v)[1]
        if not r:
            return v
        u, v = v, _primitive(r)[1]
    return [1]


def _exact_quotient(u: list[int], g: list[int]) -> list[int]:
    """u / g for a primitive g that divides u over the integers."""
    q = _pseudo_divmod(u, g)[0]
    power = g[-1] ** len(q)
    return [c // power for c in q]


class RationalFunction:
    """Rational function num(t)/den(t) over Fraction in one formal parameter.

    Normalized so that gcd(num, den) = 1 and den is monic; this makes
    equality a comparison of the two polynomials, and a constant equal to
    (and hashed as) its ``Fraction``.  Forms a field: any nonzero element
    has an inverse.  Numerator and denominator are rational ``Polynomial``s,
    so the arithmetic runs on their integer views (``num`` and ``den`` read
    them as tuples of ``Fraction``); the gcd is a primitive
    pseudo-remainder sequence in integers.  The parameter-derivative oracle
    uses ``Dual`` instead, which needs no gcd.  This field stays for what a
    dual number cannot do: carry a formal parameter through a removable
    0/0, which the planned limit route for removable singularities needs
    (ROADMAP.md), and the formal-x check of the series tests.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num: Iterable[Fraction] | Fraction | int = 0,
                 den: Iterable[Fraction] | Fraction | int = 1):
        num, den = self._as_poly(num), self._as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self._num, self._den = num, Polynomial.const(1)
            return
        (a, da), (b, db) = num._int_view(), den._int_view()
        ca, a = _primitive(a)
        cb, b = _primitive(b)
        g = _primitive_gcd(a, b)
        if len(g) > 1:
            a, b = _exact_quotient(a, g), _exact_quotient(b, g)
        s = Fraction(ca * db, cb * da * b[-1])  # num/den = s a / (b / lead(b))
        self._num = _from_ints([s.numerator * c for c in a], s.denominator, MONOMIAL)
        self._den = _from_ints(b, b[-1], MONOMIAL)

    @staticmethod
    def _as_poly(value) -> Polynomial:
        """A monomial-basis Polynomial with Fraction coefficients; a
        Polynomial argument is the arithmetic's own product or sum."""
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, RationalFunction):
            raise TypeError("nested RationalFunction")
        if isinstance(value, (int, Fraction)):
            return Polynomial.const(Fraction(value))
        return Polynomial(Fraction(c) for c in value)

    @property
    def num(self) -> tuple[Fraction, ...]:
        return self._num.coeffs

    @property
    def den(self) -> tuple[Fraction, ...]:
        return self._den.coeffs

    @classmethod
    def parameter(cls) -> "RationalFunction":
        """The formal parameter t itself."""
        return cls([0, 1])

    @classmethod
    def const(cls, value: Fraction | int) -> "RationalFunction":
        return cls(value)

    @staticmethod
    def _coerce(value) -> "RationalFunction":
        if isinstance(value, RationalFunction):
            return value
        if isinstance(value, (int, Fraction)):
            return RationalFunction(value)
        return NotImplemented  # type: ignore[return-value]

    def __bool__(self) -> bool:
        return not self._num.is_zero()

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._num == o._num and self._den == o._den

    def __hash__(self) -> int:
        if self._den.degree() == 0 and self._num.degree() < 1:
            return hash(self._num.coeff(0))
        return hash((self.num, self.den))

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RationalFunction(self._num * o._den + o._num * self._den, self._den * o._den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self._num, self._den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RationalFunction(self._num * o._den - o._num * self._den, self._den * o._den)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RationalFunction(self._num * o._num, self._den * o._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not o:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self._num * o._den, self._den * o._num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __pow__(self, exponent: int):
        if exponent < 0:
            return (1 / self) ** (-exponent)
        return RationalFunction(self._num ** exponent, self._den ** exponent)

    def derivative(self) -> "RationalFunction":
        """Formal derivative d/dt via the quotient rule."""
        num, den = self._num, self._den
        return RationalFunction(num.derivative() * den - num * den.derivative(), den * den)

    def evaluate(self, point: Fraction) -> Fraction:
        """Value at a rational point; raises ZeroDivisionError at a pole."""
        point = Fraction(point)
        den = self._den(point)
        if den == 0:
            raise ZeroDivisionError(f"pole at t = {point}")
        return self._num(point) / den

    def __repr__(self) -> str:
        def side(coeffs):
            if not coeffs:
                return "0"
            parts = []
            for i, c in enumerate(coeffs):
                if c == 0:
                    continue
                if i == 0:
                    parts.append(format_rational(c))
                elif i == 1:
                    parts.append(f"{format_rational(c)}*t")
                else:
                    parts.append(f"{format_rational(c)}*t^{i}")
            return " + ".join(parts) or "0"

        if self.den == (Fraction(1),):
            return side(self.num)
        return f"({side(self.num)})/({side(self.den)})"


def _dual(v: Fraction, d: Fraction) -> "Dual":
    """A Dual from two Fractions, without re-validating them."""
    out = object.__new__(Dual)
    out.v, out.d = v, d
    return out


class Dual:
    """Dual number v + d*eps over Fraction, with eps^2 = 0.

    Evaluating an expression at Dual(x, 1) gives its value at x in ``v`` and
    its exact first derivative there in ``d`` (forward-mode differentiation).
    Equality compares both parts, so a value-zero element with a nonzero
    derivative is not zero and ``Polynomial`` never trims it.  Dividing by an
    element whose value is 0 raises ZeroDivisionError, even when its
    derivative is not 0: the quotient has no dual-number value there.
    """

    __slots__ = ("v", "d")

    def __init__(self, v: Fraction | int = 0, d: Fraction | int = 0):
        self.v = Fraction(v)
        self.d = Fraction(d)

    def __bool__(self) -> bool:
        return bool(self.v) or bool(self.d)

    def __eq__(self, other) -> bool:
        if isinstance(other, Dual):
            return self.v == other.v and self.d == other.d
        if isinstance(other, (int, Fraction)):
            return not self.d and self.v == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.v) if not self.d else hash((self.v, self.d))

    def __neg__(self):
        return _dual(-self.v, -self.d)

    def __add__(self, other):
        if isinstance(other, Dual):
            return _dual(self.v + other.v, self.d + other.d)
        if isinstance(other, (int, Fraction)):
            return _dual(self.v + other, self.d)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return _dual(self.v - other.v, self.d - other.d)
        if isinstance(other, (int, Fraction)):
            return _dual(self.v - other, self.d)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return _dual(other - self.v, -self.d)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Dual):
            return _dual(self.v * other.v, self.v * other.d + self.d * other.v)
        if isinstance(other, (int, Fraction)):
            return _dual(self.v * other, self.d * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            if not other.v:
                raise ZeroDivisionError("division by a dual number of value 0")
            v = self.v / other.v
            return _dual(v, (self.d - v * other.d) / other.v)
        if isinstance(other, (int, Fraction)):
            return _dual(self.v / other, self.d / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return _dual(Fraction(other), Fraction(0)) / self
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return (1 / self) ** -exponent
        if exponent == 0:
            return _dual(Fraction(1), Fraction(0))
        head = self.v ** (exponent - 1)
        return _dual(head * self.v, exponent * head * self.d)

    def __repr__(self) -> str:
        return f"Dual({format_rational(self.v)}, {format_rational(self.d)})"


def as_field(value: FieldElement) -> FieldElement:
    """Promote plain ints to Fraction; pass Fraction, Dual and RationalFunction through."""
    if isinstance(value, int):
        return Fraction(value)
    return value


def _integer_view(coeffs: Sequence[FieldElement]) -> tuple:
    """(nums, den) with coeffs[i] = nums[i]/den, nums a list that is never
    changed and den the least common denominator; () when a coefficient is
    not rational (an int or a Fraction)."""
    if not all(type(c) is Fraction or type(c) is int for c in coeffs):
        return ()
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _check_basis(basis: str) -> None:
    if basis not in (MONOMIAL, FALLING):
        raise BasisError(f"unknown basis {basis!r}")


def _from_ints(nums: list[int], den: int, basis: str) -> "Polynomial":
    """The polynomial with coefficients nums[i]/den (den > 0), built from its
    integer view: trailing zeros trimmed and the content common to den and
    every numerator divided out.  Takes nums over; no caller may change it."""
    while nums and not nums[-1]:
        nums.pop()
    g = gcd(den, *nums)
    out = object.__new__(Polynomial)
    out._coeffs = None
    out._ints = ([c // g for c in nums] if g != 1 else nums, den // g)
    out.basis = basis
    return out


def _int_combination(basis: str, *terms: tuple[tuple, Fraction | int]) -> "Polynomial":
    """sum of s * nums/den over the terms ((nums, den), s), each s an int or a
    Fraction, in integer arithmetic over one common denominator."""
    den = lcm(*(d * s.denominator for (_, d), s in terms))
    out = [0] * max(len(nums) for (nums, _), _ in terms)
    for (nums, d), s in terms:
        factor = s.numerator * (den // (d * s.denominator))
        if factor:
            for i, c in enumerate(nums):
                out[i] += factor * c
    return _from_ints(out, den, basis)


def _convolve(left: Sequence, right: Sequence) -> list:
    """The coefficients of the product of two polynomials, lowest degree
    first: the one product loop, on ints or on any field elements."""
    out: list = [0] * (len(left) + len(right) - 1)
    for i, a in enumerate(left):
        if a:
            for j, b in enumerate(right, i):
                out[j] += a * b
    return out


def _taylor_shift(cs: list, h) -> list:
    """The coefficients of p(x + h) from those of p, lowest degree first,
    in place: pass i is a synthetic division by (x - h) that leaves the
    i-th Taylor coefficient at h in cs[i].  An integer h keeps integer
    coefficients integral."""
    for i in range(len(cs) - 1):
        for j in range(len(cs) - 2, i - 1, -1):
            cs[j] += h * cs[j + 1]
    return cs


class _IntPoly:
    """A polynomial with int coefficients ``c``, lowest degree first, and
    nothing else: no basis, no denominator, no content reduction.  It is the
    indeterminate n the bodies of ``families.polynomial_in_n`` and
    ``families.quotient_in_n`` run on, and ``_Quotient``s are quotients of
    it; non-rational data put field elements in the same list.  Supports
    +, -, * and ** with scalars and with itself, and the shift n -> n + h."""

    __slots__ = ("c",)

    def __init__(self, c: list[int]):
        self.c = c

    def __add__(self, other):
        a, b = self.c, other.c if type(other) is _IntPoly else [other]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return _IntPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return _IntPoly([-x for x in self.c])

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if type(other) is not _IntPoly:
            return _IntPoly([other * x for x in self.c])
        return _IntPoly(_convolve(self.c, other.c))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        out = _IntPoly([1])
        for _ in range(exponent):
            out = out * self
        return out

    def shift(self, h: int) -> "_IntPoly":
        """p(n + h)."""
        return _IntPoly(_taylor_shift(list(self.c), h))


def _expand(factors: Counter) -> _IntPoly:
    """The product of a multiset of factors (coefficient tuples), from the
    first factor on, one product loop per further factor."""
    out = None
    for key, power in factors.items():
        for _ in range(power):
            out = list(key) if out is None else _convolve(out, key)
    return _IntPoly([1] if out is None else out)


class _Quotient:
    """num / (the product of the multiset ``den``), with an int polynomial
    num and int polynomial factors in n (coefficient tuples), kept
    unreduced; non-rational data put their field elements in the same
    lists.  Each entry of a structure relation is one, built once per spec
    (``families.quotient_in_n``), and ``generate``, ``formula_triple`` and
    the connection rows read their Horner integers (``values``).

    A product adds the multisets, and a sum puts both terms over the
    union (the larger power of each factor), so no gcd is ever taken and
    the denominator vanishes exactly where one of its factors does.  A
    quotient divides by the divisor's numerator as one new factor.
    Equality compares the unreduced forms.
    """

    __slots__ = ("num", "den", "_horner")

    def __init__(self, num: _IntPoly, den: Counter):
        self.num, self.den = num, den
        self._horner = None  # num and the expanded den, highest degree first

    @staticmethod
    def of_factors(top: Iterable, bottom: Iterable) -> "_Quotient":
        """The product of ``top`` over the product of ``bottom``, each factor
        a field element, an ``_IntPoly`` in n (int, Fraction or field
        coefficients) or a bracket ``Polynomial`` of ``polynomial_in_n``,
        built from their integer views: each bottom factor stays a factor of
        its own, and the denominators of the top factors make one constant
        factor.  A factor with no integer view contributes its own
        coefficients over 1."""
        def view(f) -> tuple:
            if isinstance(f, Polynomial):
                return f._int_view() or (list(f.coeffs), 1)
            cs = f.c if type(f) is _IntPoly else [f]
            return _integer_view(cs) or (cs, 1)

        top, bottom = ([view(f) for f in side] for side in (top, bottom))
        num, scale, den = [1], 1, Counter()
        for nums, d in top:
            num, scale = _convolve(num, nums), scale * d
        for nums, d in bottom:
            num = [d * c for c in num]
            den[tuple(nums)] += 1
        if scale != 1:
            den[(scale,)] += 1
        return _Quotient(_IntPoly(num), den)

    @staticmethod
    def of(value) -> "_Quotient":
        """A quotient from a quotient or from one factor of ``of_factors``."""
        return value if type(value) is _Quotient else _Quotient.of_factors((value,), ())

    def __eq__(self, other) -> bool:
        if type(other) is not _Quotient:
            return NotImplemented
        return self.num.c == other.num.c and self.den == other.den

    def __add__(self, other):
        other = _Quotient.of(other)
        den = self.den | other.den
        return _Quotient(self.num * _expand(den - self.den)
                         + other.num * _expand(den - other.den), den)

    def __neg__(self):
        return _Quotient(-self.num, self.den)

    def __sub__(self, other):
        return self + -_Quotient.of(other)

    def __mul__(self, other):
        other = _Quotient.of(other)
        return _Quotient(self.num * other.num, self.den + other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _Quotient.of(other)
        return self * _Quotient(_expand(other.den), Counter({tuple(other.num.c): 1}))

    def __rtruediv__(self, other):
        return _Quotient.of(other) / self

    def shift(self, h: int) -> "_Quotient":
        """The quotient at n + h."""
        return _Quotient(self.num.shift(h), Counter(
            {tuple(_taylor_shift(list(key), h)): power for key, power in self.den.items()}))

    def values(self, n: FieldElement) -> tuple:
        """(num(n), den(n)) unreduced, ints at an int n for rational data:
        one Horner pass on the numerator and one on the expanded denominator."""
        horner = self._horner
        if horner is None:
            horner = self._horner = (self.num.c[::-1], _expand(self.den).c[::-1])
        top, bottom = horner
        num = den = 0
        for c in top:
            num = num * n + c
        for c in bottom:
            den = den * n + c
        return num, den

    def at(self, n: FieldElement) -> FieldElement | None:
        """The value at n from ``values``: one Fraction where both are ints,
        else num(n)/den(n), the same for dual data at an int n as at a formal
        n such as ``RationalFunction.parameter()``; None where the
        denominator vanishes (a dual one of value 0 raises ZeroDivisionError)."""
        num, den = self.values(n)
        if not den:
            return None
        return Fraction(num, den) if type(num) is int and type(den) is int else num / den


class Polynomial:
    """Dense univariate polynomial over an exact field, with a basis tag.

    ``coeffs[k]`` multiplies x^k in the monomial basis, or the falling
    factorial x(x-1)...(x-k+1) in the falling basis.  Trailing zeros are
    trimmed; the zero polynomial has an empty coefficient tuple and
    degree -1.  Instances are immutable.

    A polynomial with rational coefficients also has a private integer view
    ``(nums, den)``: coeffs[k] = nums[k]/den, den > 0 and
    gcd(den, *nums) = 1, so equal polynomials have equal views.  It is
    derived from ``coeffs`` once per instance, when a kernel first needs it.
    A kernel that computes on the view builds its result from integers and
    sets the view; ``coeffs``, the public tuple of ``Fraction``s, is then
    made from it once, on first access.  Dual-number and rational-function
    coefficients have no integer view, and every kernel takes its
    per-coefficient route for them.
    """

    __slots__ = ("_coeffs", "_ints", "basis")

    def __init__(self, coeffs: Iterable[FieldElement] = (), basis: str = MONOMIAL):
        _check_basis(basis)
        cs = [as_field(c) for c in coeffs]
        end = len(cs)
        while end > 0 and cs[end - 1] == 0:
            end -= 1
        self._coeffs: tuple[FieldElement, ...] | None = tuple(cs[:end])
        self._ints: tuple | None = None  # the integer view, once derived
        self.basis = basis

    @property
    def coeffs(self) -> tuple[FieldElement, ...]:
        cs = self._coeffs
        if cs is None:
            nums, den = self._ints
            cs = self._coeffs = tuple(Fraction(c, den) for c in nums)
        return cs

    def _int_view(self) -> tuple:
        """The integer view (nums, den), or () when a coefficient is not rational."""
        view = self._ints
        if view is None:
            view = self._ints = _integer_view(self._coeffs)
        return view

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, basis: str = MONOMIAL) -> "Polynomial":
        return cls((), basis)

    @classmethod
    def const(cls, value: FieldElement, basis: str = MONOMIAL) -> "Polynomial":
        return cls((value,), basis)

    @classmethod
    def x(cls, basis: str = MONOMIAL) -> "Polynomial":
        return cls((0, 1), basis)

    @classmethod
    def monomial(cls, degree: int, coeff: FieldElement = 1, basis: str = MONOMIAL) -> "Polynomial":
        """coeff * x^degree (or coeff * x^(falling degree))."""
        coeff = as_field(coeff)
        if type(coeff) is Fraction:
            _check_basis(basis)
            return _from_ints([0] * degree + [coeff.numerator], coeff.denominator, basis)
        return cls([0] * degree + [coeff], basis)

    # -- structure ---------------------------------------------------------

    def degree(self) -> int:
        cs = self._coeffs
        return len(cs if cs is not None else self._ints[0]) - 1

    def is_zero(self) -> bool:
        return self.degree() < 0

    def coeff(self, k: int) -> FieldElement:
        if not 0 <= k <= self.degree():
            return Fraction(0)
        if self._coeffs is None:
            nums, den = self._ints
            return Fraction(nums[k], den)
        return self._coeffs[k]

    def leading(self) -> FieldElement:
        return self.coeff(self.degree())

    def _require_same_basis(self, other: "Polynomial") -> None:
        if self.basis != other.basis:
            raise BasisError(f"basis mismatch: {self.basis} vs {other.basis}")

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other):
        """other in this basis, a scalar as a constant; else NotImplemented."""
        if isinstance(other, Polynomial):
            self._require_same_basis(other)
            return other
        if isinstance(other, (int, Fraction, Dual, RationalFunction)):
            return Polynomial.const(other, self.basis)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        u, v = self._int_view(), other._int_view()
        if u and v:
            return _int_combination(self.basis, (u, 1), (v, 1))
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial((self.coeff(i) + other.coeff(i) for i in range(n)), self.basis)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        u, v = self._int_view(), other._int_view()
        if u and v:
            return _int_combination(self.basis, (u, 1), (v, -1))
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial((self.coeff(i) - other.coeff(i) for i in range(n)), self.basis)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else other - self

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._require_same_basis(other)
            if self.basis == FALLING:
                prod = self.to_basis(MONOMIAL) * other.to_basis(MONOMIAL)
                return prod.to_basis(FALLING)
            if self.is_zero() or other.is_zero():
                return Polynomial.zero(self.basis)
            u, v = self._int_view(), other._int_view()
            if u and v:
                return _from_ints(_convolve(u[0], v[0]), u[1] * v[1], MONOMIAL)
            return Polynomial(_convolve(self.coeffs, other.coeffs), self.basis)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        result = Polynomial.const(1, self.basis)
        for _ in range(exponent):
            result = result * self
        return result

    def scale(self, scalar: FieldElement) -> "Polynomial":
        scalar = as_field(scalar)
        u = self._int_view()
        if u and type(scalar) is Fraction:
            return _int_combination(self.basis, (u, scalar))
        return Polynomial((c * scalar for c in self.coeffs), self.basis)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.basis != other.basis:
            self, other = self.to_basis(MONOMIAL), other.to_basis(MONOMIAL)
        if self._coeffs is None or other._coeffs is None:
            u, v = self._int_view(), other._int_view()
            if u and v:
                return u == v
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.to_basis(MONOMIAL).coeffs)

    # -- calculus and difference operators ----------------------------------

    def _lowered(self) -> "Polynomial":
        """sum_k k c_k e_{k-1}: d/dx on monomials, delta on falling factorials."""
        u = self._int_view()
        if u:
            nums, den = u
            return _from_ints([k * nums[k] for k in range(1, len(nums))], den, self.basis)
        return Polynomial((self.coeffs[k] * k for k in range(1, len(self.coeffs))), self.basis)

    def derivative(self) -> "Polynomial":
        """Formal d/dx; defined on the monomial basis only."""
        if self.basis != MONOMIAL:
            raise BasisError("derivative needs the monomial basis; use delta instead")
        return self._lowered()

    def shift(self, h: int) -> "Polynomial":
        """p(x + h), exactly, in the same basis."""
        if self.basis == FALLING:
            return self.to_basis(MONOMIAL).shift(h).to_basis(FALLING)
        u = self._int_view() if isinstance(h, int) else ()
        cs = _taylor_shift(list(u[0] if u else self.coeffs), h)
        return _from_ints(cs, u[1], MONOMIAL) if u else Polynomial(cs, MONOMIAL)

    def delta(self) -> "Polynomial":
        """Forward difference p(x+1) - p(x).

        In the falling basis this is diagonal: delta of x^(falling m) is
        m * x^(falling m-1).
        """
        if self.basis == FALLING:
            return self._lowered()
        return self.shift(1) - self

    def nabla(self) -> "Polynomial":
        """Backward difference p(x) - p(x-1)."""
        if self.basis == FALLING:
            return self.to_basis(MONOMIAL).nabla().to_basis(FALLING)
        return self - self.shift(-1)

    def compose_affine(self, scale: FieldElement, offset: FieldElement) -> "Polynomial":
        """p(scale * x + offset) on the monomial basis."""
        if self.basis != MONOMIAL:
            raise BasisError("compose_affine needs the monomial basis")
        acc = Polynomial.zero(MONOMIAL)
        arg = Polynomial((offset, scale), MONOMIAL)
        for c in reversed(self.coeffs):
            acc = acc * arg + c
        return acc

    # -- basis conversion ----------------------------------------------------

    def to_basis(self, target: str) -> "Polynomial":
        """The same polynomial in the target basis.

        Both conversions are Horner schemes with integer multipliers, so the
        integer view keeps its denominator.
        """
        _check_basis(target)
        if target == self.basis:
            return self
        u = self._int_view()
        cs = u[0] if u else self.coeffs
        acc: list = []
        for k in range(len(cs) - 1, -1, -1):
            nxt: list = [0] * (len(acc) + 1)
            for m, a in enumerate(acc):
                nxt[m + 1] += a
                if target == FALLING:  # x * x^(falling m) = x^(falling m+1) + m x^(falling m)
                    nxt[m] += a * m
                else:  # p = c_0 + x (c_1 + (x - 1)(c_2 + (x - 2)(...)))
                    nxt[m] -= a * k
            nxt[0] += cs[k]
            acc = nxt
        return _from_ints(acc, u[1], target) if u else Polynomial(acc, target)

    # -- evaluation -----------------------------------------------------------

    def __call__(self, point: FieldElement) -> FieldElement:
        """The value at point; at an integer point, Horner on the integer
        view (monomial basis), with one division at the end."""
        if self.basis == FALLING:
            point = as_field(point)
            total: FieldElement = Fraction(0)
            factor: FieldElement = Fraction(1)
            for k, c in enumerate(self.coeffs):
                if k > 0:
                    factor = factor * (point - (k - 1))
                total = total + c * factor
            return total
        u = self._int_view() if type(point) is int else ()
        cs = u[0] if u else self.coeffs
        if not cs:
            return Fraction(0)
        acc = cs[-1]  # Horner from the leading coefficient
        for c in reversed(cs[:-1]):
            acc = acc * point + c
        return Fraction(acc, u[1]) if u else acc

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        var = "x" if self.basis == MONOMIAL else "x_"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*{var}")
            else:
                parts.append(f"{c}*{var}^{k}")
        return " + ".join(parts)


def expand_over(target: Polynomial, parts: Sequence[Polynomial]) -> list[FieldElement]:
    """Coefficients v_i with target = sum_i v_i parts[i], by back-substitution.

    The nonzero parts, of distinct degree (which makes the v_i unique), are
    eliminated from the highest degree down.  A zero part gets the
    coefficient 0.  Raises ValueError when target is not in their span.

    Over the rationals the elimination is fraction-free: the residual is
    kept as integers over one denominator, and removing a part with integer
    view (P, d) and leading numerator l from a residual R/D whose entry at
    that degree is r gives (l R - r P)/(l D), r and l first divided by their
    gcd (signed so that l, and with it D, stays positive) and the result by
    its content.
    """
    values: list[FieldElement] = [Fraction(0)] * len(parts)
    order = sorted((i for i, part in enumerate(parts) if not part.is_zero()),
                   key=lambda i: -parts[i].degree())
    if any(parts[i].basis != target.basis for i in order):
        raise BasisError("expand_over needs the parts in the basis of the target")
    width = parts[order[0]].degree() + 1 if order else 0
    views = [part._int_view() for part in parts]
    base = target._int_view()
    if base and all(views[i] for i in order):
        rem, den = list(base[0]), base[1]  # the residual is rem/den
        rem += [0] * (width - len(rem))
        for i in order:
            nums, d = views[i]
            r, lead = rem[len(nums) - 1], nums[-1]
            if not r:
                continue
            values[i] = Fraction(r * d, den * lead)
            g = gcd(r, lead) if lead > 0 else -gcd(r, lead)  # keeps den > 0
            r, lead = r // g, lead // g
            rem = [lead * c for c in rem]
            for j, c in enumerate(nums):
                rem[j] -= r * c
            g = gcd(den * lead, *rem)
            den = den * lead // g
            rem = [c // g for c in rem]
        if any(rem):
            raise ValueError("target is not in the span of the parts; residual "
                             f"{_from_ints(rem, den, target.basis)!r}")
        return values
    rem = list(target.coeffs)  # the residual, updated in place
    rem += [Fraction(0)] * (width - len(rem))
    for i in order:
        part = parts[i]
        values[i] = value = rem[part.degree()] / part.leading()
        for j, c in enumerate(part.coeffs):
            rem[j] -= value * c
    if any(rem):
        raise ValueError("target is not in the span of the parts; residual "
                         f"{Polynomial(rem, target.basis)!r}")
    return values
