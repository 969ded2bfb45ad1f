import contextlib
import io
from fractions import Fraction as F

import pytest

from opoly import connection
from opoly.algebra import Dual, Polynomial, RationalFunction, expand_over
from opoly.cli import run
from opoly.families import AdmissibilityError, catalog
from opoly.structure import generate, theorem1_coeffs, xpn_coeffs
from opoly.connection import (
    GENERAL,
    PARAMETER_DERIVATIVE_PAIRS,
    SAME_SIGMA,
    SAME_SIGMA_PLUS_TAU,
    UnsupportedConnection,
    closed_form_connection,
    compat,
    connect_oracle,
    ConnectionRow,
    connect_recurrence,
    exact_parameter_derivative,
    parameter_derivative,
    row_to_json,
)

from conftest import PD_POINTS

MONIC_PAIRS = [
    ("laguerre-monic", {"alpha": F(2)}, "laguerre-monic", {"alpha": F(0)}),
    ("laguerre-monic", {"alpha": F(1, 2)}, "laguerre-monic", {"alpha": F(-1, 3)}),
    ("gegenbauer-monic", {"alpha": F(3, 4)}, "gegenbauer-monic", {"alpha": F(5, 2)}),
    ("jacobi-monic", {"alpha": F(1, 2), "beta": F(1, 3)},
     "jacobi-monic", {"alpha": F(2), "beta": F(1, 3)}),
    ("jacobi-monic", {"alpha": F(1, 2), "beta": F(1, 3)},
     "jacobi-monic", {"alpha": F(1, 2), "beta": F(3)}),
    ("bessel-monic", {"alpha": F(1)}, "bessel-monic", {"alpha": F(3)}),
    ("charlier-monic", {"mu": F(2)}, "charlier-monic", {"mu": F(3)}),
    ("meixner-monic", {"gamma": F(2), "mu": F(1, 3)},
     "meixner-monic", {"gamma": F(5, 2), "mu": F(1, 3)}),
    ("meixner-monic", {"gamma": F(2), "mu": F(1, 3)},
     "meixner-monic", {"gamma": F(2), "mu": F(1, 5)}),
    ("krawtchouk-monic", {"p": F(1, 2), "N": F(12)},
     "krawtchouk-monic", {"p": F(1, 3), "N": F(12)}),
    ("krawtchouk-monic", {"p": F(1, 2), "N": F(9)},
     "krawtchouk-monic", {"p": F(1, 2), "N": F(12)}),
    ("hahn-monic", {"alpha": F(1, 2), "beta": F(1, 3), "N": F(12)},
     "hahn-monic", {"alpha": F(1, 2), "beta": F(3), "N": F(12)}),
    ("hahn-monic", {"alpha": F(1, 2), "beta": F(1, 3), "N": F(12)},
     "hahn-monic", {"alpha": F(2), "beta": F(1, 3), "N": F(12)}),
    ("hahn-q-monic", {"alpha": F(1), "beta": F(2), "N": F(12)},
     "hahn-q-monic", {"alpha": F(1), "beta": F(1, 2), "N": F(12)}),
    ("hahn-q-monic", {"alpha": F(1), "beta": F(2), "N": F(12)},
     "hahn-q-monic", {"alpha": F(3), "beta": F(2), "N": F(12)}),
    ("k-family-monic", {"alpha": F(3), "beta": F(1, 2)},
     "k-family-monic", {"alpha": F(3), "beta": F(2)}),
]


class TestOracle:
    def test_identity_connection(self):
        spec = catalog("jacobi", alpha=F(1, 2), beta=F(2))
        for n in range(6):
            row = connect_oracle(spec, spec, n)
            assert row[n] == 1
            assert all(row[m] == 0 for m in range(n))

    def test_laguerre_n1(self):
        alpha, beta = F(2), F(1, 3)
        row = connect_oracle(catalog("laguerre", alpha=alpha),
                             catalog("laguerre", alpha=beta), 1)
        assert row.coeffs == (alpha - beta, 1)

    def test_hermite_to_gegenbauer_regression(self):
        # cross-sigma pair; the oracle is the ground truth, value frozen
        row = connect_oracle(catalog("hermite"), catalog("gegenbauer", alpha=F(1)), 4)
        assert row.coeffs == (2, 0, -9, 0, 1)

    def test_reconstruction(self):
        p = catalog("jacobi", alpha=F(1, 2), beta=F(2))
        q = catalog("gegenbauer", alpha=F(3, 4))
        q_polys = generate(q, 7)
        p_polys = generate(p, 7)
        for n in range(8):
            row = connect_oracle(p, q, n)
            assert row.reconstruct(q_polys) == p_polys[n]

    def test_top_coefficient_is_k_ratio(self):
        p = catalog("meixner", gamma=F(2), mu=F(1, 3))
        q = catalog("charlier", mu=F(2))
        for n in range(7):
            assert connect_oracle(p, q, n)[n] == p.k(n) / q.k(n)


class TestRecurrenceRoute:
    def test_matches_oracle_on_compat_pairs(self):
        for pname, pp, qname, qp in MONIC_PAIRS:
            p, q = catalog(pname, pp), catalog(qname, qp)
            assert compat(p, q) in (SAME_SIGMA, SAME_SIGMA_PLUS_TAU)
            for n in range(9):
                got = connect_recurrence(p, q, n)
                want = connect_oracle(p, q, n)
                assert got.coeffs == want.coeffs, (pname, qname, n)

    def test_dual_pairs_match_the_oracle(self):
        # dual-number data on either side: the composition's pairs are field
        # elements, and the cross-product weights are not cleared to ints
        pairs = [(catalog("laguerre-monic", alpha=Dual(F(1, 2), 1)),
                  catalog("laguerre-monic", alpha=F(3))),
                 (catalog("jacobi-monic", alpha=Dual(F(1, 2), 1), beta=F(1, 3)),
                  catalog("jacobi-monic", alpha=F(2), beta=Dual(F(1, 3), 2)))]
        for p, q in pairs:
            for n in range(6):
                assert connect_recurrence(p, q, n) == connect_oracle(p, q, n), n

    def test_general_pairs_rejected(self):
        p, q = catalog("hermite-monic"), catalog("gegenbauer-monic", alpha=F(2))
        assert compat(p, q) == GENERAL
        with pytest.raises(UnsupportedConnection):
            connect_recurrence(p, q, 3)

    def test_non_monic_rejected(self):
        p = catalog("laguerre", alpha=F(2))
        q = catalog("laguerre", alpha=F(0))
        with pytest.raises(UnsupportedConnection):
            connect_recurrence(p, q, 3)
        # one monic side is not enough
        for pair in ((p.monic(), q), (p, q.monic())):
            with pytest.raises(UnsupportedConnection):
                connect_recurrence(*pair, 3)

    def test_charlier_matches_closed_form(self):
        mu, nu = F(2), F(3)
        p = catalog("charlier-monic", mu=mu)
        q = catalog("charlier-monic", mu=nu)
        for n in range(6):
            got = connect_recurrence(p, q, n)
            want = closed_form_connection("charlier-monic", n, mu=mu, nu=nu)
            assert got.coeffs == want.coeffs


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestRowFromEntries:
    """The Q side, weighed from the one composition's pairs, raises each
    relation's own message."""

    @pytest.mark.parametrize("src, dst, n, message", [
        ("raw:kind=continuous,a=1,b=0,c=0,d=-1,e=1,k=monic",
         "raw:kind=continuous,a=1,b=0,c=0,d=-3,e=0,k=monic", 4,
         "C_3 denominator vanishes for raw"),
        ("raw:kind=continuous,a=1,b=0,c=1,d=3,e=1,k=monic",
         "raw:kind=continuous,a=1,b=0,c=1,d=-5,e=0,k=monic", 6,
         "C_4 denominator vanishes for raw"),
    ])
    def test_a_vanishing_q_denominator_keeps_its_message(self, src, dst, n, message):
        code, out, err = _cli("connect", "--from", src, "--to", dst, "--n", str(n))
        assert (code, out, err) == (2, "", f"opoly: inadmissible spec: {message}\n")


class TestCrossRules:
    def _rows(self, p, q, n_max):
        return [connect_oracle(p, q, n) for n in range(n_max + 1)]

    def test_cross_rules_on_produced_rows(self):
        # (23): a_n C_m(n+1) + b_n C_m(n) + c_n C_m(n-1)
        #        = qa_{m-1} C_{m-1}(n) + qb_m C_m(n) + qc_{m+1} C_{m+1}(n)
        # (24): the same with the starred triples on both sides
        # (25): the same with the hatted triples (dependent on (23)-(24))
        cases = [
            (catalog("jacobi-monic", alpha=F(1, 2), beta=F(1, 3)),
             catalog("jacobi-monic", alpha=F(2), beta=F(1, 3))),
            (catalog("charlier-monic", mu=F(2)), catalog("charlier-monic", mu=F(3))),
            (catalog("hahn-monic", alpha=F(1, 2), beta=F(1, 3), N=F(12)),
             catalog("hahn-monic", alpha=F(2), beta=F(1, 3), N=F(12))),
        ]
        for p, q in cases:
            rows = self._rows(p, q, 8)

            def C(n, m):
                if n < 0 or m < 0 or m > n:
                    return F(0)
                return rows[n][m]

            for n in range(2, 8):
                pa = xpn_coeffs(p, n)
                star_p = theorem1_coeffs(p, n)["starred"]
                hat_p = theorem1_coeffs(p, n)["hatted"]
                for m in range(n + 2):
                    qa = xpn_coeffs(q, m) if m <= 8 else None
                    qa_prev = xpn_coeffs(q, m - 1) if m >= 1 else None
                    qa_next = xpn_coeffs(q, m + 1)
                    lhs = pa.hi * C(n + 1, m) + pa.mid * C(n, m) + pa.lo * C(n - 1, m)
                    rhs = (qa_prev.hi if qa_prev else F(0)) * C(n, m - 1) \
                        + qa.mid * C(n, m) + qa_next.lo * C(n, m + 1)
                    assert lhs == rhs, ("rule23", p.name, n, m)
                    if 1 <= m:
                        star_qm = theorem1_coeffs(q, m)["starred"]
                        star_prev = (theorem1_coeffs(q, m - 1)["starred"].hi
                                     if m >= 2 else F(0))
                        star_next = theorem1_coeffs(q, m + 1)["starred"].lo
                        lhs = star_p.hi * C(n + 1, m) + star_p.mid * C(n, m) \
                            + star_p.lo * C(n - 1, m)
                        rhs = star_prev * C(n, m - 1) + star_qm.mid * C(n, m) \
                            + star_next * C(n, m + 1)
                        assert lhs == rhs, ("rule24", p.name, n, m)
                        hat_qm = theorem1_coeffs(q, m)["hatted"]
                        # at index 0 the hatted relation reads Q_0 = a^_0 Q'_1,
                        # so a^_0 = k_0/k_1 (the other two slots multiply 0)
                        hat_prev = (theorem1_coeffs(q, m - 1)["hatted"].hi
                                    if m >= 2 else q.k(0) / q.k(1))
                        hat_next = theorem1_coeffs(q, m + 1)["hatted"].lo
                        lhs = hat_p.hi * C(n + 1, m) + hat_p.mid * C(n, m) \
                            + hat_p.lo * C(n - 1, m)
                        rhs = hat_prev * C(n, m - 1) + hat_qm.mid * C(n, m) \
                            + hat_next * C(n, m + 1)
                        assert lhs == rhs, ("rule25", p.name, n, m)


class TestClosedFormDegeneracies:
    def test_equal_parameters_give_identity(self):
        cases = [
            ("laguerre", {"alpha": F(2), "beta": F(2)}),
            ("gegenbauer", {"alpha": F(3, 4), "beta": F(3, 4)}),
            ("charlier", {"mu": F(2), "nu": F(2)}),
            ("meixner-mu", {"gamma": F(2), "mu": F(1, 3), "nu": F(1, 3)}),
            ("krawtchouk-p", {"p": F(1, 2), "q": F(1, 2), "N": F(12)}),
        ]
        for pair, params in cases:
            for n in range(5):
                row = closed_form_connection(pair, n, **params)
                assert row[n] == 1, (pair, n)
                assert all(row[m] == 0 for m in range(n)), (pair, n)

    def test_integer_shift_cancellation(self):
        # Bessel with alpha - beta a negative integer: the zero factors of the
        # n- and m-indexed Pochhammers must cancel, not divide by zero
        p = catalog("bessel", alpha=F(1))
        q = catalog("bessel", alpha=F(3))
        for n in range(7):
            got = closed_form_connection("bessel", n, alpha=F(1), beta=F(3))
            assert got.coeffs == connect_oracle(p, q, n).coeffs

    def test_unknown_pair(self):
        with pytest.raises(KeyError):
            closed_form_connection("hermite-shift", 3)


def _field_derivative_oracle(family, param, n, at):
    """d p_n / d param in the rational-function field: the family built with
    the parameter formal, each monomial coefficient of p_n differentiated as
    a rational function and evaluated at the point, then expanded over the
    family's own polynomials there.  An independent route to the dual-number
    oracle ``exact_parameter_derivative``."""
    formal = catalog(family, {k: RationalFunction.parameter() if k == param
                              else RationalFunction.const(v) for k, v in at.items()})
    d_coeffs = [c.derivative().evaluate(at[param]) if isinstance(c, RationalFunction)
                else F(0) for c in generate(formal, n)[n].coeffs]
    return tuple(expand_over(Polynomial(d_coeffs), generate(catalog(family, at), n)))


class TestParameterDerivatives:
    def test_dual_oracle_matches_field_route(self):
        for family, param in PARAMETER_DERIVATIVE_PAIRS:
            at = PD_POINTS[family.removesuffix("-monic")][0]
            for n in range(1, 5):
                got = exact_parameter_derivative(family, param, n, at)
                assert got.coeffs == _field_derivative_oracle(family, param, n, at), \
                    (family, param, n)

    @pytest.mark.parametrize("family, param, at, message", [
        ("jacobi", "alpha", {"alpha": F(-1, 2), "beta": F(-1, 2)},
         "C_1 denominator vanishes for jacobi"),
        ("hahn", "beta", {"alpha": F(-1, 3), "beta": F(-2, 3), "N": F(10)},
         "C_1 denominator vanishes for hahn"),
        ("bessel", "alpha", {"alpha": F(-1)}, "C_1 denominator vanishes for bessel"),
        ("hahn-q", "alpha", {"alpha": F(1), "beta": F(2), "N": F(2)},
         "k_3 has a vanishing denominator for family hahn-q"),
    ])
    def test_inadmissible_point_raises_the_numeric_message(self, family, param, at, message):
        with pytest.raises(AdmissibilityError) as exc:
            exact_parameter_derivative(family, param, 4, at)
        assert str(exc.value) == message

    @pytest.mark.parametrize("family, param, at, message", [
        ("jacobi", "alpha", "alpha=-1/2,beta=-1/2", "C_1 denominator vanishes for jacobi"),
        ("hahn", "beta", "alpha=-1/3,beta=-2/3,N=10", "C_1 denominator vanishes for hahn"),
        ("bessel", "alpha", "alpha=-1", "C_1 denominator vanishes for bessel"),
        ("hahn-q", "alpha", "alpha=1,beta=2,N=2",
         "k_3 has a vanishing denominator for family hahn-q"),
    ])
    def test_the_certificate_falls_back_to_the_numeric_message(self, monkeypatch, family,
                                                               param, at, message):
        # the first three printed rows have a pole there; a zero row in their
        # place reaches the certificate, which falls back to the oracle
        monkeypatch.setattr(connection, "parameter_derivative",
                            lambda family, param, n, at: ConnectionRow(n, (F(0),) * (n + 1)))
        code, out, err = _cli("param-deriv", "--family", family, "--param", param,
                              "--n", "4", "--at", at)
        assert (code, out, err) == (2, "", f"opoly: inadmissible spec: {message}\n")

    def test_laguerre_dalpha_n3(self):
        row = parameter_derivative("laguerre", "alpha", 3, {"alpha": F(2)})
        assert row.coeffs == (F(1, 3), F(1, 2), 1, 0)

    def test_charlier_dmu(self):
        mu = F(2)
        for n in range(1, 7):
            row = parameter_derivative("charlier", "mu", n, {"mu": mu})
            assert row[n - 1] == n / mu
            assert row[n] == -n / mu

    def test_krawtchouk_dp_matches_field_derivative(self):
        at = {"p": F(1, 2), "N": F(5)}
        for n in range(1, 6):
            got = parameter_derivative("krawtchouk", "p", n, at)
            want = exact_parameter_derivative("krawtchouk", "p", n, at)
            assert got.coeffs == want.coeffs

    def test_unknown_pair(self):
        with pytest.raises(KeyError):
            parameter_derivative("hermite", "alpha", 3, {})

    def test_n_zero_is_zero_row(self):
        assert parameter_derivative("laguerre", "alpha", 0, {"alpha": F(1)}).coeffs == (0,)


class TestRowJson:
    def test_shape(self):
        row = connect_oracle(catalog("laguerre", alpha=F(2)),
                             catalog("laguerre", alpha=F(0)), 2)
        data = row_to_json(row)
        assert data == {"n": 2, "coeffs": {"0": "3", "1": "2", "2": "1"}}
