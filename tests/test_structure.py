import hashlib
import sys
from collections import Counter
from fractions import Fraction as F

import pytest

from opoly import cli, structure
from opoly.algebra import Dual, Polynomial, RationalFunction, _IntPoly, _Quotient
from opoly.connection import connect_oracle, connect_recurrence
from opoly.families import MONIC, AdmissibilityError, FamilySpec, LeadingRule, _rule_ratio, catalog
from opoly.structure import (
    antiderivative,
    antidifference,
    binomial_partial_sum,
    delta_rule_coeffs,
    derivative_rule_coeffs,
    formula_triple,
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
from opoly.diagnostics import SAMPLE_SPECS

from conftest import DEGENERATE_POINTS, FAMILY_POINTS, iter_specs


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

    def test_formal_degree_on_monic_specs(self):
        # n = t, a rational function: every entry is a rational function of n
        # that takes the formula's value at each integer degree
        t = RationalFunction.parameter()
        for kind, name in (("continuous", "jacobi-monic"), ("discrete", "hahn-monic")):
            spec = catalog(name, alpha=F(1, 2), beta=F(1, 3),
                           **({"N": F(14)} if kind == "discrete" else {}))
            formal = recurrence_coeffs(spec, t)
            assert type(formal.mid) is RationalFunction
            for n in range(2, 9):
                values = tuple(c.evaluate(F(n)) if isinstance(c, RationalFunction) else c
                               for c in formal)
                assert values == tuple(recurrence_coeffs(spec, n)), (name, n)

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

    def test_one_triple_equals_the_full_call(self):
        # formula_triple(spec, what, n) computes only what it needs, and equals
        # theorem1_coeffs(spec, n)[what] in value or message, on fresh specs
        def outcome(call):
            try:
                return tuple(call())
            except (AdmissibilityError, ValueError) as exc:
                return type(exc), str(exc)

        def raw(kind):  # lambda_4 = -(4 * 3 - 3 * 4) = 0, though starred_coeffs succeeds
            return lambda: FamilySpec(kind, 1, 0, 1, -3, 0, MONIC, "raw")

        cases = [(raw(kind), [4]) for kind in ("continuous", "discrete")]
        cases.append((lambda: catalog("hahn-q", alpha=F(1, 2), beta=F(1, 3), N=F(3)), [3, 4, 5]))
        cases.append((lambda: catalog("jacobi", alpha=F(-1, 2), beta=F(-1, 2)), [1]))  # Chebyshev T
        cases += [(lambda name=name, params=params: catalog(name, params), range(1, 9))
                  for name, params in SAMPLE_SPECS]
        for fresh, degrees in cases:
            for n in degrees:
                for what in ("starred", "primed", "hatted"):
                    got = outcome(lambda: formula_triple(fresh(), what, n))
                    assert got == outcome(lambda: theorem1_coeffs(fresh(), n)[what]), (n, what)
        for kind in ("continuous", "discrete"):
            assert starred_coeffs(raw(kind)(), 4)
            for what in ("starred", "primed", "hatted"):
                assert outcome(lambda: formula_triple(raw(kind)(), what, 4)) == (
                    AdmissibilityError, "lambda_4 = 0; hatted triple undefined")

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


# raw data (a, b, c, d, e) with a = 1: d + 2a = 0, lambda_4 = 0, d on a
# root of the B_n denominator (d + 2an)(d - 2a + 2an) at n = 2, 3 and 5, 6,
# and on a root of D(n) at n = 3, 4 and 4, 5
RAW_POINTS = [(1, 0, 1, -2, 1), (1, 0, 1, -3, 0), (1, F(1, 2), 2, -4, F(1, 3)),
              (1, -1, 3, -10, 2), (1, 2, -1, -5, F(1, 2)), (1, 0, 1, -7, -1)]


def _frozen(read):
    """``read()`` as a tuple, or the exception's type name and message."""
    try:
        return tuple(read())
    except (AdmissibilityError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _frozen_outcomes():
    """Every outcome the frozen table pins, in a fixed order: ``formula_triple``
    for every relation at n = 1..60, read degree after degree on one fresh
    spec per relation as tabulate reads it, then ``starred_coeffs`` and
    ``theorem1_coeffs`` at n = 0..12, on every catalog family and its monic
    variant, on ``DEGENERATE_POINTS`` and their monic variants, on
    ``RAW_POINTS`` of both kinds and on a rule failing at k_0 alone; then
    ``recurrence_coeffs`` at n = 0..12 with the first parameter of every
    parametrized catalog point a ``Dual``."""
    points = [lambda name=name, params=params: catalog(name, params)
              for name, params in (*iter_specs(), *iter_specs(monic=True))]
    points += [lambda name=name, params=params: catalog(name, params)
               for base, params in DEGENERATE_POINTS for name in (base, base + "-monic")]
    points += [lambda kind=kind, data=data: FamilySpec(kind, *data, MONIC, "raw")
               for kind in ("continuous", "discrete") for data in RAW_POINTS]
    # a rule whose closed form fails at n = 0 alone, with a ratio defined there
    rule = LeadingRule(lambda n: F(2) ** n * n / n, "2^n n/n", lambda n: ((2,), ()))
    points.append(lambda: FamilySpec("continuous", 0, 0, 1, -2, 0, rule))
    out = []
    for fresh in points:
        for key in structure.RELATIONS:
            spec = fresh()
            out += [_frozen(lambda: formula_triple(spec, key, n)) for n in range(1, 61)]
        spec = fresh()
        out += [_frozen(lambda: starred_coeffs(spec, n)) for n in range(13)]
        spec = fresh()
        out += [_frozen(lambda: (tuple(t) for t in theorem1_coeffs(spec, n).values()))
                for n in range(13)]
    for name, params in FAMILY_POINTS.items():
        for point in params:
            if point:
                first = next(iter(point))
                spec = catalog(name, {**point, first: Dual(point[first], 1)})
                out += [_frozen(lambda: recurrence_coeffs(spec, n)) for n in range(13)]
    return out


class TestCompiledTheorem1:
    """``formula_triple``, tabulate's reader, and the public readers compose
    every relation once, from the entries' Horner values, with no compile
    and no second route."""

    def test_frozen_outcomes_at_every_point(self):
        # the sha256 of every value and message, recorded on the route that
        # composed each relation twice (per-degree Fraction chains beside the
        # Horner integers, each checked against the other at n = 1..60)
        outcomes = _frozen_outcomes()
        assert len(outcomes) == 45475
        assert hashlib.sha256(repr(outcomes).encode()).hexdigest() == \
            "a927e6f4e1c98cf017b9363ffd0acfd6c2169bee90c752a92a753d1fe4720564"

    def test_tabulate_builds_no_compile(self):
        # tabulate's reads keep only the entries, their brackets, the ratio
        # prefix and k_0 in the spec's memo: no compile, and no triple at
        # any degree (the n = 0 rows read the prefix too)
        spec = catalog("hahn", alpha=F(1, 2), beta=F(1, 3), N=F(14))
        for key, relation in structure.RELATIONS.items():
            for n in range(relation.start, 31):
                formula_triple(spec, key, n)
        per_degree = {(getattr(key[0], "__name__", key[0]), key[1])
                      for key, value in spec._memo.items()
                      if type(key) is tuple and not isinstance(value, (_Quotient, _IntPoly))}
        assert per_degree == {("_leading_coefficient", 0)}
        assert [key for key in spec._memo if type(key) is not tuple] == [structure._ratio_prefix]
        assert not hasattr(structure, "_compiled_theorem1")

    def test_tabulate_reads_k_once_per_spec(self, monkeypatch, capsys):
        # the ratio prefix replaces the k_{n-1}, k_n and k_{n+1} reads of each
        # degree, the n = 0 recurrence row's too: k_0 of the catalog lookup
        # and of the prefix
        calls = Counter()
        read = FamilySpec.k

        def counted(spec, n):
            calls[n] += 1
            return read(spec, n)

        monkeypatch.setattr(FamilySpec, "k", counted)
        for what, count in (("recurrence", 2), ("hatted", 2)):
            calls.clear()
            assert cli.run(["tabulate", "--family", "jacobi:alpha=7/3,beta=5/4",
                            "--what", what, "--n-max", "60"]) == 0
            capsys.readouterr()
            assert sum(calls.values()) == count, (what, calls)


class TestPerDegreeMemo:
    """k_n, rho_n and the base triples are kept per spec instance, and so are
    the bracket and entry polynomials in n; failures are not kept."""

    # the brackets the entries (quotients in n) are built from
    BRACKETS = ("_sum_factor", "_cn_denominator", "_linear_factor", "_b_numerator",
                "_b_denominator", "_beta_numerator")

    @classmethod
    def _count_bracket_reads(cls, monkeypatch):
        calls = []
        for name in cls.BRACKETS:
            def counted(spec, *rest, original=getattr(structure, name), name=name):
                value = original(spec, *rest)
                calls.append((id(spec), name, rest, type(value)))
                return value

            monkeypatch.setattr(structure, name, counted)
        return calls

    def test_connection_row_evaluates_each_bracket_once(self, monkeypatch):
        calls = self._count_bracket_reads(monkeypatch)
        p = catalog("jacobi-monic", alpha=F(1, 2), beta=F(1, 3))
        q = catalog("jacobi-monic", alpha=F(2), beta=F(1, 3))
        row = connect_recurrence(p, q, 16)
        # no bracket is read at a degree: only an entry's body reads them, as
        # bare polynomials in n, once per spec
        assert {spec for spec, *_ in calls} == {id(p), id(q)}
        assert all(kind is _IntPoly for *_, kind in calls)
        built = list(calls)
        assert connect_recurrence(p, q, 20).coeffs == connect_oracle(p, q, 20).coeffs
        assert calls == built  # four more degrees on each side, no more reads
        assert row.coeffs == connect_oracle(p, q, 16).coeffs

    def test_repeated_formula_triples_evaluate_each_bracket_once(self, monkeypatch):
        calls = self._count_bracket_reads(monkeypatch)
        spec = catalog("hahn", alpha=F(1, 2), beta=F(1, 3), N=F(14))
        formula_triples(spec, 2)  # reads every entry: the starred B at n - 1 = 1 too
        at_two = list(calls)
        assert all(kind is _IntPoly for *_, kind in at_two)
        first = [formula_triples(spec, n) for n in range(1, 9)]
        memo = dict(spec._memo)
        again = [formula_triples(spec, n) for n in range(1, 9)]
        assert first == again
        assert calls == at_two
        assert spec._memo.keys() == memo.keys()
        assert all(spec._memo[key] is value for key, value in memo.items())

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

    def test_failing_k_messages_do_not_depend_on_call_order(self):
        # Hahn-Q with N = 3: (-N)_n = 0 makes k_4, k_5, ... fail; each formula
        # names the first k_j it reads, whatever the memo already holds
        formulas = (recurrence_coeffs, derivative_rule_coeffs, starred_coeffs, theorem1_coeffs)
        first_k = {recurrence_coeffs: {5: 6, 4: 5, 3: 4},
                   derivative_rule_coeffs: {5: 5, 4: 4, 3: 4},
                   starred_coeffs: {5: 5, 4: 4, 3: 4},
                   theorem1_coeffs: {5: 5, 4: 4, 3: 4}}
        for order in (formulas, formulas[::-1]):
            for degrees in ((5, 4, 3, 2), (2, 3, 4, 5)):
                spec = catalog("hahn-q", alpha=F(1, 2), beta=F(1, 3), N=F(3))
                for n in degrees:
                    for formula in order:
                        if n == 2:
                            formula(spec, n)
                            continue
                        with pytest.raises(AdmissibilityError) as exc:
                            formula(spec, n)
                        j = first_k[formula][n]
                        assert str(exc.value) == \
                            f"k_{j} has a vanishing denominator for family hahn-q"

    def test_bracket_polynomials_are_built_once_per_spec_instance(self):
        def built(spec):
            # bracket polynomials and entry quotients; per-degree values
            # are neither
            return {key: value for key, value in spec._memo.items()
                    if isinstance(value, (_IntPoly, _Quotient))}

        def shifted_hermite():
            # a = b = 0: the derivatives' tau data (d + 2a, e + b) equal (d, e)
            return FamilySpec("continuous", 0, 0, 1, -2, 3)

        spec, twin = shifted_hermite(), shifted_hermite()
        for n in (1, 2):
            formula_triples(spec, n)
        first = built(spec)
        # nine brackets (lambda_n is composed from the data); B_n/A_n plain
        # and starred, beta_n, the three lower entries and the rule's term ratio
        assert sum(isinstance(v, _IntPoly) for v in first.values()) == 9
        assert sum(isinstance(v, _Quotient) for v in first.values()) == 7
        for n in range(3, 12):
            formula_triples(spec, n)
        assert built(spec).keys() == first.keys()
        assert all(built(spec)[key] is value for key, value in first.items())
        # the recurrence and starred B brackets and entries are equal here,
        # but never shared
        for body in (structure._b_numerator, structure._b_denominator, structure._b_quotient):
            plain, starred = (spec._memo[(body.__wrapped__, s)] for s in (False, True))
            assert plain is not starred
            assert (plain.c == starred.c if type(plain) is _IntPoly else plain == starred)
        # an equal spec builds its own
        assert twin == spec and not built(twin)
        formula_triples(twin, 2)
        assert built(twin).keys() == first.keys()
        assert all(built(twin)[key] is not value for key, value in first.items())

    def test_each_entry_body_runs_once_per_spec(self):
        # the integer path reads the spec's own entries: each body runs once,
        # however many degrees and routes read its entry
        bodies = {body.__wrapped__.__code__: body.__name__ for body in (
            structure._lower_entry, structure._b_quotient, structure._beta, _rule_ratio)}
        calls = Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in bodies:
                calls[bodies[frame.f_code]] += 1

        spec = catalog("hahn", alpha=F(1, 2), beta=F(1, 3), N=F(14))
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            for n in range(1, 12):
                formula_triples(spec, n)
                starred_coeffs(spec, n)
                for kind in structure.THEOREM1_KINDS:
                    formula_triple(spec, kind, n)
        finally:
            sys.setprofile(previous)
        assert spec._memo[structure._ratio_prefix]
        assert calls == {"_lower_entry": 3, "_b_quotient": 2, "_beta": 1, "_rule_ratio": 1}

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

    @pytest.mark.parametrize("name", sorted(FAMILY_POINTS))
    def test_generate_steps_on_the_entries_alone(self, monkeypatch, name):
        # at a generic point every step is one integer combination of the
        # entries' Horner ints: no recurrence_coeffs read, and, once the
        # entries are built, no Fraction made
        calls = []
        original = structure.recurrence_coeffs
        monkeypatch.setattr(structure, "recurrence_coeffs",
                            lambda spec, n: calls.append(n) or original(spec, n))
        params = dict(FAMILY_POINTS[name][0])
        if name == "hahn-q":  # (-N)_n vanishes from n = N + 1 on
            params["N"] = F(24)
        spec = catalog(name, params)
        generate(spec, 1)
        made = Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is F.__new__.__code__:
                made["Fraction"] += 1

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            polys = generate(spec, 20)
        finally:
            sys.setprofile(previous)
        assert calls == [] and not made
        assert [p.degree() for p in polys] == list(range(21))

    def test_generate_matches_equation_solver(self):
        for name, params in iter_specs():
            spec = catalog(name, params)
            for n, p in enumerate(generate(spec, 8)):
                assert p == solve_equation(spec, n), (name, n)


class TestSolveEquation:
    def test_degenerate_equation_is_named(self):
        # gegenbauer(-3/2): lambda_n = n(n - 3), so lambda_1 = lambda_2 and
        # lambda_0 = lambda_3; each degree names the first m below it
        spec = catalog("gegenbauer", alpha=F(-3, 2))
        assert solve_equation(spec, 0) == Polynomial([1])
        assert solve_equation(spec, 1) == Polynomial([0, -3])
        for n, m in ((2, 1), (3, 0)):
            with pytest.raises(AdmissibilityError) as exc:
                solve_equation(spec, n)
            assert str(exc.value) == f"degenerate equation: lambda_{m} = lambda_{n}"
        assert solve_equation(spec, 4) == Polynomial([F(3, 8), 0, F(-3, 4), 0, F(3, 8)])
        assert solve_equation(spec, 5) == Polynomial([0, F(3, 8), 0, F(-3, 4), 0, F(3, 8)])

    def test_operator_columns_once_per_spec_instance(self, monkeypatch):
        calls = []
        original = FamilySpec.apply_operator

        def counted(spec, y, n):
            calls.append((id(spec), y.degree(), n))
            return original(spec, y, n)

        monkeypatch.setattr(FamilySpec, "apply_operator", counted)
        first = catalog("laguerre", alpha=F(1, 2))
        second = catalog("laguerre", alpha=F(1, 2))
        assert first == second and first is not second
        basis = oracle_basis(first, 5)
        assert sorted(calls) == [(id(first), j, 0) for j in range(6)]
        assert oracle_basis(first, 5) == basis and len(calls) == 6
        # an equal spec computes its own columns
        assert oracle_basis(second, 5) == basis
        assert sorted(calls[6:]) == [(id(second), j, 0) for j in range(6)]


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


    @pytest.mark.parametrize("name, params", [
        ("jacobi", {"alpha": Dual(F(1, 2), 1), "beta": F(1, 3)}),
        ("hahn", {"alpha": Dual(F(1, 2), 1), "beta": F(1, 3), "N": F(14)}),
    ])
    def test_dual_parameter_spec(self, monkeypatch, name, params):
        # alpha = 1/2 + eps: the polynomials and triples carry Dual coefficients,
        # which have no integer view, so each residual is formed coefficient by
        # coefficient (and d/dx by Polynomial._lowered's per-coefficient route);
        # it must vanish in the value and in the d/dalpha part alike
        report = verify_structure(catalog(name, params), 6)
        assert report.ok and report.checks
        assert all(isinstance(c, Dual) for c in report.polys[3].coeffs)
        original = structure._read

        def broken(spec, key, n, alone=False):  # the starred mid at n = 3, wrong in d/dalpha only
            out = original(spec, key, n, alone)
            if (key, n) == ("starred", 3):
                out = structure.CoefficientTriple(out.hi, out.mid + Dual(0, 1), out.lo)
            return out

        monkeypatch.setattr(structure, "_read", broken)
        bad = verify_structure(catalog(name, params), 6).failures()
        assert [(c.relation, c.n) for c in bad] == [("starred", 3)]
        assert "Dual(0, " in bad[0].residual


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
