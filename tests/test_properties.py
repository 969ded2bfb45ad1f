"""Property tests: random raw specs with small rational coefficients, and
random command lines against the CLI contract."""

import contextlib
import functools
import hashlib
import importlib
import io
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from opoly import connection, diagnostics, series, structure
from opoly.algebra import Dual, Polynomial, RationalFunction, _IntPoly, expand_over, format_rational
from opoly.cli import parse_family, run
from opoly.connection import (
    PARAMETER_DERIVATIVE_PAIRS,
    ConnectionRow,
    UnsupportedConnection,
    compat,
    connect_oracle,
    connect_recurrence,
)
from opoly.diagnostics import SAMPLE_SPECS, structure_mismatches
from opoly.families import (
    CATALOG_NAMES,
    MONIC,
    AdmissibilityError,
    FamilySpec,
    LeadingRule,
    _N,
    _rule_ratio,
    affine_transform,
    catalog,
    catalog_params,
    lambda_n,
)
from opoly.structure import admissibility, generate, oracle_basis, solve_equation

from conftest import DEGENERATE_POINTS, FAMILY_POINTS

small_rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
nonzero_rationals = small_rationals.filter(lambda v: v != 0)
rarely = st.integers(0, 7).map(lambda v: v == 7)


@st.composite
def tau_slope(draw, a):
    """d != 0; for a != 0, about a third of the draws put d on -4a..3a, where
    the removable 0/0s of the formulas and the degenerate d + 2a = 0 lie."""
    if a != 0 and draw(st.integers(0, 2)) == 0:
        return a * draw(st.sampled_from((-4, -3, -2, -1, 1, 2, 3)))
    return draw(nonzero_rationals)


@st.composite
def raw_specs(draw):
    a, b, c, e = (draw(small_rationals) for _ in range(4))
    kind = draw(st.sampled_from(("continuous", "discrete")))
    return FamilySpec(kind, a, b, c, draw(tau_slope(a)), e, MONIC, "raw")


@settings(derandomize=True, database=None, deadline=None)
@given(spec=raw_specs(), n_max=st.integers(0, 6), data=st.data())
def test_raw_spec_formulas_and_oracles_agree(spec, n_max, data):
    # generate fails exactly where admissibility's recurrence group does
    expected_ok = admissibility(spec, max(n_max - 1, 0), ("recurrence",)).ok
    try:
        polys = generate(spec, n_max)
    except AdmissibilityError:
        assert not expected_ok
        return
    assert expected_ok

    # expand_over recovers the coefficients of a combination of the basis
    coeffs = data.draw(st.lists(small_rationals, min_size=n_max + 1, max_size=n_max + 1))
    target = polys[0].scale(coeffs[0])
    for c, p in zip(coeffs[1:], polys[1:]):
        target = target + p.scale(c)
    assert expand_over(target, polys) == coeffs

    # where every formula is defined, each explicit triple equals the oracle's
    if admissibility(spec, n_max + 1).ok:
        assert structure_mismatches(spec, oracle_basis(spec, n_max + 1), n_max) == []


def _mismatches_or_error(spec, basis, n_max, *verdict_args):
    try:
        return structure_mismatches(spec, basis, n_max, *verdict_args)
    except (AdmissibilityError, ValueError) as exc:
        return type(exc), str(exc)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(spec=st.one_of(raw_specs(), st.sampled_from(SAMPLE_SPECS).map(lambda p: catalog(*p))),
       n_max=st.integers(2, 8))
def test_verdicts_and_oracle_solves_report_the_same_mismatches(spec, n_max):
    # a zero residual on the oracle's own basis proves the oracle's triple
    try:
        report = structure.verify_structure(spec, n_max)
        basis = oracle_basis(spec, n_max + 1)
    except AdmissibilityError:
        return
    assert _mismatches_or_error(spec, basis, n_max, report.polys, report.verdicts) == \
        _mismatches_or_error(spec, basis, n_max)


def _oracle_calls(monkeypatch):
    calls = []
    original = diagnostics.oracle_triples

    def counted(spec, basis, n):
        calls.append(n)
        return original(spec, basis, n)

    monkeypatch.setattr(diagnostics, "oracle_triples", counted)
    return calls


@pytest.mark.parametrize("name, params", [
    ("jacobi", {"alpha": F(1, 2), "beta": F(-1, 3)}),
    ("hahn", {"alpha": F(1, 2), "beta": F(1, 3), "N": F(14)}),
])
def test_each_wrong_entry_is_reported_by_both_routes(monkeypatch, name, params):
    # one entry of one formula triple wrong, through the comparison's own
    # formula_triples only: the residuals cannot see it, and the verdict of
    # (key, n) no longer applies
    spec, n_max = catalog(name, params), 5
    report = structure.verify_structure(spec, n_max)
    basis = oracle_basis(spec, n_max + 1)
    calls = _oracle_calls(monkeypatch)
    assert structure_mismatches(spec, basis, n_max, report.polys, report.verdicts) == []
    assert calls == [n_max]  # every other degree read its verdicts
    original = structure.formula_triples
    for key in structure.formula_triples(spec, 1):
        for n in range(structure.RELATIONS[key].start, n_max + 1):
            for entry in range(2 if n == 1 and structure.RELATIONS[key].theorem1 else 3):
                def broken(s, m, key=key, n=n, entry=entry):
                    out = original(s, m)
                    if m == n:
                        values = list(out[key])
                        values[entry] += 1
                        out = {**out, key: structure.CoefficientTriple(*values)}
                    return out

                monkeypatch.setattr(diagnostics, "formula_triples", broken)
                got = structure_mismatches(spec, basis, n_max, report.polys, report.verdicts)
                want = structure_mismatches(spec, basis, n_max)
                assert got == want and [(k, m) for k, m, _, _ in got] == [(key, n)], (key, n)


def test_a_verdict_stands_only_for_the_triple_it_checked(monkeypatch):
    # verdicts that proved other triples than the formulas give: each (key, n)
    # is solved by the oracle instead, which finds nothing wrong
    spec, n_max = catalog("meixner", gamma=F(2), mu=F(1, 3)), 4
    report = structure.verify_structure(spec, n_max)
    basis = oracle_basis(spec, n_max + 1)
    shifted = {}
    for (key, n), (checked, _) in report.verdicts.items():
        other = structure.CoefficientTriple(checked.hi + 1, checked.mid, checked.lo)
        shifted[key, n] = other, other
    calls = _oracle_calls(monkeypatch)
    assert structure_mismatches(spec, basis, n_max, report.polys, shifted) == []
    assert calls == list(range(n_max)) + [n_max]


def test_a_wrong_entry_on_a_zero_part_is_reported_by_both_routes(monkeypatch):
    # C_0 multiplies p_{-1} = 0, so a wrong C_0 leaves every residual zero;
    # the oracle gives 0 there, and so does the verdict.  The lo of the
    # recurrence and of its flip xpn is made 1 at n = 0 in the one
    # composition every triple is read from
    original = structure._composed

    def broken(spec, key, n, alone=False):
        hi, mid, lo = original(spec, key, n, alone)
        return (hi, mid, (1, 1)) if key in ("recurrence", "xpn") and n == 0 else (hi, mid, lo)

    monkeypatch.setattr(structure, "_composed", broken)
    spec = catalog("laguerre", alpha=F(1, 2))
    report = structure.verify_structure(spec, 4)
    assert report.ok
    basis = oracle_basis(spec, 5)
    got = structure_mismatches(spec, basis, 4, report.polys, report.verdicts)
    assert got == structure_mismatches(spec, basis, 4)
    assert [(key, n, want.lo) for key, n, _, want in got] == [("recurrence", 0, 0),
                                                              ("xpn", 0, 0)]


def test_a_basis_that_differs_takes_the_oracle_route(monkeypatch):
    spec, n_max = catalog("charlier", mu=F(2)), 5
    report = structure.verify_structure(spec, n_max)
    basis = oracle_basis(spec, n_max + 1)
    polys = list(report.polys)
    polys[n_max + 1] = polys[n_max + 1].scale(2)  # unread by every verdict's relation
    calls = _oracle_calls(monkeypatch)
    assert structure_mismatches(spec, basis, n_max, polys, report.verdicts) == []
    assert calls == list(range(n_max + 1))
    # a wrong basis is solved over, and reported, as without verdicts
    basis[3] = basis[3].scale(2)
    assert _mismatches_or_error(spec, basis, n_max, report.polys, report.verdicts) == \
        _mismatches_or_error(spec, basis, n_max)
    assert calls[n_max + 1:] == list(range(n_max + 1)) * 2


def _basis_or_error(route):
    try:
        return route()
    except (AdmissibilityError, ValueError) as exc:
        return type(exc), str(exc)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(spec=raw_specs(), n_max=st.integers(2, 7))
def test_verify_takes_the_oracle_basis(spec, n_max):
    # where verify_structure gets past generate and the formulas, the
    # equation residuals prove its basis to be the solved one
    try:
        generate(spec, n_max + 1)
    except AdmissibilityError:
        return
    try:
        report = structure.verify_structure(spec, n_max)
    except AdmissibilityError:
        return  # a formula fails: verify stops before it reads a basis
    assert report.solves_equation
    assert _basis_or_error(lambda: structure.equation_basis(spec, report)) == \
        _basis_or_error(lambda: oracle_basis(spec, n_max + 1))


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(spec=raw_specs(), m=st.integers(0, 6), gap=st.integers(1, 6))
def test_degenerate_eigenvalues_stop_generate_first(spec, m, gap):
    # lambda_m = lambda_n, m < n, is a(m + n - 1) + d = 0: a factor of the
    # denominator of B_j (m + n - 1 = 2j) or of C_j (m + n = 2j) for some
    # 1 <= j <= n - 1, so generate fails before the solver's check is read
    n = m + gap
    if spec.a == 0 or n == 1:  # lambda_0 = lambda_1 needs d = 0
        return
    spec = FamilySpec(spec.kind, spec.a, spec.b, spec.c, -spec.a * (m + n - 1), spec.e,
                      MONIC, "raw")
    assert lambda_n(spec, m) == lambda_n(spec, n)
    with pytest.raises(AdmissibilityError, match=r"^degenerate equation: "
                       rf"lambda_{m} = lambda_{n}$"):
        solve_equation(spec, n)
    with pytest.raises(AdmissibilityError):
        generate(spec, n)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(spec=raw_specs(), n=st.integers(1, 6),
       perturbation=st.lists(small_rationals, max_size=8))
def test_equation_residual_from_the_sides_is_the_operator(spec, n, perturbation):
    # sigma D' p_n + tau D p_n + lambda_n p_n, with sigma D' p_n the primed
    # lhs, on generate's p_n and on a perturbed one whose residual is nonzero
    try:
        polys = generate(spec, n + 1)
    except AdmissibilityError:
        return
    for p in (polys[n], polys[n] + Polynomial(perturbation)):
        near = [*polys[:n], p, polys[n + 1]]
        diffs = [structure._difference(spec, q) for q in near]
        sides = structure._relation_sides(spec, near, diffs, n)
        got = structure._equation_residual(spec, sides, n)
        want = spec.apply_operator(p, n)
        assert got == want and repr(got) == repr(want)
        assert got.is_zero() == (p == polys[n] or want.is_zero())


def _generate_by_polynomials(spec, n_max):
    """``generate`` with each step the Polynomial expression (A x + B) p_n - C p_{n-1}."""
    polys = [Polynomial.const(spec.k(0))]
    x, prev = Polynomial.x(), Polynomial.zero()
    for n in range(n_max):
        A, B, C = structure.recurrence_coeffs(spec, n)
        polys.append((x.scale(A) + B) * polys[-1] - prev.scale(C))
        prev = polys[-2]
    return polys


def _generated(route, spec, n_max):
    """route(spec, n_max): the coefficient tuples, or the type and message
    of the AdmissibilityError it raises."""
    try:
        return [p.coeffs for p in route(spec, n_max)]
    except AdmissibilityError as exc:
        return type(exc), str(exc)


def _same_generated(build, n_max):
    """generate on one spec from ``build`` and the per-degree route
    (``recurrence_coeffs`` and the field expression) on another, at every
    n <= n_max in turn: equal, polynomial for polynomial and message for
    message.  Returns generate's outcomes."""
    got, want = ([_generated(route, spec, n) for n in range(n_max + 1)]
                 for route, spec in ((generate, build()), (_generate_by_polynomials, build())))
    assert got == want
    return got


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(spec=raw_specs(), shrink=st.sampled_from((1, 6, 35)), n_max=st.integers(0, 12))
def test_generate_steps_on_integer_views_as_on_polynomials(spec, shrink, n_max):
    data = [v / shrink for v in spec.abcde()]
    _same_generated(lambda: FamilySpec(spec.kind, *data, MONIC, "raw"), n_max)


@pytest.mark.parametrize("name, params", [
    # dual-number data, as exact_parameter_derivative builds them
    ("jacobi", {"alpha": Dual(F(1, 2), 1), "beta": Dual(F(1, 3), 0)}),
    ("meixner", {"gamma": Dual(F(2), 0), "mu": Dual(F(1, 3), 1)}),
    # the alpha + beta = -1 line: the same message at the same step
    ("jacobi", {"alpha": F(-1, 2), "beta": F(-1, 2)}),
    ("jacobi", {"alpha": F(-1, 3), "beta": F(-2, 3)}),
    ("hahn", {"alpha": F(-1, 4), "beta": F(-3, 4), "N": F(80)}),
    ("bessel", {"alpha": F(-1)}),
    # d + 2a = 0: the B_1 denominator vanishes
    ("gegenbauer", {"alpha": F(-3, 2)}),
    # rho_N has the factor n - N in its denominator, and k_{N+1} fails
    ("hahn-q", {"alpha": F(1, 2), "beta": F(1, 3), "N": F(3)}),
])
def test_generate_matches_the_polynomial_steps(name, params):
    outcomes = _same_generated(lambda: catalog(name, params), 10)
    assert isinstance(outcomes[-1], tuple) == all(type(v) is F for v in params.values())


@pytest.mark.parametrize("name", CATALOG_NAMES)
@pytest.mark.parametrize("monic", [False, True])
def test_generate_is_the_per_degree_route_on_the_catalog(name, monic):
    for params in FAMILY_POINTS[name]:
        _same_generated(lambda: catalog(name + "-monic" if monic else name, params), 30)


@pytest.mark.parametrize("spec", [
    # d = -2a n at n = 3: the B_3 denominator vanishes, of both kinds
    lambda: FamilySpec("continuous", 1, 0, 1, -6, 1, MONIC, "raw"),
    lambda: FamilySpec("discrete", 1, F(1, 2), 0, -6, 1, MONIC, "raw"),
    # k_n = 2^n with the ratio 2 (n - 2)/(n - 2): rho_2 is 0/0, so steps 2
    # and 3 read k_3/k_2, and the steps from 4 on take the entries again
    lambda: FamilySpec("continuous", 0, 1, 0, -1, 1, LeadingRule(
        lambda n: F(2) ** n, "2^n, rho 0/0 at n = 2", lambda n: ((2, n - 2), (n - 2,))), "raw"),
])
def test_generate_is_the_per_degree_route_where_a_factor_vanishes(spec):
    _same_generated(spec, 10)


# each bracket that is a polynomial in n, with its arguments after n
BRACKETS = ((structure._sum_factor, ()), (structure._cn_denominator, ()),
            (structure._linear_factor, (1,)), (structure._linear_factor, (2,)),
            (structure._b_numerator, (False,)), (structure._b_numerator, (True,)),
            (structure._b_denominator, (False,)), (structure._b_denominator, (True,)),
            (structure._beta_numerator, ()), (lambda_n, ()))

# each entry that is a quotient in n, with its arguments after n
QUOTIENTS = ((structure._b_quotient, (False,)), (structure._b_quotient, (True,)),
             (structure._beta, ()), (structure._lower_entry, (-1, (2,))),
             (structure._lower_entry, (1, (1, 2))), (structure._lower_entry, (-1, (1,))))


def _quotient_at(num, den, n):
    """The quotient of the factors' values at n, None where the denominator
    is 0; a dual denominator of value 0 raises ZeroDivisionError, as in the
    formulas."""
    def value(factor):
        if type(factor) is _IntPoly:
            factor = Polynomial(factor.c)
        return factor(n) if isinstance(factor, Polynomial) else factor

    top = bottom = F(1)
    for factor in num:
        top = top * value(factor)
    for factor in den:
        bottom = bottom * value(factor)
    return top / bottom if bottom != 0 else None


def _outcome(call):
    try:
        return call()
    except ZeroDivisionError as exc:
        return str(exc)


def _entry_at(entry, n):
    """The entry's value at n from its Horner values, as the composition
    reads it: None where the denominator vanishes (a dual one of value 0
    raises ZeroDivisionError)."""
    num, den = entry.values(n)
    if not den:
        return None
    return F(num, den) if type(num) is int and type(den) is int else num / den


@settings(derandomize=True, database=None, deadline=None, max_examples=8)
@given(spec=raw_specs(), datum=st.integers(0, 4), slope=nonzero_rationals)
def test_bracket_polynomials_match_their_bodies(spec, datum, slope):
    # the same spec with one datum carrying a derivative part, and with one
    # datum plus a formal parameter t (each operation on it takes a gcd, so
    # it is read at fewer degrees)
    data, formal = list(spec.abcde()), list(spec.abcde())
    data[datum] = Dual(data[datum], slope)
    formal[datum] = formal[datum] + RationalFunction.parameter()
    for s, n_max in ((spec, 80), (FamilySpec(spec.kind, *data, MONIC, "raw"), 80),
                     (FamilySpec(spec.kind, *formal, MONIC, "raw"), 12)):
        for bracket, rest in BRACKETS:
            for n in range(n_max + 1):
                assert bracket(s, n, *rest) == bracket.__wrapped__(s, n, *rest), (bracket, n)
        # an entry is the quotient of its factors' values, or None where the
        # denominator vanishes
        for quotient, rest in QUOTIENTS:
            num, den = quotient.__wrapped__(s, _N, *rest)
            for n in range(n_max + 1):
                assert _outcome(lambda: _entry_at(quotient(s, *rest), n)) == \
                    _outcome(lambda: _quotient_at(num, den, n)), (quotient, rest, n)


def _on_fractions(spec):
    """The same spec without its integer data: every bracket and series
    route then runs on the Fractions."""
    copy = FamilySpec(spec.kind, *spec.abcde(), spec.leading, spec.name, spec.params)
    object.__setattr__(copy, "_ints", None)
    return copy


# the index recurrences that read the integer data, by kind
SERIES_ROUTES = {"continuous": (series.power_coeffs, series._power_in_monic_two_term,
                                series._power_in_monic_three_term),
                 "discrete": (series.falling_coeffs, series.falling_coeffs_three_term,
                              series._falling_in_monic_two_term,
                              series._falling_in_monic_three_term)}


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(spec=raw_specs(), shrink=st.sampled_from((1, 6, 35)))
def test_integer_data_routes_match_fraction_arithmetic(spec, shrink):
    # dividing every datum by the same integer leaves each formula's value
    # unchanged but moves the lcm of the denominators: each bracket's declared
    # degree w must undo it
    spec = FamilySpec(spec.kind, *(v / shrink for v in spec.abcde()), MONIC, "raw")
    assert spec._ints is not None and spec._ints.scale % shrink == 0
    fractions = _on_fractions(spec)
    for bracket, rest in BRACKETS:
        x = _IntPoly([0, 1])
        assert bracket(spec, x, *rest) == Polynomial(bracket.__wrapped__(fractions, x, *rest).c), \
            bracket
    for route in SERIES_ROUTES[spec.kind]:
        for n in range(7):
            def solved(s):
                try:
                    out = route(s, n)
                except AdmissibilityError as exc:
                    return str(exc)
                return tuple(getattr(out, "coeffs", out))
            assert solved(spec) == solved(fractions), (route, n)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(spec=raw_specs())
def test_formula_triple_matches_the_oracle_where_the_solver_succeeds(spec):
    # raw specs reach the removable zeros, d + 2a = 0 and lambda_n = 0;
    # formula_triple, read degree after degree on one spec per relation as
    # tabulate reads it, equals the oracle's triple wherever both exist (a
    # Theorem-1 lo at n = 1 multiplies D p_0 = 0 and is not compared)
    basis = []
    for m in range(8):
        try:
            basis.append(solve_equation(spec, m))
        except AdmissibilityError:
            break
    oracle = [structure.oracle_triples(spec, basis, n) for n in range(len(basis) - 1)]
    for key, relation in structure.RELATIONS.items():
        if spec.kind not in relation.kinds:
            continue
        tabulated = FamilySpec(spec.kind, *spec.abcde(), MONIC, "raw")
        for n in range(relation.start, len(oracle)):
            try:
                got = structure.formula_triple(tabulated, key, n)
            except AdmissibilityError:
                continue
            width = 2 if n == 1 and relation.theorem1 else 3
            assert tuple(got)[:width] == tuple(oracle[n][key])[:width], (key, n)


def _k_or_error(spec, n):
    try:
        return spec.k(n)
    except AdmissibilityError as exc:
        return str(exc)


@st.composite
def catalog_points(draw, name):
    """Parameters of a catalog family at a random rational point, about a
    third of them integers, and for a continuous family sometimes an affine
    (scale, offset)."""
    values = st.integers(-5, 5).map(F) if draw(st.integers(0, 2)) == 0 else small_rationals
    params = {key: draw(values) for key in catalog_params(name)}
    affine = (draw(nonzero_rationals), draw(small_rationals)) if draw(rarely) else None
    return name, params, affine


def _fresh_spec(name, params, affine):
    spec = catalog(name, params)
    if affine and spec.kind == "continuous":
        spec = affine_transform(spec, *affine)
    return spec


# every catalog rule, and the monic one
@pytest.mark.parametrize("name", CATALOG_NAMES + ("hahn-q-monic",))
@settings(derandomize=True, database=None, deadline=None, max_examples=8)
@given(data=st.data(), order=st.randoms(use_true_random=False))
def test_k_stepped_by_the_term_ratio_matches_the_closed_form(name, data, order):
    point = data.draw(catalog_points(name))
    try:
        fresh = _fresh_spec(*point)
    except AdmissibilityError:
        return
    closed = []  # k_n read first on an empty memo: the rule's closed form
    for n in range(31):
        fresh._memo.clear()
        closed.append(_k_or_error(fresh, n))
    degrees = list(range(31))
    shuffled = list(degrees)
    order.shuffle(shuffled)
    for sequence in (degrees, shuffled):
        spec = _fresh_spec(*point)
        assert [_k_or_error(spec, n) for n in sequence] == [closed[n] for n in sequence]
    # rho_n = k_{n+1}/k_n wherever both exist, read as A_n; a B_n or C_n
    # denominator, or k_{n-1}, read after rho_n, may fail there
    for n in range(30):
        if not isinstance(closed[n], str) and not isinstance(closed[n + 1], str):
            try:
                assert structure.recurrence_coeffs(spec, n).hi == closed[n + 1] / closed[n], n
            except AdmissibilityError as exc:
                message = str(exc)
                assert message.split()[0] in (f"B_{n}", f"C_{n}") or \
                    n and message == closed[n - 1], (n, message)


def _assert_k_premise(fresh, m_max=40):
    """k_0 passing and every rho_j, j < m, with a nonzero Horner numerator
    and denominator make the closed form k_m pass on a fresh spec, for
    m <= m_max: the premise on which formula_triple skips the per-degree k
    reads, inside its ratio prefix (``structure._ratio_prefix``)."""
    spec = fresh()
    rho = _rule_ratio(spec)
    for m in range(m_max + 1):
        inside = all(all(rho.values(j)) for j in range(m))
        assert m == 0 or (structure._ratio_prefix(spec, m - 1) is not None) == inside, m
        if not inside:
            return
        twin = fresh()
        twin._memo.clear()
        twin.k(m)


def test_the_ratio_prefix_makes_every_k_read_pass_at_fixed_points():
    points = [*SAMPLE_SPECS, *DEGENERATE_POINTS,
              *((name, params) for name, points in FAMILY_POINTS.items() for params in points)]
    for name, params in points:
        for variant in (name, name + "-monic"):
            _assert_k_premise(lambda: catalog(variant, params))


# every catalog rule (each has a ratio), and the monic one
@pytest.mark.parametrize("name", CATALOG_NAMES + ("hahn-q-monic",))
@settings(derandomize=True, database=None, deadline=None, max_examples=8)
@given(data=st.data())
def test_the_ratio_prefix_makes_every_k_read_pass(name, data):
    point = data.draw(catalog_points(name))
    try:
        _fresh_spec(*point)
    except AdmissibilityError:
        return
    _assert_k_premise(lambda: _fresh_spec(*point))


@st.composite
def raw_pairs(draw):
    """Monic raw pairs for the recurrence route: a shared sigma (both kinds)
    or, discrete only, a shared sigma + tau.  About a third of the discrete
    pairs have a, c != 0, generic slopes and, for a shared sigma + tau,
    g = q.c - p.c != 0: the catalog has no such pair, and only there is
    every monomial of the printed discrete m-recurrences live."""
    p = draw(raw_specs())
    if p.kind == "discrete" and draw(st.integers(0, 2)) == 0:
        a, c, d = (draw(nonzero_rationals) for _ in range(3))
        p = FamilySpec(p.kind, a, p.b, c, d, p.e, MONIC, "raw")
        d, e = draw(nonzero_rationals), draw(small_rationals.filter(lambda v: v != p.e))
    else:
        d, e = draw(tau_slope(p.a)), draw(small_rationals)
    if p.kind == "discrete" and draw(st.booleans()):  # q.b + q.d = p.b + p.d, same for c, e
        return p, FamilySpec(p.kind, p.a, p.b + p.d - d, p.c + p.e - e, d, e, MONIC, "raw")
    return p, FamilySpec(p.kind, p.a, p.b, p.c, d, e, MONIC, "raw")


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(pair=raw_pairs(), n=st.integers(1, 5))
def test_raw_pair_recurrence_rows_match_the_oracle(pair, n):
    p, q = pair
    try:
        row = connect_recurrence(p, q, n)
    except (AdmissibilityError, UnsupportedConnection):
        return
    try:
        want = connect_oracle(p, q, n)
    except AdmissibilityError:  # generate(p) meets a removable 0/0 below degree n
        want = ConnectionRow(n, tuple(expand_over(solve_equation(p, n), generate(q, n))))
    assert row == want
    # the printed m-recurrence of the pair's kind and mode vanishes on the row
    printed = (("theorem2-m-recurrence", diagnostics._theorem2_terms) if p.kind == "continuous"
               else diagnostics._DISCRETE_M_RECURRENCES[compat(p, q)])
    assert diagnostics._m_recurrence_mismatches(*printed, p, q, want) == []


def _per_degree_row(p, q, n):
    """``connect_recurrence``'s row built in Fraction arithmetic from the
    per-degree rules: mu from P's triples, and each Q index weighed as
    sum_i mu_i g_i(q, j) of the rules' triples (g_0 alone at j = 0), in the
    order the multipliers read them.  Pairs that fail a guard before any
    triple is read go to ``connect_recurrence`` for its message."""
    mode = compat(p, q)
    if n == 0 or not (p.is_monic() and q.is_monic()) or mode == connection.GENERAL:
        return connect_recurrence(p, q, n)
    rules = (structure.xpn_coeffs, structure.starred_coeffs,
             structure.derivative_rule_coeffs if mode == connection.SAME_SIGMA
             else structure.delta_rule_coeffs)
    (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = (rule(p, n) for rule in rules)
    mu = (x2 * z3 - x3 * z2, x3 * z1 - x1 * z3, x1 * z2 - x2 * z1)
    if not any(mu):
        return connect_recurrence(p, q, n)
    y_total = mu[0] * y1 + mu[1] * y2 + mu[2] * y3

    @functools.cache
    def weighted(j):
        total = [F(0)] * 3
        for mu_i, rule in zip(mu, rules if j else rules[:1]):
            total = [s + mu_i * t for s, t in zip(total, rule(q, j))]
        return total

    return ConnectionRow(n, tuple(series.descend(
        n, F(1), "vanishing leading multiplier at m={m}",
        lambda m: weighted(m)[0], lambda m: weighted(m + 1)[1] - y_total,
        lambda m: weighted(m + 2)[2])))


def _row_or_error(p, q, n, per_degree=False):
    """``connect_recurrence``'s row or what it raises; ``per_degree``, the
    row of ``_per_degree_row`` instead."""
    try:
        return (_per_degree_row if per_degree else connect_recurrence)(p, q, n)
    except (AdmissibilityError, UnsupportedConnection) as exc:
        return type(exc), str(exc)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(pair=raw_pairs(), n=st.integers(1, 7))
def test_raw_pair_rows_from_the_entries_match_the_per_degree_rules(pair, n):
    p, q = pair
    assert _row_or_error(p, q, n) == _row_or_error(p, q, n, per_degree=True)


def test_workload_rows_from_the_entries_match_the_per_degree_rules(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    argvs = [op.argv() for op in importlib.import_module("workloads").build("connect", 5, 30.0).ops
             if op.verb == "connect" and op.what == "auto"]
    assert len(argvs) > 100
    for argv in argvs:  # fresh specs for each route
        rows = [_row_or_error(parse_family(argv[2]), parse_family(argv[4]), int(argv[6]), flag)
                for flag in (False, True)]
        assert rows[0] == rows[1], argv


@st.composite
def pairs_with_a_q_root(draw):
    """A monic raw pair with a shared sigma (a != 0) whose Q has a
    denominator of B_j, B*_{j-1} or C_j vanish at some 2 <= j <= n + 1:
    d = -2aj, -2a(j - 1), a(3 - 2j) or a(1 - 2j)."""
    p, n = draw(raw_specs().filter(lambda spec: spec.a != 0)), draw(st.integers(1, 7))
    j = draw(st.integers(2, n + 1))
    d = p.a * draw(st.sampled_from((-2 * j, -2 * (j - 1), 3 - 2 * j, 1 - 2 * j)))
    return p, FamilySpec(p.kind, p.a, p.b, p.c, d, draw(small_rationals), MONIC, "raw"), n


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(case=pairs_with_a_q_root())
def test_a_vanishing_q_denominator_raises_the_per_degree_message(case):
    p, q, n = case
    assert _row_or_error(p, q, n) == _row_or_error(p, q, n, per_degree=True)


def _small(rng, nonzero=False):
    """A rational as ``small_rationals`` draws it."""
    while True:
        value = F(rng.randint(-6, 6), rng.randint(1, 4))
        if value or not nonzero:
            return value


def _slope(rng, a):
    """d as ``tau_slope`` draws it."""
    if a != 0 and rng.randint(0, 2) == 0:
        return a * rng.choice((-4, -3, -2, -1, 1, 2, 3))
    return _small(rng, nonzero=True)


def _seeded_pair(rng):
    """The data of a monic raw pair as ``raw_pairs`` draws it: (kind, p's
    data, q's data)."""
    kind = rng.choice(("continuous", "discrete"))
    a, b, c, e = (_small(rng) for _ in range(4))
    d = _slope(rng, a)
    if kind == "discrete" and rng.randint(0, 2) == 0:
        a, c, d = (_small(rng, nonzero=True) for _ in range(3))
        qd = _small(rng, nonzero=True)
        qe = _small(rng)
        while qe == e:
            qe = _small(rng)
    else:
        qd, qe = _slope(rng, a), _small(rng)
    if kind == "discrete" and rng.random() < 0.5:
        return kind, (a, b, c, d, e), (a, b + d - qd, c + e - qe, qd, qe)
    return kind, (a, b, c, d, e), (a, b, c, qd, qe)


def _seeded_q_root(rng):
    """A monic raw pair with a shared sigma (a != 0) whose Q has a
    denominator of B_j, B*_{j-1} or C_j vanish at some 2 <= j <= n + 1
    (d = -2aj, -2a(j - 1), a(3 - 2j) or a(1 - 2j)), with its n."""
    kind = rng.choice(("continuous", "discrete"))
    a = _small(rng, nonzero=True)
    b, c, e = (_small(rng) for _ in range(3))
    d, n = _slope(rng, a), rng.randint(1, 7)
    j = rng.randint(2, n + 1)
    qd = a * rng.choice((-2 * j, -2 * (j - 1), 3 - 2 * j, 1 - 2 * j))
    return kind, (a, b, c, d, e), (a, b, c, qd, _small(rng)), n


def _connection_outcomes():
    """Every outcome the frozen connection table pins, in a fixed order:
    ``connect_recurrence``'s row (its coefficients) or the exception's type
    name and message, on fresh specs for each call: 150 seeded raw pairs at
    n = 1..7, 200 seeded pairs whose Q has a vanishing denominator at a
    degree the row reads, and the ``connect --method auto`` pairs of the
    seed-5 benchmark list."""
    import random

    def outcome(p, q, n):
        got = _row_or_error(p, q, n)
        if isinstance(got, ConnectionRow):
            return got.n, got.coeffs
        return got[0].__name__, got[1]

    rng, out = random.Random(5), []
    for _ in range(150):
        kind, p, q = _seeded_pair(rng)
        out += [outcome(FamilySpec(kind, *p, MONIC, "raw"), FamilySpec(kind, *q, MONIC, "raw"), n)
                for n in range(1, 8)]
    for _ in range(200):
        kind, p, q, n = _seeded_q_root(rng)
        out.append(outcome(FamilySpec(kind, *p, MONIC, "raw"),
                           FamilySpec(kind, *q, MONIC, "raw"), n))
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(bench)
        ops = importlib.import_module("workloads").build("connect", 5, 30.0).ops
    argvs = [op.argv() for op in ops if op.verb == "connect" and op.what == "auto"]
    out += [outcome(parse_family(argv[2]), parse_family(argv[4]), int(argv[6]))
            for argv in argvs]
    return out


def test_frozen_connection_outcomes():
    # the sha256 of every row and message, recorded on the route that read
    # the Q side twice (the entries beside the per-degree rules, each checked
    # against the other on these inputs)
    outcomes = _connection_outcomes()
    assert len(outcomes) == 1442
    assert hashlib.sha256(repr(outcomes).encode()).hexdigest() == \
        "b3266029d80cd6c4dab2e552660039c270b5147132b2e4648b99fe5e1c44c704"


def _param_deriv(argv, oracle=False, wrong=None):
    """(exit code, stdout, stderr) of ``param-deriv``; ``oracle`` runs the
    dual-number oracle in place of the certificate, and ``wrong`` adds 1 to
    that entry (mod n + 1) of the printed row."""
    printed = connection.parameter_derivative

    def corrupted(family, param, n, at):
        row = printed(family, param, n, at)
        m = wrong % (n + 1)
        return ConnectionRow(n, row.coeffs[:m] + (row.coeffs[m] + 1,) + row.coeffs[m + 1:])

    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        if oracle:
            patch.setattr(connection, "_certificate", lambda *args: None)
        if wrong is not None:
            patch.setattr(connection, "parameter_derivative", corrupted)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def param_deriv_argv(draw):
    family, param = draw(st.sampled_from(PARAMETER_DERIVATIVE_PAIRS))
    at = ",".join(f"{key}={format_rational(draw(small_rationals))}"
                  for key in catalog_params(family))
    return ["param-deriv", "--family", family, "--param", param,
            "--n", str(draw(st.integers(0, 9))), "--at", at]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(argv=param_deriv_argv(), wrong=st.none() | st.integers(0, 9))
def test_the_certificate_decides_as_the_oracle(argv, wrong):
    # exit code, stdout and stderr, with the printed row or one entry off
    assert _param_deriv(argv, wrong=wrong) == _param_deriv(argv, oracle=True, wrong=wrong)


# --- CLI contract: exit codes 0-3 and a message, never a traceback -----------

FAMILY_NAMES = CATALOG_NAMES + tuple(f"{name}-monic" for name in CATALOG_NAMES)
TABLE_KINDS = tuple(structure.RELATIONS)  # the tabulate --what choices
cli_values = st.builds("{}/{}".format, st.integers(-4, 4), st.integers(1, 3))
bad_values = st.sampled_from(("", "x", "1.5", "1/", "/2", "--1", "1/0", "3/0"))


@st.composite
def parameter_text(draw, keys):
    keys = list(keys)
    if keys and draw(rarely):
        keys.pop(draw(st.integers(0, len(keys) - 1)))  # a missing parameter
    if draw(rarely):
        keys.append(draw(st.sampled_from(("zeta", "alpha", "N"))))  # extra or duplicate
    return ",".join(f"{key}={draw(bad_values if draw(rarely) else cli_values)}"
                    for key in keys)


@st.composite
def family_text(draw):
    name = draw(st.sampled_from(FAMILY_NAMES + ("raw",) * 8 + ("legendre",)))
    if name == "raw":
        kind = draw(st.sampled_from(("continuous", "discrete") * 4 + ("other",)))
        k = "2^n" if draw(rarely) else "monic"
        return f"raw:kind={kind},k={k}," + draw(parameter_text("abcde"))
    pairs = draw(parameter_text(catalog_params(name) if name in FAMILY_NAMES else ()))
    return f"{name}:{pairs}" if pairs else name


@st.composite
def cli_argv(draw):
    verb = draw(st.sampled_from(("tabulate", "generate", "verify", "repr", "connect",
                                 "param-deriv")))
    n = str(-1 if draw(rarely) else draw(st.integers(2 if verb == "verify" else 0, 4)))
    if verb == "tabulate":
        argv = [verb, "--family", draw(family_text()), "--what",
                draw(st.sampled_from(TABLE_KINDS)), "--n-max", n]
    elif verb in ("generate", "verify"):
        argv = [verb, "--family", draw(family_text()), "--n-max", n]
    elif verb == "repr":
        argv = [verb, "--family", draw(family_text()), "--what",
                draw(st.sampled_from(("series", "closed-form", "in-basis")))]
        argv += [] if draw(rarely) else ["--n", n]
    elif verb == "connect":
        argv = [verb, "--from", draw(family_text()), "--to", draw(family_text()), "--n", n,
                "--method", draw(st.sampled_from(("auto", "oracle", "recurrence")))]
    else:
        name, param = draw(st.sampled_from(PARAMETER_DERIVATIVE_PAIRS))
        if draw(rarely):
            param = "zeta"
        argv = [verb, "--family", name, "--param", param, "--n", n,
                "--at", draw(parameter_text(catalog_params(name)))]
    return argv + ["--format", draw(st.sampled_from(("json", "csv", "pretty")))]


@settings(derandomize=True, database=None, deadline=None)
@given(argv=cli_argv())
def test_cli_exits_with_a_code_and_never_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert code == 0 or err.getvalue().startswith("opoly: ")
