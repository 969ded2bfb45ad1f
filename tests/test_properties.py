"""Property tests: random raw specs with small rational coefficients, and
random command lines against the CLI contract."""

import contextlib
import io
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from opoly import structure
from opoly.algebra import Dual, Polynomial, expand_over
from opoly.cli import run
from opoly.connection import (
    PARAMETER_DERIVATIVE_PAIRS,
    ConnectionRow,
    UnsupportedConnection,
    connect_oracle,
    connect_recurrence,
)
from opoly.diagnostics import structure_mismatches
from opoly.families import (
    CATALOG_NAMES,
    MONIC,
    AdmissibilityError,
    FamilySpec,
    affine_transform,
    catalog,
    catalog_params,
    lambda_n,
)
from opoly.structure import admissibility, generate, oracle_basis, solve_equation

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
    top = bottom = F(1)
    for factor in num:
        top = top * (factor(n) if isinstance(factor, Polynomial) else factor)
    for factor in den:
        bottom = bottom * (factor(n) if isinstance(factor, Polynomial) else factor)
    return top / bottom if bottom != 0 else None


def _outcome(call):
    try:
        return call()
    except ZeroDivisionError as exc:
        return str(exc)


@settings(derandomize=True, database=None, deadline=None, max_examples=8)
@given(spec=raw_specs(), datum=st.integers(0, 4), slope=nonzero_rationals)
def test_bracket_polynomials_match_their_bodies(spec, datum, slope):
    # the same spec with one datum carrying a derivative part
    data = list(spec.abcde())
    data[datum] = Dual(data[datum], slope)
    for s in (spec, FamilySpec(spec.kind, *data, MONIC, "raw")):
        for bracket, rest in BRACKETS:
            for n in range(81):
                assert bracket(s, n, *rest) == bracket.__wrapped__(s, n, *rest), (bracket, n)
        # an entry is the quotient of its factors' values, or None where the
        # denominator vanishes
        for quotient, rest in QUOTIENTS:
            num, den = quotient.__wrapped__(s, Polynomial.x(), *rest)
            for n in range(81):
                assert _outcome(lambda: quotient(s, n, *rest)) == \
                    _outcome(lambda: _quotient_at(num, den, n)), (quotient, rest, n)


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
    # rho_n = k_{n+1}/k_n wherever both exist
    for n in range(30):
        if not isinstance(closed[n], str) and not isinstance(closed[n + 1], str):
            assert structure._k_ratio(spec, n) == closed[n + 1] / closed[n], n


@st.composite
def raw_pairs(draw):
    """Monic raw pairs for the recurrence route: a shared sigma (both kinds)
    or, discrete only, a shared sigma + tau."""
    p = draw(raw_specs())
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
