"""Property tests: random raw specs with small rational coefficients, and
random command lines against the CLI contract."""

import contextlib
import io
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from opoly.algebra import expand_over
from opoly.cli import TABLE_KINDS, run
from opoly.connection import (
    PARAMETER_DERIVATIVE_PAIRS,
    ConnectionRow,
    UnsupportedConnection,
    connect_oracle,
    connect_recurrence,
)
from opoly.diagnostics import structure_mismatches
from opoly.families import CATALOG_NAMES, MONIC, AdmissibilityError, FamilySpec, catalog_params
from opoly.structure import admissibility, generate, oracle_basis, solve_equation

small_rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
nonzero_rationals = small_rationals.filter(lambda v: v != 0)


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
rarely = st.integers(0, 7).map(lambda v: v == 7)
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
