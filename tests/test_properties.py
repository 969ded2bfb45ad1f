"""Property tests: random raw specs with small rational coefficients, and
random command lines against the CLI contract."""

import contextlib
import io
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from opoly.algebra import expand_over
from opoly.cli import TABLE_KINDS, run
from opoly.connection import PARAMETER_DERIVATIVE_PAIRS
from opoly.diagnostics import structure_mismatches
from opoly.families import CATALOG_NAMES, MONIC, AdmissibilityError, FamilySpec, catalog_params
from opoly.structure import admissibility, generate, oracle_basis

small_rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
nonzero_rationals = small_rationals.filter(lambda v: v != 0)

raw_specs = st.builds(FamilySpec, st.sampled_from(("continuous", "discrete")),
                      small_rationals, small_rationals, small_rationals,
                      nonzero_rationals, small_rationals, st.just(MONIC), st.just("raw"))


@settings(derandomize=True, database=None, deadline=None)
@given(spec=raw_specs, n_max=st.integers(0, 6), data=st.data())
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
