"""Property tests over random raw specs with small rational coefficients."""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from opoly.algebra import expand_over
from opoly.diagnostics import structure_mismatches
from opoly.families import MONIC, AdmissibilityError, FamilySpec, admissibility
from opoly.structure import generate, oracle_basis

small_rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
nonzero_rationals = small_rationals.filter(lambda v: v != 0)

raw_specs = st.builds(FamilySpec, st.sampled_from(("continuous", "discrete")),
                      small_rationals, small_rationals, small_rationals,
                      nonzero_rationals, small_rationals, st.just(MONIC), st.just("raw"))


@settings(derandomize=True, database=None, deadline=None)
@given(spec=raw_specs, n_max=st.integers(0, 6), data=st.data())
def test_raw_spec_formulas_and_oracles_agree(spec, n_max, data):
    # generate fails exactly where the recurrence denominators vanish
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
