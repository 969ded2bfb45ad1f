"""Tests of the benchmark's output checker.

    python3 -m pytest bench/checker_selftest.py -q

The file name keeps it out of the repository's default test collection, so
the tier-1 suite does not pay for sympy.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checker  # noqa: E402
import workloads  # noqa: E402
from workloads import Family, Op  # noqa: E402

FAMILIES = [
    Family("jacobi", "continuous", (("alpha", F(1, 3)), ("beta", F(5, 7)))),
    Family("gegenbauer", "continuous", (("alpha", F(3, 4)),)),
    Family("laguerre", "continuous", (("alpha", F(-1, 2)),)),
    Family("hermite", "continuous", ()),
    Family("bessel", "continuous", (("alpha", F(2, 3)),)),
    Family("hahn", "discrete", (("alpha", F(1, 2)), ("beta", F(4, 3)), ("N", F(20)))),
    Family("hahn-q", "discrete", (("alpha", F(2, 5)), ("beta", F(3)), ("N", F(15)))),
    Family("meixner", "discrete", (("gamma", F(3, 2)), ("mu", F(2, 7)))),
    Family("krawtchouk", "discrete", (("p", F(2, 9)), ("N", F(17)))),
    Family("charlier", "discrete", (("mu", F(5, 3)),)),
    Family("k-family", "discrete", (("alpha", F(3, 2)), ("beta", F(-1, 4)))),
    Family("raw", "continuous", tuple(zip("abcde", (F(-1, 2), F(1, 3), F(2), F(-5, 3), F(1, 4))))),
    Family("raw", "discrete", tuple(zip("abcde", (F(2, 3), F(-1), F(1, 5), F(7, 3), F(3, 2))))),
]


def _opoly(op: Op) -> str:
    from opoly import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(op.argv()) == 0
    return out.getvalue()


def _problems(op: Op, out: str) -> list[str]:
    return checker.check_all([(op, out)], seed=0)


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.label())
def test_references_solve_their_equation(fam):
    a, b, c, d, e = checker.equation_data(fam.base, dict(fam.params))
    refs = checker.References()
    for n in range(7):
        p = refs.poly(fam, n)
        assert len(p) == n + 1 and all(isinstance(v, F) for v in p)
        if fam.kind == "continuous":
            second, first = checker.pderiv(checker.pderiv(p)), checker.pderiv(p)
        else:
            second, first = checker.pdelta(checker.pnabla(p)), checker.pdelta(p)
        lam = -(a * n * (n - 1) + d * n)
        residual = checker.padd(checker.padd(checker.pmul([c, b, a], second),
                                             checker.pmul([e, d], first)),
                                checker.pscale(p, lam))
        assert residual == []


def test_hahn_shares_hahn_q_equation_in_monic_form():
    hahn = Family("hahn-monic", "discrete", (("alpha", F(1, 2)), ("beta", F(4, 3)), ("N", F(20))))
    hahn_q = Family("hahn-q-monic", "discrete", (("alpha", F(4, 3)), ("beta", F(1, 2)), ("N", F(19))))
    refs = checker.References()
    assert refs.poly(hahn, 5) == refs.poly(hahn_q, 5)


@pytest.mark.parametrize("fam", FAMILIES[:-2], ids=lambda f: f.label())
def test_catalog_standardization_matches_opoly(fam):
    from opoly import catalog
    spec = catalog(fam.name, dict(fam.params))
    refs = checker.References()
    assert [refs.poly(fam, n)[-1] for n in range(6)] == [spec.k(n) for n in range(6)]


def test_accepts_every_verb():
    jac = FAMILIES[0]
    hahn = FAMILIES[5]
    ops = [Op("tabulate", what, fmt, 9, (hahn,)) for what in workloads.TABLE_KINDS
           for fmt in ("json", "csv")]
    ops += [Op("tabulate", "hatted", "json", 9, (jac,)), Op("generate", "", "csv", 8, (jac,)),
            Op("generate", "", "json", 8, (hahn,)),
            Op("repr", "series", "json", 8, (hahn,)), Op("repr", "in-basis", "json", 8, (jac,)),
            Op("repr", "closed-form", "json", 8, (FAMILIES[7],)),
            Op("verify", "", "json", 5, (hahn,)), Op("verify", "", "json", 5, (FAMILIES[11],)),
            Op("connect", "oracle", "json", 6, (jac, hahn)),
            Op("connect", "auto", "json", 6,
               (Family("laguerre-monic", "continuous", (("alpha", F(1, 2)),)),
                Family("laguerre-monic", "continuous", (("alpha", F(3)),)))),
            Op("param-deriv", "beta", "json", 4, (jac,)),
            Op("param-deriv", "mu", "json", 4, (Family("meixner-monic", "discrete", FAMILIES[7].params),)),
            Op("param-deriv", "beta", "json", 3, (FAMILIES[10],))]
    assert checker.check_all([(op, _opoly(op)) for op in ops], seed=0) == []


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_rejects_corrupted_row(fmt):
    op = Op("tabulate", "recurrence", fmt, 8, (FAMILIES[0],))
    out = _opoly(op)
    assert _problems(op, out) == []
    if fmt == "json":
        payload = json.loads(out)
        last = payload["entries"][-1]
        last["mid"] = str(F(last["mid"]) + F(1, 1000))
        corrupted = json.dumps(payload)
    else:
        lines = out.splitlines()
        n, lo, mid, hi = lines[-1].split(",")
        lines[-1] = ",".join([n, lo, str(F(mid) + F(1, 1000)), hi])
        corrupted = "\n".join(lines) + "\n"
    assert _problems(op, corrupted)


def test_rejects_missing_row():
    op = Op("tabulate", "hatted", "json", 8, (FAMILIES[5],))
    payload = json.loads(_opoly(op))
    del payload["entries"][3]
    assert _problems(op, json.dumps(payload))


@pytest.mark.parametrize("verb", ["generate", "series"])
def test_rejects_corrupted_coefficient(verb):
    fam = FAMILIES[9]
    op = (Op("generate", "", "json", 7, (fam,)) if verb == "generate"
          else Op("repr", "series", "json", 7, (fam,)))
    payload = json.loads(_opoly(op))
    coeffs = payload["polynomials"][-1]["coeffs"] if verb == "generate" else payload["coeffs"]
    coeffs[2] = str(F(coeffs[2]) * 2 + 1)
    assert _problems(op, json.dumps(payload))


def test_rejects_corrupted_connection_and_derivative_rows():
    op = Op("connect", "oracle", "json", 5, (FAMILIES[1], FAMILIES[8]))
    payload = json.loads(_opoly(op))
    payload["coeffs"]["1"] = str(F(payload["coeffs"]["1"]) + 1)
    assert _problems(op, json.dumps(payload))
    op = Op("param-deriv", "alpha", "json", 4, (FAMILIES[2],))
    payload = json.loads(_opoly(op))
    payload["coeffs"]["0"] = str(F(payload["coeffs"]["0"]) + 1)
    assert _problems(op, json.dumps(payload))


def test_rejects_a_verify_with_a_check_missing():
    op = Op("verify", "", "json", 5, (FAMILIES[0],))
    payload = json.loads(_opoly(op))
    payload["checks"].pop()
    assert _problems(op, json.dumps(payload))
