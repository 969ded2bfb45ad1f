import csv
import hashlib
import io
import json
from fractions import Fraction as F

import pytest

from opoly.algebra import Dual, _Quotient, format_rational
from opoly.cli import USAGE_ERROR, INADMISSIBLE, VERIFY_FAILED, parse_family, run
from opoly.connection import PARAMETER_DERIVATIVE_PAIRS
from opoly.families import catalog
from opoly.structure import CoefficientTriple, generate
from opoly import cli, connection, diagnostics, structure

from conftest import FAMILY_POINTS, PD_POINTS


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _break_derivative_rule_at_3(monkeypatch):
    # the one composition every triple is read from
    original = structure._composed

    def broken(spec, key, n, alone=False):
        hi, (num, den), lo = original(spec, key, n, alone)
        if (key, n) == ("derivative", 3):
            return hi, (num + den, den), lo  # the mid one more
        return hi, (num, den), lo

    monkeypatch.setattr(structure, "_composed", broken)


TABLE_SCHEMA = {
    "type": "object",
    "required": ["relation", "entries", "family"],
    "properties": {
        "relation": {"type": "string"},
        "entries": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["n", "lo", "mid", "hi"],
                "properties": {
                    "n": {"type": "integer"},
                    "lo": {"type": "string", "pattern": r"^-?\d+(/\d+)?$"},
                    "mid": {"type": "string", "pattern": r"^-?\d+(/\d+)?$"},
                    "hi": {"type": "string", "pattern": r"^-?\d+(/\d+)?$"},
                },
            },
        },
    },
}

ROW_SCHEMA = {
    "type": "object",
    "required": ["n", "coeffs"],
    "properties": {
        "n": {"type": "integer"},
        "coeffs": {
            "type": "object",
            "patternProperties": {r"^\d+$": {"type": "string",
                                             "pattern": r"^-?\d+(/\d+)?$"}},
        },
    },
}


class TestParseFamily:
    def test_plain_name(self):
        assert parse_family("hermite").abcde() == (0, 0, 1, -2, 0)

    def test_with_parameters(self):
        spec = parse_family("meixner:gamma=2,mu=1/3")
        assert spec.abcde() == (0, 1, 0, F(-2, 3), F(2, 3))

    def test_raw_spec_matches_monic_laguerre(self):
        raw = parse_family("raw:kind=continuous,a=0,b=1,c=0,d=-1,e=3/2,k=monic")
        ref = catalog("laguerre-monic", alpha=F(1, 2))
        assert generate(raw, 6) == generate(ref, 6)

    def test_malformed_rational(self):
        with pytest.raises(ValueError):
            parse_family("laguerre:alpha=0.5")

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            parse_family("legendre")

    def test_missing_parameter(self):
        with pytest.raises(ValueError):
            parse_family("meixner:gamma=2")


class TestTabulate:
    def test_hermite_recurrence_values(self, capsys):
        code, out, _ = run_cli(capsys, "tabulate", "--family", "hermite",
                               "--what", "recurrence", "--n-max", "5")
        assert code == 0
        data = json.loads(out)
        assert data["relation"] == "recurrence"
        for entry in data["entries"]:
            assert entry["hi"] == "2"  # A_n
            assert entry["mid"] == "0"  # B_n
            assert entry["lo"] == str(2 * entry["n"])  # C_n

    def test_schema(self, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        _, out, _ = run_cli(capsys, "tabulate", "--family", "charlier:mu=2",
                            "--what", "hatted", "--n-max", "6")
        jsonschema.validate(json.loads(out), TABLE_SCHEMA)

    def test_csv_output(self, capsys):
        _, out, _ = run_cli(capsys, "tabulate", "--family", "hermite",
                            "--what", "recurrence", "--n-max", "3",
                            "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "lo", "mid", "hi"]
        assert rows[1:] == [["0", "0", "0", "2"], ["1", "2", "0", "2"],
                            ["2", "4", "0", "2"], ["3", "6", "0", "2"]]


def _raw(kind, abcde):
    a, b, c, d, e = abcde.split(",")
    return f"raw:kind={kind},a={a},b={b},c={c},d={d},e={e},k=monic"


# (case id, argv, message) for every route that solves an index recurrence
# downward: the first vanishing leading multiplier names its index m.
VANISHING_MULTIPLIERS = (
    ("power-series", ("repr", "--family", _raw("continuous", "1,-2,0,-2,-1/2"),
                      "--what", "series", "--n", "2"), "series multiplier vanishes at m=1"),
    ("power-in-basis-two-term", ("repr", "--family", _raw("continuous", "1,-2,0,-2,-1/2"),
                                 "--what", "in-basis", "--n", "2"),
     "inverse-series multiplier vanishes at m=1"),
    ("power-series-c", ("repr", "--family", _raw("continuous", "1,-2,3/2,-4,1"),
                        "--what", "series", "--n", "3"), "series multiplier vanishes at m=2"),
    ("power-in-basis-three-term", ("repr", "--family", _raw("continuous", "1,-2,3/2,-4,1"),
                                   "--what", "in-basis", "--n", "2"),
     "inverse-series multiplier vanishes at m=1"),
    ("falling-series-two-term", ("repr", "--family", _raw("discrete", "-1,2,0,5,-1"),
                                 "--what", "series", "--n", "4"),
     "series multiplier vanishes at m=2"),
    ("falling-in-basis-two-term", ("repr", "--family", _raw("discrete", "-1,2,0,5,-1"),
                                   "--what", "in-basis", "--n", "3"),
     "inverse-series multiplier vanishes at m=2"),
    ("falling-series-three-term", ("repr", "--family", _raw("discrete", "-1,4,2,1,-1/2"),
                                   "--what", "series", "--n", "2"),
     "series multiplier vanishes at m=0"),
    ("falling-in-basis-three-term", ("repr", "--family", _raw("discrete", "-1,4,2,1,-1/2"),
                                     "--what", "in-basis", "--n", "1"),
     "inverse-series multiplier vanishes at m=0"),
    ("connect-continuous", ("connect", "--from", _raw("continuous", "1,0,-2,-4,1/2"),
                            "--to", _raw("continuous", "1,0,-2,2,1"), "--n", "4"),
     "vanishing leading multiplier at m=1"),
    ("connect-discrete", ("connect", "--from", _raw("discrete", "-1,-2,0,3,-2"),
                          "--to", _raw("discrete", "-1,-2,0,-3,4"), "--n", "4"),
     "vanishing leading multiplier at m=0"),
)


class TestExitCodes:
    @pytest.mark.parametrize("argv, message", [case[1:] for case in VANISHING_MULTIPLIERS],
                             ids=[case[0] for case in VANISHING_MULTIPLIERS])
    def test_vanishing_multiplier_is_named(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (INADMISSIBLE, "")
        assert err == f"opoly: inadmissible spec: {message}\n"

    def test_key_error_message_is_printed_as_written(self, capsys):
        at = "alpha=1/2,beta=1/3,N=10"
        cases = (
            (("verify", "--family", "hermite", "--n-max", "3", "--relations", "foo"),
             "unknown relations: ['foo']"),
            (("param-deriv", "--family", "nope", "--param", "alpha", "--n", "1",
              "--at", "alpha=1"), "unknown family 'nope'"),
            (("param-deriv", "--family", "hahn", "--param", "N", "--n", "1", "--at", at),
             "no parameter-derivative formula for ('hahn', 'N'); "
             f"known: {PARAMETER_DERIVATIVE_PAIRS}"),
        )
        for argv, message in cases:
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (USAGE_ERROR, ""), argv
            assert err == f"opoly: {message}\n", argv

    def test_verify_ok(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family",
                               "jacobi:alpha=1/2,beta=-1/3", "--n-max", "6")
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "tabulate", "--family", "hermite",
                               "--what", "bogus", "--n-max", "3")
        assert code == USAGE_ERROR
        assert err

    def test_unknown_flag_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--family", "hermite",
                             "--n-max", "4", "--frobnicate")
        assert code == USAGE_ERROR

    def test_inadmissible_spec(self, capsys):
        cases = (
            ("tabulate", "--family", "gegenbauer:alpha=-3/2", "--what", "recurrence",
             "--n-max", "5"),
            # the family builder itself divides by 1 - p
            ("tabulate", "--family", "krawtchouk:p=1,N=3", "--what", "recurrence",
             "--n-max", "3"),
            ("repr", "--family", "krawtchouk:p=1,N=3", "--what", "series", "--n", "3"),
            # k_0 = ((mu - 1)/mu)^0 has a vanishing denominator
            ("generate", "--family", "meixner:gamma=1,mu=0", "--n-max", "2"),
            # poles of the printed parameter-derivative formulas
            ("param-deriv", "--family", "jacobi", "--param", "alpha", "--n", "3",
             "--at", "alpha=-1,beta=0"),
            ("param-deriv", "--family", "charlier", "--param", "mu", "--n", "3",
             "--at", "mu=0"),
        )
        for argv in cases:
            code, out, err = run_cli(capsys, *argv)
            assert code == INADMISSIBLE, argv
            assert not out
            assert "inadmissible" in err and "Traceback" not in err

    def test_degree_zero_needs_no_recurrence_step(self, capsys):
        # k_1 = 0 for gegenbauer alpha=0, but p_0 = k_0 = 1 exists
        family = "gegenbauer:alpha=0"
        code, out, _ = run_cli(capsys, "generate", "--family", family, "--n-max", "0")
        assert code == 0
        assert json.loads(out)["polynomials"] == [{"n": 0, "coeffs": ["1"]}]
        code, _, _ = run_cli(capsys, "generate", "--family", family, "--n-max", "1")
        assert code == INADMISSIBLE

    def test_degenerate_tau_at_catalog_point_is_inadmissible(self, capsys):
        # the parameters parse, but tau = d x + e loses its degree there (d = 0)
        cases = (
            ("generate", "--family", "gegenbauer:alpha=-1/2", "--n-max", "3"),
            ("connect", "--from", "jacobi:alpha=1,beta=1", "--to", "jacobi:alpha=-1,beta=-1",
             "--n", "3"),
            # the formula has no pole here; only building the family fails
            ("param-deriv", "--family", "gegenbauer-monic", "--param", "alpha", "--n", "3",
             "--at", "alpha=-1/2"),
        )
        for argv in cases:
            code, out, err = run_cli(capsys, *argv)
            assert code == INADMISSIBLE, argv
            assert not out
            assert "inadmissible" in err and "degenerates at" in err, argv
            assert "Traceback" not in err
        # a raw spec states d itself: d = 0 stays a usage error
        code, out, err = run_cli(capsys, "generate", "--family",
                                 "raw:kind=continuous,a=0,b=1,c=0,d=0,e=1,k=monic",
                                 "--n-max", "3")
        assert code == USAGE_ERROR
        assert not out
        assert err.startswith("opoly: ") and "tau must have degree exactly 1" in err

    def test_connect_with_degenerate_derivative_system(self, capsys):
        # d + 2a = 0: the derivatives' tau loses its degree, on either side of the pair
        for kind in ("continuous", "discrete"):
            sigma = f"raw:kind={kind},a=1,b=1/2,c=1/3"
            degenerate, other = f"{sigma},d=-2,e=1/5,k=monic", f"{sigma},d=3,e=1,k=monic"
            for src, dst in ((degenerate, other), (other, degenerate)):
                code, out, err = run_cli(capsys, "connect", "--from", src, "--to", dst,
                                         "--n", "4", "--method", "recurrence")
                assert (code, out) == (INADMISSIBLE, ""), (src, dst)
                assert err == ("opoly: inadmissible spec: "
                               "tau must have degree exactly 1 (d != 0)\n")

    def test_zero_denominator_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "generate", "--family", "laguerre:alpha=1/0",
                                 "--n-max", "3")
        assert code == USAGE_ERROR
        assert not out
        assert err.startswith("opoly: ") and "Traceback" not in err

    def test_unknown_at_key_is_usage_error(self, capsys):
        for at in ("beta=2", "alpha=2,beta=2", "alpha=2,alpha=3", "alpha"):
            code, out, err = run_cli(capsys, "param-deriv", "--family", "laguerre",
                                     "--param", "alpha", "--n", "3", "--at", at)
            assert code == USAGE_ERROR, at
            assert not out
            assert err.startswith("opoly: ") and "Traceback" not in err
        # a malformed item is named, as in --family
        assert err == "opoly: malformed parameter 'alpha' in 'alpha'\n"

    def test_verify_relation_the_kind_lacks_is_usage_error(self, capsys):
        # as tabulate --what delta is on a continuous family: a run that checks
        # nothing must not pass
        for relations in ("delta_rule", "equation,delta_rule"):
            code, out, err = run_cli(capsys, "verify", "--family", "hermite", "--n-max", "3",
                                     "--relations", relations, "--skip-crosschecks")
            assert (code, out) == (USAGE_ERROR, ""), relations
            assert err == "opoly: relation 'delta_rule' does not apply to continuous families\n"
        code, out, _ = run_cli(capsys, "verify", "--family", "charlier:mu=2", "--n-max", "3",
                               "--relations", "delta_rule", "--skip-crosschecks")
        data = json.loads(out)
        assert (code, data["relations"]) == (0, ["delta_rule"])
        assert [(c["relation"], c["n"]) for c in data["checks"]] == [("delta_rule", 1),
                                                                     ("delta_rule", 2)]

    def test_tabulate_relation_the_kind_lacks_is_usage_error_at_every_n_max(self, capsys):
        # below the relation's first degree too: an empty table is no answer
        for n_max in ("0", "1", "3"):
            code, out, err = run_cli(capsys, "tabulate", "--family", "hermite",
                                     "--what", "delta", "--n-max", n_max)
            assert (code, out) == (USAGE_ERROR, ""), n_max
            assert err == "opoly: delta rule applies to discrete families\n", n_max
        code, out, _ = run_cli(capsys, "tabulate", "--family", "charlier:mu=2",
                               "--what", "delta", "--n-max", "0")
        assert (code, json.loads(out)["entries"]) == (0, [])

    def test_verify_empty_relation_is_usage_error(self, capsys):
        # an empty --relations checks nothing, so it is the unknown relation ''
        for relations in ("", "equation,,recurrence"):
            code, out, err = run_cli(capsys, "verify", "--family", "hermite", "--n-max", "3",
                                     "--relations", relations)
            assert (code, out) == (USAGE_ERROR, ""), relations
            assert err == "opoly: unknown relations: ['']\n", relations

    def test_verify_repeated_relation_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--family", "hermite", "--n-max", "3",
                                 "--relations", "recurrence,equation,recurrence")
        assert (code, out) == (USAGE_ERROR, "")
        assert err == "opoly: duplicate relation 'recurrence' in 'recurrence,equation,recurrence'\n"

    def test_hahn_q_beyond_lattice_is_inadmissible(self, capsys):
        # k_n divides by (-N)_n, which vanishes for n > N
        family = "hahn-q:alpha=1,beta=2,N=5"
        for argv in (("tabulate", "--what", "recurrence"), ("generate",), ("verify",)):
            code, out, err = run_cli(capsys, *argv, "--family", family, "--n-max", "8")
            assert code == INADMISSIBLE, argv
            assert not out
            assert "inadmissible" in err
        code, _, _ = run_cli(capsys, "tabulate", "--what", "recurrence",
                             "--family", family, "--n-max", "4")
        assert code == 0

    def test_verify_fails_iff_nonzero_residual(self, capsys, monkeypatch):
        # force a wrong coefficient; the residual must be flagged with exit 3
        _break_derivative_rule_at_3(monkeypatch)
        code, out, _ = run_cli(capsys, "verify", "--family", "hermite",
                               "--n-max", "5", "--skip-crosschecks",
                               "--relations", "equation,recurrence,derivative_rule")
        assert code == VERIFY_FAILED
        data = json.loads(out)
        bad = [c for c in data["checks"] if not c["ok"]]
        assert bad and all(c["relation"] == "derivative_rule" and c["n"] == 3
                           for c in bad)
        assert all(c["residual"] for c in bad)

    def test_crosscheck_flags_wrong_starred_triple(self, capsys, monkeypatch):
        # no residual check runs on the starred relation here; only the
        # formula-vs-oracle comparison can see the wrong triple
        original = diagnostics.formula_triples

        def broken(spec, n):
            out = original(spec, n)
            if n == 3:
                t = out["starred"]
                out = {**out, "starred": CoefficientTriple(t.hi, t.mid + 1, t.lo)}
            return out

        monkeypatch.setattr(diagnostics, "formula_triples", broken)
        code, out, _ = run_cli(capsys, "verify", "--family", "hermite", "--n-max", "5",
                               "--relations", "equation,recurrence")
        assert code == VERIFY_FAILED
        data = json.loads(out)
        assert all(c["ok"] for c in data["checks"])
        assert {"check": "starred-vs-oracle", "n": 3} in data["oracle_mismatches"]
        assert all(set(m) == {"check", "n"} for m in data["oracle_mismatches"])

    def test_crosscheck_flags_wrong_derivative_rule(self, capsys, monkeypatch):
        _break_derivative_rule_at_3(monkeypatch)
        code, out, _ = run_cli(capsys, "verify", "--family", "hermite", "--n-max", "5",
                               "--relations", "equation")
        assert code == VERIFY_FAILED
        data = json.loads(out)
        assert all(c["ok"] for c in data["checks"])
        assert {"check": "derivative-vs-oracle", "n": 3} in data["oracle_mismatches"]
        assert all(set(m) == {"check", "n"} for m in data["oracle_mismatches"])


def _solve_calls(monkeypatch):
    calls = []
    original = structure.solve_equation

    def counted(spec, n):
        calls.append(n)
        return original(spec, n)

    monkeypatch.setattr(structure, "solve_equation", counted)
    return calls


class TestVerifyReads:
    """verify computes the triples of the relations it checks, and no other."""

    def test_the_equation_alone_reads_no_triple(self, capsys, monkeypatch):
        # generate's steps read the xpn pairs, which verify checks in no
        # relation: they are counted apart, one per step to p_9
        calls = []
        original = structure._composed

        def counted(spec, key, n, alone=False):
            calls.append(key)
            return original(spec, key, n, alone)

        monkeypatch.setattr(structure, "_composed", counted)
        for relations, wanted in (("equation", []),
                                  ("equation,derivative_rule", ["derivative"] * 7)):
            del calls[:]
            code, _, _ = run_cli(capsys, "verify", "--family", "jacobi:alpha=1/2,beta=-1/3",
                                 "--n-max", "8", "--relations", relations, "--skip-crosschecks")
            triples = [key for key in calls if key != "xpn"]
            assert (code, triples, calls.count("xpn")) == (0, wanted, 9), relations

    def test_d_plus_2a_zero_fails_in_generate(self, capsys):
        # d + 2a = 0 makes the B_1 denominator (d + 2a) d vanish, so the
        # basis cannot be generated: verify exits before any triple is read,
        # whichever relations it checks
        for relations in ("equation", "equation,recurrence"):
            code, _, err = run_cli(capsys, "verify", "--family", _raw("continuous", "1,0,1,-2,1"),
                                   "--n-max", "4", "--relations", relations,
                                   "--skip-crosschecks")
            assert code == INADMISSIBLE and "B_1 denominator vanishes" in err, relations


def _family_arg(name, params):
    pairs = ",".join(f"{key}={format_rational(value)}" for key, value in params.items())
    return f"{name}:{pairs}" if pairs else name


class TestVerifyBasis:
    """Where every equation residual is zero, p_{n_max+1}'s too, the oracle
    basis is generate's own; elsewhere it is solved."""

    def test_default_verify_solves_nothing(self, capsys, monkeypatch):
        calls = _solve_calls(monkeypatch)
        for name, points in FAMILY_POINTS.items():
            code, _, _ = run_cli(capsys, "verify", "--family", _family_arg(name, points[0]),
                                 "--n-max", "6")
            assert code == 0, name
        assert calls == []

    def test_verify_without_the_equation_solves_it(self, capsys, monkeypatch):
        # the output digests are the ones printed before the basis was taken
        # from the residuals
        pinned = {
            "jacobi:alpha=1/2,beta=-1/3":
                "df759e9a3f739794dc68a6b6e5e12e5f3b797f460ae01ba7cc0af50c736ff881",
            "hahn:alpha=1/2,beta=1/3,N=14":
                "7c2b1f765a3275d52fc3620cf3141f34577f8f8261ac0cf91426fb23383d7cd4",
        }
        calls = _solve_calls(monkeypatch)
        for family, digest in pinned.items():
            del calls[:]
            code, out, _ = run_cli(capsys, "verify", "--family", family, "--n-max", "8",
                                   "--relations", "recurrence,derivative_rule")
            assert code == 0, family
            assert hashlib.sha256(out.encode()).hexdigest() == digest, family
            assert calls == list(range(10)), family

    @pytest.mark.parametrize("family", ["hermite", "charlier:mu=2",
                                        "jacobi:alpha=1/2,beta=-1/3"])
    @pytest.mark.parametrize("wrong", [2, 5])
    def test_corrupted_recurrence_reports_as_the_solved_basis(self, capsys, monkeypatch,
                                                              family, wrong):
        # a wrong B_wrong makes generate's p_{wrong+1} on wrong; the recurrence
        # residuals, computed from the same triples, stay zero.  At wrong =
        # n_max only p_{n_max+1} is wrong, which no recorded check reads.
        # B_n/A_n is made one more at n = wrong in its entry quotient, which
        # generate steps on and recurrence_coeffs evaluates
        original = structure._b_quotient

        class Corrupted(_Quotient):
            __slots__ = ()

            def values(self, n):
                num, den = super().values(n)
                return (num + den, den) if n == wrong else (num, den)

        def broken(spec, starred):
            entry = original(spec, starred)
            return Corrupted(entry.num, entry.den) if not starred else entry

        monkeypatch.setattr(structure, "_b_quotient", broken)
        argv = ("verify", "--family", family, "--n-max", "5")
        calls = _solve_calls(monkeypatch)
        got = run_cli(capsys, *argv)
        assert calls == list(range(7))
        monkeypatch.setattr(structure, "equation_basis",
                            lambda spec, report: structure.oracle_basis(spec, report.n_max + 1))
        assert run_cli(capsys, *argv) == got
        code, out, _ = got
        assert code == VERIFY_FAILED
        found = {(m["check"], m["n"]) for m in json.loads(out)["oracle_mismatches"]}
        assert ("recurrence-vs-oracle", wrong) in found
        assert (("equation-solver", wrong + 1) in found) == (wrong < 5)


def _oracle_calls(monkeypatch):
    """The calls of the dual-number oracle, and of generate on dual data
    (which only the oracle makes), during a test."""
    calls = []
    generate_, oracle = connection.generate, connection.exact_parameter_derivative

    def counted_generate(spec, n_max):
        if spec._ints is None:  # dual-number data
            calls.append(("dual generate", spec.name, n_max))
        return generate_(spec, n_max)

    def counted_oracle(*args):
        calls.append(("oracle", *args))
        return oracle(*args)

    monkeypatch.setattr(connection, "generate", counted_generate)
    monkeypatch.setattr(connection, "exact_parameter_derivative", counted_oracle)
    return calls


def _param_deriv(capsys, family, param, at, n=5):
    text = ",".join(f"{k}={format_rational(v)}" for k, v in at.items())
    code, out, _ = run_cli(capsys, "param-deriv", "--family", family, "--param", param,
                           "--n", str(n), "--at", text)
    return code, json.loads(out)["matches_exact_derivative"]


class TestParamDerivCertificate:
    """A default ``param-deriv`` decides by the certificate: the dual-number
    oracle, and with it the generate on dual data, runs only on fallback."""

    def test_default_param_deriv_runs_no_oracle(self, capsys, monkeypatch):
        calls = _oracle_calls(monkeypatch)
        plain_k = set()
        for family, param in PARAMETER_DERIVATIVE_PAIRS:
            at = PD_POINTS[family.removesuffix("-monic")][0]
            assert _param_deriv(capsys, family, param, at) == (0, True), family
            seeded = {k: Dual(v, 1 if k == param else 0) for k, v in at.items()}
            if not isinstance(catalog(family, seeded).k(5), Dual):
                plain_k.add(family)
        assert calls == []
        # every monic row, and Laguerre and Krawtchouk, have a k_n without the
        # parameter: the certificate checks its eps part 0 as the lead
        monic = {family for family, _ in PARAMETER_DERIVATIVE_PAIRS if family.endswith("-monic")}
        assert monic | {"laguerre", "krawtchouk"} <= plain_k

    def test_equal_eigenvalues_run_the_oracle(self, capsys, monkeypatch):
        # lambda_1 read as lambda_5: every other check of the certificate holds
        calls = _oracle_calls(monkeypatch)
        lambda_n = connection.lambda_n
        monkeypatch.setattr(connection, "lambda_n",
                            lambda spec, j: lambda_n(spec, 5 if j == 1 else j))
        assert _param_deriv(capsys, "laguerre", "alpha", {"alpha": F(2)}) == (0, True)
        assert [call[0] for call in calls] == ["oracle", "dual generate"]

    def test_a_basis_off_the_equation_runs_the_oracle(self, capsys, monkeypatch):
        # p_n + 1 does not solve the equation; the oracle differentiates the
        # same p_n + 1, whose derivative is that of p_n, and D_n = 0 here
        generate_ = connection.generate
        monkeypatch.setattr(connection, "generate",
                            lambda spec, n: [*generate_(spec, n)[:-1], generate_(spec, n)[-1] + 1])
        calls = _oracle_calls(monkeypatch)
        assert _param_deriv(capsys, "laguerre", "alpha", {"alpha": F(2)}) == (0, True)
        assert [call[0] for call in calls] == ["oracle", "dual generate"]


class TestParser:
    def test_one_parser_serves_every_run(self, capsys, monkeypatch):
        argvs = (("tabulate", "--family", "hermite", "--what", "bogus", "--n-max", "3"),
                 ("verify", "--family", "laguerre:alpha=1/2", "--n-max", "4",
                  "--skip-crosschecks"),
                 ("tabulate", "--family", "hermite", "--what", "recurrence", "--n-max", "3"))
        shared = [run_cli(capsys, *argv) for argv in argvs]
        assert [code for code, _, _ in shared] == [USAGE_ERROR, 0, 0]
        assert cli._parser() is cli._parser()
        monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a fresh parser per run
        assert [run_cli(capsys, *argv) for argv in argvs] == shared


class TestConnectCommand:
    def test_laguerre_shift(self, capsys):
        code, out, _ = run_cli(capsys, "connect", "--from", "laguerre:alpha=2",
                               "--to", "laguerre:alpha=0", "--n", "3")
        assert code == 0
        data = json.loads(out)
        # coefficients (2)_{3-m}/(3-m)!
        assert data["coeffs"] == {"0": "4", "1": "3", "2": "2", "3": "1"}

    def test_row_schema(self, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        _, out, _ = run_cli(capsys, "connect", "--from", "charlier:mu=2",
                            "--to", "charlier:mu=3", "--n", "4")
        jsonschema.validate(json.loads(out), ROW_SCHEMA)

    def test_recurrence_method_on_monic_pair(self, capsys):
        code, out, _ = run_cli(capsys, "connect", "--from", "charlier-monic:mu=2",
                               "--to", "charlier-monic:mu=3", "--n", "3",
                               "--method", "recurrence")
        assert code == 0
        assert json.loads(out)["method"] == "recurrence"


class TestDeterminism:
    def test_byte_identical_output(self, capsys):
        args = ("verify", "--family", "meixner:gamma=2,mu=1/3", "--n-max", "5")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_verify_output_is_pinned(self, capsys):
        # sha256 of the verify stdout; the oracle and shift kernels behind the
        # cross-checks may change, the bytes they print may not
        pinned = {
            "jacobi:alpha=1/2,beta=-1/3":
                "6c52c555a4b129de250965b53d9c54dd4e25be4d285bb86368865d2850609ef1",
            "hahn:alpha=1/2,beta=1/3,N=14":
                "739f7d71ce545a834863189910ece83a452bd840d06e9b4e865120e9ebaaab48",
            "raw:kind=continuous,a=-1,b=1/2,c=2,d=-3,e=1/3,k=monic":
                "2d02c5f3f4053f5e752931b9f4353c5f38e4f00e913b59ea4a0e66f6904ef0b9",
        }
        for family, digest in pinned.items():
            code, out, _ = run_cli(capsys, "verify", "--family", family, "--n-max", "8")
            assert code == 0, family
            assert hashlib.sha256(out.encode()).hexdigest() == digest, family

    def test_diagnostics_output_is_pinned(self, capsys):
        # sha256 of the diagnostics stdout: its structure comparison takes
        # every oracle triple from a solve, with no residual verdicts (both
        # depths print the same report while nothing is unresolved)
        digest = "0a0bdbdb4ca1d225d2cc5585d79c5b00fc5d32b2cda15ad36a2dfdbda326cbc8"
        for argv in (("diagnostics",), ("diagnostics", "--quick")):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0, argv
            assert hashlib.sha256(out.encode()).hexdigest() == digest, argv

    def test_formula_output_is_pinned(self, capsys):
        # sha256 of the tabulate and generate stdout; how k_n and the
        # formulas are evaluated may change, the bytes they print may not
        pinned = {
            "jacobi:alpha=1/2,beta=-1/3": {
                "recurrence": "83b94cb513f5e94096d99d15418a716e11690781514deffdf6fc83a2beed5592",
                "xpn": "f4ce319375fba6438525ac38b465a1c467f5127bbb947235c8dd2261aeca52f0",
                "derivative": "f81bf0c564cd8d6437763206ae49e760f4ac96c61c1868af1095adb4c284b6aa",
                "delta": None,  # a usage error: the delta rule is discrete only
                "starred": "392c7a589f0423b7784d94d3145516d45b6d4936bae2697078694901ee5c2b74",
                "primed": "625be367494b09dccdcdf660001964bdef200a0c977331e1cd1879de3398a1e9",
                "hatted": "48317b42e5bca17755b0052fcb11f915a2d4df07e6bc888472e1c9d0ec023fb6",
                "generate": "cb1953c8378fe3df0a476ae2c9a1e00077e3e16295b3773576e295cf9ff7e648",
            },
            "hahn:alpha=1/2,beta=1/3,N=50": {
                "recurrence": "f83918f4ad64987d51ad80188db1a98085f575495691b4886170d37c8d148b69",
                "xpn": "cd2384a7dbe5934be8eee53275597dffe9633448e3f36a822a21d7c0a2bf6d9d",
                "derivative": "0819883a1560a9bade17c94cdd85c7dae8f67c317373ed839d48a6b5aff48ce0",
                "delta": "0ea1ee0d4efe4783a1c6e4c9827719a5bb47c09bd33623ace6c66b598c1ada2f",
                "starred": "bcf187d5674812c894bbe7712a23946babfc1f5448c7b7e8e523093460491d4b",
                "primed": "d116729c502e03a34f779f2bdd54f887d6630a71b020a4c8682cf8bf736801eb",
                "hatted": "b6d3011b0779a47cac2d9b67ba235d50230ab97a38a24dc6df78e69b2390606c",
                "generate": "a0f2b58d36aaf94a7d98fc8b698f95aa9a853a791a987aacc909fcc1a01f7620",
            },
        }
        for family, digests in pinned.items():
            for what, digest in digests.items():
                argv = (["generate", "--family", family, "--n-max", "30"] if what == "generate"
                        else ["tabulate", "--family", family, "--what", what, "--n-max", "40"])
                code, out, _ = run_cli(capsys, *argv)
                if digest is None:
                    assert (code, out) == (USAGE_ERROR, ""), (family, what)
                    continue
                assert code == 0, (family, what)
                assert hashlib.sha256(out.encode()).hexdigest() == digest, (family, what)

    def test_connection_output_is_pinned(self, capsys):
        # sha256 of the param-deriv and connect stdout; how the derivative
        # oracle and the recurrence route compute may change, the bytes they
        # print may not
        digest = hashlib.sha256()
        for family, param in PARAMETER_DERIVATIVE_PAIRS:
            at = ",".join(f"{k}={format_rational(v)}" for k, v
                          in diagnostics.PARAMETER_DERIVATIVE_POINTS[family].items())
            code, out, _ = run_cli(capsys, "param-deriv", "--family", family,
                                   "--param", param, "--n", "6", "--at", at)
            assert code == 0, (family, param)
            digest.update(out.encode())
        assert digest.hexdigest() == \
            "696443b908fb420172da665d02c2dbc06cf2b012d9fd6e7f660c1a4f8770a9a4"
        pinned = {
            ("jacobi-monic:alpha=1/2,beta=1/3", "jacobi-monic:alpha=2,beta=1/3", "auto"):
                "c7773186daf04b3b26de3800181e628f99db8c8bf9d32b5eae3ecc6c78f09113",
            ("hahn-monic:alpha=1/2,beta=1/3,N=30", "hahn-monic:alpha=1/2,beta=3,N=30", "auto"):
                "a023a973941b576f461beb515856156583db7407c483c2c163a4d87afce13bd4",
            ("charlier-monic:mu=2", "meixner-monic:gamma=2,mu=1/3", "auto"):
                "b8d0481e522d94530070f5d478a6e2ba95743c55125bbe5a8f2042ded115a631",
            ("jacobi:alpha=1/2,beta=-1/3", "hermite", "oracle"):
                "32921b0ebc0fde39e14ea94c08571a1ca6c3d7af9276c1b7e20dd699f40254b7",
        }
        for (src, dst, method), want in pinned.items():
            code, out, _ = run_cli(capsys, "connect", "--from", src, "--to", dst,
                                   "--n", "16", "--method", method)
            assert code == 0, (src, dst)
            assert json.loads(out)["method"] == ("recurrence" if method == "auto"
                                                 else method), (src, dst)
            assert hashlib.sha256(out.encode()).hexdigest() == want, (src, dst)


class TestReprCommand:
    def test_series_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "repr", "--family", "charlier:mu=1",
                            "--what", "series", "--n", "2")
        data = json.loads(out)
        assert data["basis"] == "falling"
        assert data["coeffs"] == ["1", "-2", "1"]

    def test_closed_form_unsupported(self, capsys):
        code, out, _ = run_cli(capsys, "repr", "--family",
                               "k-family:alpha=3,beta=1/2", "--what", "closed-form")
        assert code == 0
        assert json.loads(out)["supported"] is False

    def test_in_basis(self, capsys):
        _, out, _ = run_cli(capsys, "repr", "--family", "hermite",
                            "--what", "in-basis", "--n", "2")
        assert json.loads(out)["coeffs"] == ["1/2", "0", "1/4"]


class TestParamDerivCommand:
    def test_laguerre(self, capsys):
        code, out, _ = run_cli(capsys, "param-deriv", "--family", "laguerre",
                               "--param", "alpha", "--n", "3", "--at", "alpha=2")
        assert code == 0
        data = json.loads(out)
        assert data["matches_exact_derivative"] is True
        assert data["coeffs"] == {"0": "1/3", "1": "1/2", "2": "1", "3": "0"}

    def test_parameter_without_formula_is_usage_error_at_every_n(self, capsys):
        at = "alpha=1/2,beta=1/3,N=10"
        for n in ("0", "1"):
            code, out, err = run_cli(capsys, "param-deriv", "--family", "hahn",
                                     "--param", "N", "--n", n, "--at", at)
            assert (code, out) == (USAGE_ERROR, ""), n
            assert "no parameter-derivative formula for ('hahn', 'N')" in err, n
        # a pair with a formula still gives the zero row at n = 0
        code, out, _ = run_cli(capsys, "param-deriv", "--family", "hahn",
                               "--param", "alpha", "--n", "0", "--at", at)
        assert code == 0 and json.loads(out)["coeffs"] == {"0": "0"}
