"""Command-line front end.

Verbs: ``tabulate`` (coefficient tables), ``generate`` (polynomials),
``verify`` (exact identity suite), ``repr`` (series / hypergeometric /
inverse representations), ``connect`` (connection rows), ``param-deriv``
(parameter derivatives).  Machine output goes to stdout (JSON or CSV per
``--format``), messages to stderr.

Exit codes: 0 success, 1 usage error, 2 inadmissible family spec,
3 verification failure (a nonzero residual or an oracle mismatch).

Rationals on the command line are written ``p/q`` (never decimals).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import cache
from typing import Iterable

from .algebra import format_rational, parse_rational
from .families import (
    CATALOG_NAMES,
    AdmissibilityError,
    FamilySpec,
    MONIC,
    catalog,
    spec_to_json,
)
from . import structure
from . import series
from . import connection as conn

USAGE_ERROR = 1
INADMISSIBLE = 2
VERIFY_FAILED = 3


class UsageError(ValueError):
    pass


def _key_values(items: str, text: str) -> dict[str, str]:
    """``key=value,...`` as a dict; a malformed or repeated item is named
    in a usage error that quotes ``text``."""
    pairs: dict[str, str] = {}
    for item in items.split(","):
        key, sep, value = item.partition("=")
        if not sep or not key or not value:
            raise UsageError(f"malformed parameter {item!r} in {text!r}")
        if key in pairs:
            raise UsageError(f"duplicate parameter {key!r} in {text!r}")
        pairs[key] = value
    return pairs


def parse_family(text: str) -> FamilySpec:
    """Parse ``name[:key=p/q,...]`` or ``raw:kind=...,a=...,...,k=monic``."""
    name, _, rest = text.partition(":")
    pairs = _key_values(rest, text) if rest else {}
    if name == "raw":
        wanted = {"kind", "a", "b", "c", "d", "e", "k"}
        if set(pairs) != wanted:
            raise UsageError(f"raw spec needs exactly {sorted(wanted)}")
        if pairs["k"] != "monic":
            raise UsageError("raw specs support only k=monic")
        if pairs["kind"] not in ("continuous", "discrete"):
            raise UsageError("kind must be continuous or discrete")
        try:
            return FamilySpec(pairs["kind"], *(parse_rational(pairs[x]) for x in "abcde"),
                              MONIC, "raw")
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    try:
        params = {key: parse_rational(value) for key, value in pairs.items()}
    except ValueError as exc:
        raise UsageError(f"bad rational in {text!r}: {exc}") from exc
    try:
        return catalog(name, params)
    except KeyError as exc:
        raise UsageError(f"unknown family {name!r}; catalog: {CATALOG_NAMES}") from exc
    except AdmissibilityError:
        raise
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _emit(payload: dict, fmt: str, csv_rows: tuple[list[str], Iterable[list[str]]] | None):
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"
    if fmt == "csv":
        if csv_rows is None:
            raise UsageError("this command has no CSV form; use --format json")
        header, rows = csv_rows
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    if csv_rows is None:
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"
    header, rows = csv_rows
    rows = [header] + [list(r) for r in rows]
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows]
    return "\n".join(lines) + "\n"


def cmd_tabulate(args) -> tuple[str, int]:
    spec = parse_family(args.family)
    cells = []  # n and the formatted lo, mid, hi: each value formatted once
    for n in range(structure.RELATIONS[args.what].start, args.n_max + 1):
        t = structure.formula_triple(spec, args.what, n)
        cells.append((n, format_rational(t.lo), format_rational(t.mid), format_rational(t.hi)))
    payload = {"relation": args.what,
               "entries": [{"n": n, "lo": lo, "mid": mid, "hi": hi} for n, lo, mid, hi in cells],
               "family": spec_to_json(spec)}
    rows = (["n", "lo", "mid", "hi"], [[str(n), *values] for n, *values in cells])
    return _emit(payload, args.format, rows), 0


def cmd_generate(args) -> tuple[str, int]:
    spec = parse_family(args.family)
    coeffs = [[format_rational(c) for c in p.coeffs]
              for p in structure.generate(spec, args.n_max)]
    payload = {
        "family": spec_to_json(spec),
        "basis": "monomial",
        "polynomials": [{"n": n, "coeffs": cs} for n, cs in enumerate(coeffs)],
    }
    rows = (["n", "coeffs"], [[str(n), " ".join(cs)] for n, cs in enumerate(coeffs)])
    return _emit(payload, args.format, rows), 0


def cmd_verify(args) -> tuple[str, int]:
    spec = parse_family(args.family)
    lacking = {r.check for r in structure.RELATIONS.values() if spec.kind not in r.kinds}
    relations = (tuple(args.relations.split(",")) if args.relations
                 else tuple(r for r in structure.RELATION_NAMES if r not in lacking))
    for i, name in enumerate(relations):
        if name in relations[:i]:
            raise UsageError(f"duplicate relation {name!r} in {args.relations!r}")
        if name in lacking:
            raise UsageError(f"relation {name!r} does not apply to {spec.kind} families")
    try:
        report = structure.verify_structure(spec, args.n_max, relations)
    except KeyError as exc:  # str() of a KeyError is the repr of its message
        raise UsageError(exc.args[0]) from exc
    mismatches = []
    if not args.skip_crosschecks:
        from . import diagnostics  # only this branch and cmd_diagnostics need it
        # equation solver and series round-trip against generate's p_n, then
        # every explicit triple against the oracle (as opoly diagnostics does)
        polys = report.polys
        basis = structure.oracle_basis(spec, args.n_max + 1)
        for n in range(args.n_max + 1):
            if basis[n] != polys[n]:
                mismatches.append({"check": "equation-solver", "n": n})
            if series.series_polynomial(spec, n) != polys[n]:
                mismatches.append({"check": "series-roundtrip", "n": n})
        mismatches += [{"check": f"{key}-vs-oracle", "n": n} for key, n, _, _
                       in diagnostics.structure_mismatches(spec, basis, args.n_max)]
        mismatches.sort(key=lambda m: m["n"])  # stable: by degree, checks in order
    payload = {
        "family": spec_to_json(spec),
        "n_max": args.n_max,
        "relations": list(relations),
        "checks": [{"relation": c.relation, "n": c.n, "ok": c.ok,
                    **({"residual": c.residual} if not c.ok else {})}
                   for c in report.checks],
        "oracle_mismatches": mismatches,
        "ok": report.ok and not mismatches,
    }
    rows = (["relation", "n", "ok"],
            [[c.relation, str(c.n), str(c.ok).lower()] for c in report.checks])
    code = 0 if payload["ok"] else VERIFY_FAILED
    return _emit(payload, args.format, rows), code


def cmd_repr(args) -> tuple[str, int]:
    spec = parse_family(args.family)
    if args.what in ("series", "in-basis") and args.n is None:
        raise UsageError(f"repr --what {args.what} needs --n")
    payload: dict = {"family": spec_to_json(spec), "what": args.what}
    if args.what == "series":
        sc = (series.power_coeffs(spec, args.n) if spec.kind == "continuous"
              else series.falling_coeffs(spec, args.n))
        payload.update({"n": args.n, "basis": sc.basis,
                        "coeffs": [format_rational(c) for c in sc.coeffs]})
        rows = (["m", "coeff"],
                [[str(m), format_rational(c)] for m, c in enumerate(sc.coeffs)])
    elif args.what == "closed-form":
        try:
            desc = series.closed_form(spec)
        except series.UnsupportedRepresentation as exc:
            payload.update({"supported": False, "reason": str(exc)})
            return _emit(payload, args.format, None), 0
        payload.update({"supported": True,
                        "descriptor": series.descriptor_to_json(desc, args.n)})
        if args.n is not None:
            sc = desc.expand(args.n)
            payload["expansion"] = {"n": args.n, "basis": sc.basis,
                                    "coeffs": [format_rational(c) for c in sc.coeffs]}
        rows = None
    else:  # in-basis
        sc = (series.power_in_basis(spec, args.n) if spec.kind == "continuous"
              else series.falling_in_basis(spec, args.n))
        payload.update({"n": args.n, "basis": sc.basis,
                        "coeffs": [format_rational(c) for c in sc.coeffs]})
        rows = (["m", "coeff"],
                [[str(m), format_rational(c)] for m, c in enumerate(sc.coeffs)])
    return _emit(payload, args.format, rows), 0


def cmd_connect(args) -> tuple[str, int]:
    p = parse_family(args.src)
    q = parse_family(args.dst)
    method = args.method
    if method == "auto":
        method = "recurrence" if (p.is_monic() and q.is_monic()
                                  and conn.compat(p, q) != conn.GENERAL) else "oracle"
    if method == "recurrence":
        row = conn.connect_recurrence(p, q, args.n)
    elif method == "oracle":
        row = conn.connect_oracle(p, q, args.n)
    else:
        raise UsageError(f"unknown method {args.method!r}")
    payload = {"from": spec_to_json(p), "to": spec_to_json(q), "method": method,
               "compat": conn.compat(p, q), **conn.row_to_json(row)}
    rows = (["m", "coeff"],
            [[str(m), format_rational(v)] for m, v in enumerate(row.coeffs)])
    return _emit(payload, args.format, rows), 0


def cmd_param_deriv(args) -> tuple[str, int]:
    pairs = _key_values(args.at, args.at)
    try:
        at = {key: parse_rational(value) for key, value in pairs.items()}
    except ValueError as exc:
        raise UsageError(f"bad --at value: {exc}") from exc
    try:
        row = conn.parameter_derivative(args.family, args.param, args.n, at)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from exc
    oracle = conn.exact_parameter_derivative(args.family, args.param, args.n, at)
    payload = {"family": args.family, "param": args.param, "at": {k: format_rational(v) for k, v in at.items()},
               "matches_exact_derivative": row.coeffs == oracle.coeffs,
               **conn.row_to_json(row)}
    rows = (["m", "coeff"],
            [[str(m), format_rational(v)] for m, v in enumerate(row.coeffs)])
    code = 0 if payload["matches_exact_derivative"] else VERIFY_FAILED
    return _emit(payload, args.format, rows), code


def cmd_diagnostics(args) -> tuple[str, int]:
    from . import diagnostics
    report = diagnostics.transcription_report(deep=not args.quick)
    code = 0 if not report["unresolved"] else VERIFY_FAILED
    return _emit(report, args.format, None), code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, per the CLI contract
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="opoly", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("json", "csv", "pretty"), default="json")

    p = sub.add_parser("tabulate", help="coefficient tables for one family")
    p.add_argument("--family", required=True)
    p.add_argument("--what", choices=structure.RELATIONS, required=True)
    p.add_argument("--n-max", type=int, required=True)
    add_common(p)

    p = sub.add_parser("generate", help="polynomials p_0..p_n_max")
    p.add_argument("--family", required=True)
    p.add_argument("--n-max", type=int, required=True)
    add_common(p)

    p = sub.add_parser("verify", help="exact identity suite for one family")
    p.add_argument("--family", required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--relations", default="")
    p.add_argument("--skip-crosschecks", action="store_true")
    add_common(p)

    p = sub.add_parser("repr", help="series / closed-form / inverse representations")
    p.add_argument("--family", required=True)
    p.add_argument("--what", choices=("series", "closed-form", "in-basis"), required=True)
    p.add_argument("--n", type=int)
    add_common(p)

    p = sub.add_parser("connect", help="connection coefficients between two families")
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("auto", "oracle", "recurrence"), default="auto")
    add_common(p)

    p = sub.add_parser("param-deriv", help="parameter derivative expansion")
    p.add_argument("--family", required=True)
    p.add_argument("--param", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--at", required=True, help="all parameters, e.g. alpha=1/2,beta=2")
    add_common(p)

    p = sub.add_parser("diagnostics", help="formula-vs-oracle transcription report")
    p.add_argument("--quick", action="store_true")
    add_common(p)

    return parser


# parse_args keeps no state on the parser, so one parser serves every run
_parser = cache(build_parser)

_COMMANDS = {
    "tabulate": cmd_tabulate,
    "generate": cmd_generate,
    "verify": cmd_verify,
    "repr": cmd_repr,
    "connect": cmd_connect,
    "param-deriv": cmd_param_deriv,
    "diagnostics": cmd_diagnostics,
}


def run(argv: list[str]) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        for attr in ("n", "n_max"):
            value = getattr(args, attr, None)
            if value is not None and value < 0:
                raise UsageError(f"--{attr.replace('_', '-')} must be nonnegative")
        output, code = _COMMANDS[args.verb](args)
    except AdmissibilityError as exc:
        print(f"opoly: inadmissible spec: {exc}", file=sys.stderr)
        return INADMISSIBLE
    except (UsageError, ValueError) as exc:
        print(f"opoly: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except KeyError as exc:
        print(f"opoly: {exc.args[0]}", file=sys.stderr)
        return USAGE_ERROR
    sys.stdout.write(output)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
