"""Literal and operator mutants of named functions, run against the tests.

    python3 tools/mutants.py --file src/opoly/structure.py \\
        --function _composed --function _ratio_prefix \\
        --tests tests/test_structure.py::TestCompiledTheorem1 --workdir ../mutants

Copies this checkout (without ``.git``) to ``--workdir`` and, for every
mutation site inside the named functions of ``--file``, writes one mutant
there and runs ``pytest -x`` on the ``--tests`` subset; a mutant that
survives the subset is run again on the whole suite.  The sites are:

* an int literal, mutated to itself plus one and minus one;
* a binary operator: ``+`` and ``-`` swapped, ``*`` and ``/`` swapped;
* a comparison: ``==`` and ``!=``, ``<`` and ``<=``, ``>`` and ``>=`` swapped;
* ``and`` and ``or`` swapped;
* a unary ``-`` or ``not`` dropped.

Each mutant changes one site and nothing else in the file.  A run that
fails, takes longer than ``--timeout`` seconds or needs more than
``MEMORY_LIMIT`` bytes of address space kills the mutant (a mutated loop
condition can grow a memo without bound).
Prints one line per mutant and then the killed and survived counts with
the survivors; a survivor is either a gap in the tests or an equivalent
mutant, which only a reader can tell apart.  The checkout itself is never
written.
"""

from __future__ import annotations

import argparse
import ast
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MEMORY_LIMIT = 2 << 30  # bytes of address space for each test run
SWAPS = {ast.Add: "-", ast.Sub: "+", ast.Mult: "/", ast.Div: "*",
         ast.Eq: "!=", ast.NotEq: "==", ast.Lt: "<=", ast.LtE: "<", ast.Gt: ">=", ast.GtE: ">"}
SYMBOLS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Eq: "==",
           ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">="}


def _offset(lines: list[str], line: int, col: int) -> int:
    """The character offset of (line, col), 1-based line as ``ast`` gives it."""
    return sum(len(text) for text in lines[:line - 1]) + col


def _between(source: str, lines, left: ast.AST, right: ast.AST, symbol: str) -> tuple[int, int]:
    """The span of ``symbol`` between the end of ``left`` and the start of ``right``."""
    start = _offset(lines, left.end_lineno, left.end_col_offset)
    stop = _offset(lines, right.lineno, right.col_offset)
    at = source.index(symbol, start, stop)
    return at, at + len(symbol)


def sites(source: str, functions: set[str]) -> list[tuple[int, int, str, int]]:
    """(start, stop, replacement, line) of every mutant in the named functions."""
    lines = source.splitlines(keepends=True)
    out = []
    for top in ast.walk(ast.parse(source)):
        if not isinstance(top, ast.FunctionDef) or top.name not in functions:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Constant) and type(node.value) is int:
                span = (_offset(lines, node.lineno, node.col_offset),
                        _offset(lines, node.end_lineno, node.end_col_offset))
                out += [(*span, f"({node.value + step})", node.lineno) for step in (1, -1)]
            elif isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
                span = _between(source, lines, node.left, node.right, SYMBOLS[type(node.op)])
                out.append((*span, SWAPS[type(node.op)], node.lineno))
            elif isinstance(node, ast.Compare):
                for left, op, right in zip([node.left, *node.comparators], node.ops,
                                           node.comparators):
                    if type(op) in SWAPS:
                        span = _between(source, lines, left, right, SYMBOLS[type(op)])
                        out.append((*span, SWAPS[type(op)], node.lineno))
            elif isinstance(node, ast.BoolOp):
                word = "and" if isinstance(node.op, ast.And) else "or"
                for left, right in zip(node.values, node.values[1:]):
                    span = _between(source, lines, left, right, f" {word} ")
                    out.append((*span, " or " if word == "and" else " and ", node.lineno))
            elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.Not)):
                start = _offset(lines, node.lineno, node.col_offset)
                stop = start + 1 if isinstance(node.op, ast.USub) else start + 3
                while source[stop] == " ":
                    stop += 1
                out.append((start, stop, "", node.lineno))
    return sorted(set(out))


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_tests(workdir: Path, tests: list[str], timeout: float) -> bool:
    """True where the tests pass in ``workdir``."""
    env = {**os.environ, "PYTHONPATH": str(workdir / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                               "no:cacheprovider", *tests], cwd=workdir, env=env,
                              capture_output=True, timeout=timeout, preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--file", required=True, help="the source file, relative to the root")
    parser.add_argument("--function", action="append", required=True)
    parser.add_argument("--tests", action="append", default=[], help="the pytest subset")
    parser.add_argument("--workdir", required=True, type=Path,
                        help="an empty or absent directory for the copy")
    parser.add_argument("--timeout", type=float, default=600.0)
    args = parser.parse_args(argv)

    shutil.copytree(ROOT, args.workdir, dirs_exist_ok=True, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
    target = args.workdir / args.file
    source = target.read_text()
    if not run_tests(args.workdir, [], args.timeout):
        raise SystemExit("mutants: the unmutated suite fails in the copy")
    survivors, killed = [], 0
    try:
        for start, stop, replacement, line in sites(source, set(args.function)):
            target.write_text(source[:start] + replacement + source[stop:])
            label = f"{args.file}:{line}: {source[start:stop].strip() or '?'} -> " \
                    f"{replacement.strip() or '(dropped)'}"
            alive = (run_tests(args.workdir, args.tests, args.timeout)
                     and run_tests(args.workdir, [], args.timeout))
            print(("SURVIVED " if alive else "killed   ") + label, flush=True)
            if alive:
                survivors.append(label)
            else:
                killed += 1
    finally:
        target.write_text(source)
    print(f"{killed} killed, {len(survivors)} survived")
    for label in survivors:
        print(f"  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
