"""Reference figures for single large calls, measured with the benchmark's harness.

    python3 bench/reference_figures.py

Times the calls of the baseline table in ROADMAP item 1 through
``opoly.cli.run`` in this process (the same ``run_op`` the benchmark uses;
median of three, after one untimed call), and each battery of
``diagnostics.transcription_report(deep=True)`` once.  These are not
benchmark workloads: their inputs are fixed, so they serve as landmarks for
the README, not as a regression gate.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from opoly import cli, diagnostics  # noqa: E402
from run import run_op  # noqa: E402

CALLS = [
    ["generate", "--family", "jacobi:alpha=1/2,beta=-1/3", "--n-max", "100"],
    ["generate", "--family", "jacobi:alpha=1/2,beta=-1/3", "--n-max", "200"],
    ["verify", "--family", "jacobi:alpha=1/2,beta=-1/3", "--n-max", "10"],
    ["verify", "--family", "jacobi:alpha=1/2,beta=-1/3", "--n-max", "20"],
    ["verify", "--family", "jacobi:alpha=1/2,beta=-1/3", "--n-max", "30"],
    ["verify", "--family", "jacobi:alpha=1/2,beta=-1/3", "--n-max", "10", "--skip-crosschecks"],
    ["verify", "--family", "jacobi:alpha=1/2,beta=-1/3", "--n-max", "20", "--skip-crosschecks"],
    ["verify", "--family", "jacobi:alpha=1/2,beta=-1/3", "--n-max", "30", "--skip-crosschecks"],
    ["verify", "--family", "hahn:alpha=1/2,beta=1/3,N=40", "--n-max", "20"],
    ["diagnostics", "--quick"],
]

BATTERIES = [
    ("check_structure_formulas", 5),
    ("check_series_formulas", 6),
    ("check_connection_recurrences", 6),
    ("check_closed_connections", 5),
    ("check_parameter_derivatives", 5),
]


def main() -> int:
    print("| call | exit | median of 3 (s) |")
    print("| --- | --- | --- |")
    for argv in CALLS:
        run_op(cli, argv, keep=False)
        runs = [run_op(cli, argv, keep=False) for _ in range(3)]
        print(f"| `opoly {' '.join(argv)}` | {runs[0].code} | "
              f"{statistics.median(r.wall for r in runs):.2f} |")
    print()
    print("| `transcription_report(deep=True)` battery | n_max | mismatches | time (s) |")
    print("| --- | --- | --- | --- |")
    total = 0.0
    for name, n_max in BATTERIES:
        start = time.perf_counter()
        found = getattr(diagnostics, name)(n_max)
        elapsed = time.perf_counter() - start
        total += elapsed
        print(f"| `{name}` | {n_max} | {len(found)} | {elapsed:.2f} |")
    print(f"| all five | | | {total:.2f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
