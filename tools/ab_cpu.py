"""In-process A/B of two checkouts' CPU time on one benchmark operation list.

    python3 tools/ab_cpu.py --parent ../parent-checkout --workload tables --seed 11 --rounds 3

Copies ``src/opoly`` of the parent checkout and of this checkout into a
temporary directory under two package names (every import inside the
package is relative, so each copy imports only itself), builds the seeded
operation list of the workload with this checkout's ``bench/workloads.py``
(the timed list of a ``RUN_SECONDS`` run), and runs every operation on both
sides through ``cli.run(argv)``, alternating which side goes first.  The
process CPU time of each call is summed per side; the exit code, stdout
and stderr of the two sides must be equal for every operation.

Prints, per round, each side's operations per CPU second and the ratio
change/parent (above 1: the change is faster), then the same over all
rounds.  ``bench/run.py`` stays the measure of record; this tool gives a
paired figure that drift of the machine between two separate runs cannot
flip.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_SECONDS = 30.0
SIDES = ("parent", "change")


def load(src: Path, package: str, into: Path):
    """``src`` (an opoly package directory) imported as ``package``."""
    shutil.copytree(src, into / package, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{package}.cli")


def run_op(cli, argv: list[str]) -> tuple[float, object, str, str]:
    """(CPU seconds, exit code, stdout, stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.process_time()
        code = cli.run(argv)
        cpu = time.process_time() - start
    return cpu, code, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="root of the checkout to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=1)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    ops = workloads.build(args.workload, args.seed, RUN_SECONDS).ops
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        clis = (load(args.parent / "src" / "opoly", "opoly_ab_parent", Path(tmp)),
                load(ROOT / "src" / "opoly", "opoly_ab_change", Path(tmp)))
        totals = [0.0, 0.0]
        for r in range(args.rounds):
            cpu = [0.0, 0.0]
            for i, op in enumerate(ops):
                order = (0, 1) if (r + i) % 2 == 0 else (1, 0)
                seen = {}
                for side in order:
                    seconds, *outputs = run_op(clis[side], op.argv())
                    cpu[side] += seconds
                    seen[side] = outputs
                if seen[0] != seen[1]:
                    raise SystemExit(f"outputs differ on {' '.join(op.argv())}")
            totals = [t + c for t, c in zip(totals, cpu)]
            print(f"round {r + 1}: " + "  ".join(
                f"{name} {len(ops) / c:.1f} ops/s" for name, c in zip(SIDES, cpu))
                + f"  ratio {cpu[0] / cpu[1]:.3f}")
        count = len(ops) * args.rounds
        print(f"{args.workload} seed {args.seed}, {len(ops)} operations x {args.rounds}: "
              + "  ".join(f"{name} {count / c:.1f} ops/s" for name, c in zip(SIDES, totals))
              + f"  ratio {totals[0] / totals[1]:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
