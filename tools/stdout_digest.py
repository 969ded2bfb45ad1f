"""One digest of everything the CLI prints on a benchmark operation list.

    python3 tools/stdout_digest.py --workload verify --seed 5

Builds the seeded operation list of one workload with ``bench/workloads.py``
(warm-up round first, then the timed list of a run of ``RUN_SECONDS``, the
run length ``BENCHMARK.json`` gives ``bench/run.py``), runs every
operation through ``opoly.cli.run(argv)`` in this process, and prints one
sha256 over the argv, stdout, stderr and exit code of each operation, with
the operation count.  Two checkouts that print the same digest for a
workload and seed behave identically on that list, byte for byte.

opoly is imported from ``src/`` of the checkout that holds this file, so run
the copy of this script inside each checkout being compared.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_SECONDS = 30.0


def run_op(cli, argv: list[str]) -> tuple[object, str, str]:
    """(exit code, stdout, stderr) of one CLI call; an escaped exception
    is recorded as exit code None and its message on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except Exception as exc:
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
    return code, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from opoly import cli
    import workloads

    plan = workloads.build(args.workload, args.seed, RUN_SECONDS)
    digest = hashlib.sha256()
    ops = plan.warmup + plan.ops
    for op in ops:
        code, out, err = run_op(cli, op.argv())
        digest.update(json.dumps([op.argv(), out, err, code]).encode())
        digest.update(b"\n")
    print(f"{args.workload} seed {args.seed}: {len(ops)} operations, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
