"""Fixed-work benchmark of the opoly command line.

    python3 bench/run.py --workload tables --seed 1 --seconds 30 --trace 0

Builds the seeded operation list of one workload (see ``workloads.py``),
runs an untimed warm-up round, then runs the whole list through
``opoly.cli.run(argv)`` in this process, one operation after another
(closed loop, one thread, ``OPOLY_THREADS`` unset), with stdout and stderr
captured.  Afterwards it checks a sample of the outputs against references
computed without opoly (``checker.py``) and prints one JSON object as the
last line of stdout.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs the
same command untraced in a fresh interpreter, then repeats the list with
every public function of every opoly module wrapped (``tracing.py``), and
reports the per-layer metrics together with the tracing overhead against
that untraced run.  Run records and span files go to ``bench/out/``.

The program is imported from ``src/`` of the checkout that holds this
directory; without it the benchmark exits 1 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170

# A fresh interpreter up to the point where the first timed operation could
# start: opoly imported and the run's inputs built.  perf_counter is the
# system-wide monotonic clock, so the child's reading ends the interval.
_SETUP_PROBE = """
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
from opoly import cli
import workloads
workloads.build({workload!r}, {seed!r}, {seconds!r})
print(time.perf_counter())
"""


def _load_program():
    """Import opoly from this checkout's src/ and nowhere else."""
    if not (SRC / "opoly" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program to measure: {SRC / 'opoly'} is missing")
    sys.path.insert(0, str(SRC))
    from opoly import cli
    if Path(cli.__file__).resolve().parent != (SRC / "opoly").resolve():
        raise SystemExit(f"bench: opoly was imported from {cli.__file__}, not {SRC}")
    return cli


def _setup_seconds(workload: str, seed: int, seconds: float) -> list[float]:
    code = _SETUP_PROBE.format(src=str(SRC), bench=str(BENCH), workload=workload,
                               seed=seed, seconds=seconds)
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        times.append(float(done.stdout.split()[-1]) - start)
    return times


class Outcome:
    __slots__ = ("code", "wall", "cpu", "out", "err")

    def __init__(self, code, wall, cpu, out, err):
        self.code, self.wall, self.cpu, self.out, self.err = code, wall, cpu, out, err


def run_op(cli, argv: list[str], keep: bool) -> Outcome:
    """One CLI call, timed; ``code`` is None when an exception escaped."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            code = cli.run(argv)
        except Exception as exc:  # a traceback in the real CLI: record, keep going
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return Outcome(code, wall, cpu, out.getvalue() if keep else None, err.getvalue())


def run_list(cli, ops, keep: set[int]) -> list[Outcome]:
    return [run_op(cli, op.argv(), i in keep) for i, op in enumerate(ops)]


def classify(ops, outcomes) -> tuple[int, list[str]]:
    """Failed count, and the failures that are not the expected exit 2."""
    failed, unexpected = 0, []
    for op, res in zip(ops, outcomes):
        if res.code == 0:
            continue
        failed += 1
        if not (op.fault and res.code == 2):
            unexpected.append(f"exit {res.code}: opoly {' '.join(op.argv())}: {res.err.strip()[:300]}")
    return failed, unexpected


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(ok, setup: list[float], peak_rss_mb: float) -> dict:
    walls = [res.wall for res in ok]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(ok) / sum(walls), "1/s"),
        "op_p50_ms": (statistics.median(walls) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(walls, n=10)[8] * 1e3, "ms"),
        "cpu_ms_per_op": (sum(res.cpu for res in ok) / len(ok) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _untraced_child(args) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"bench: untraced reference run failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.pop("OPOLY_THREADS", None)
    cli = _load_program()
    sys.path.insert(0, str(BENCH))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    untraced = _untraced_child(args) if args.trace else None
    setup = _setup_seconds(args.workload, args.seed, args.seconds) if not args.trace else []

    plan = workloads.build(args.workload, args.seed, args.seconds)
    checked = workloads.sample(plan, args.workload, args.seed)
    keep = set(checked)
    warm = run_list(cli, plan.warmup, set())
    _, warm_errors = classify(plan.warmup, warm)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        try:
            outcomes = [tracer.operation(i, lambda op=op, i=i: run_op(cli, op.argv(), i in keep))
                        for i, op in enumerate(plan.ops)]
        finally:
            tracer.uninstall()
    else:
        outcomes = run_list(cli, plan.ops, keep)
    peak_rss = _peak_rss_mb()

    failed, unexpected = classify(plan.ops, outcomes)
    ok = [res for res in outcomes if res.code == 0]

    import checker
    inspected = [(plan.ops[i], outcomes[i].out) for i in checked if outcomes[i].code == 0]
    mismatches = checker.check_all(inspected, seed=args.seed)
    problems = warm_errors + unexpected + mismatches
    for line in problems:
        print(f"bench: {line}", file=sys.stderr)

    if tracer is not None:
        wall = sum(res.wall for res in ok)
        base_rate = untraced["metrics"]["ops_per_s"]["value"]
        metrics = tracer.layer_metrics(len(ok) / wall, base_rate, wall * 1e3)
    else:
        metrics = end_to_end(ok, setup, peak_rss)

    result = {
        "correct": not problems,
        "attempted": len(plan.ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  rounds=plan.rounds, round_size=plan.round_size,
                  checked=len(inspected), problems=problems, setup_runs_s=setup,
                  ops=[{"argv": op.argv(), "group": op.group, "code": res.code,
                        "wall_ms": res.wall * 1e3, "cpu_ms": res.cpu * 1e3}
                       for op, res in zip(plan.ops, outcomes)])
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
