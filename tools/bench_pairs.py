"""Alternating parent/change benchmark pairs, written to ``BENCH_<label>.json``.

    python3 tools/bench_pairs.py --parent ../parent-checkout --label connect_certified \\
        --change "what the change does" --claim connect:ops_per_s \\
        --pairs connect:4099:10 --pairs tables:4099:10 --ab connect:5:3 --digest-seeds 5 7

For each ``--pairs WORKLOAD:SEED:N`` it runs ``bench/run.py --workload
WORKLOAD --seed SEED --seconds S --trace 0``, S the ``run_seconds`` of
``BENCHMARK.json``, N times in the parent checkout (a git checkout, whose
``HEAD`` is recorded) and in this one, one after the other, alternating which side goes first
(pair 0 parent first), and keeps each run's end-to-end metrics.  Per
workload and seed it records each side's quartiles (``statistics.quantiles``,
inclusive) of every metric ``BENCHMARK.json`` lists, the pairs the change
wins on each (better in the direction ``BENCHMARK.json`` gives), the failed
counts and the checker's verdicts.  Each ``--ab WORKLOAD:SEED:ROUNDS`` runs
``tools/ab_cpu.py`` and records its ratio.  ``--digest-seeds`` runs
``tools/stdout_digest.py`` in both checkouts for every workload at those
seeds, and records each checkout's ``opoly diagnostics`` stdout digest;
``--trace WORKLOAD:SEED`` records the ``--trace-metric`` counts of one
traced run per side.

Every run has ``PYTHONDONTWRITEBYTECODE=1``, so each compiles the source as
the benchmark does.  Runs go one at a time, so each has the machine to itself as far as this
tool can arrange; single runs on a shared machine drift, so only the pairs
are comparable.  The file is written to the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
DIAGNOSTICS = ("import sys; sys.path.insert(0, 'src'); from opoly import cli; "
               "sys.exit(cli.run(['diagnostics']))")


def _fields(text: str, count: int) -> list[str]:
    parts = text.split(":")
    if len(parts) != count:
        raise SystemExit(f"bench_pairs: expected {count} ':'-separated fields in {text!r}")
    return parts


def _run(cwd: Path, argv: list[str], program: str = sys.executable) -> subprocess.CompletedProcess:
    return subprocess.run([program, *argv], cwd=cwd, capture_output=True, text=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})


def bench_run(cwd: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """The JSON result line of one ``bench/run.py`` run in ``cwd``."""
    done = _run(cwd, ["bench/run.py", "--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)])
    if done.returncode != 0:
        raise SystemExit(f"bench_pairs: bench/run.py failed in {cwd}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def pairs_entry(parent: Path, workload: str, seed: int, count: int, seconds: float,
                better: dict[str, str]) -> dict:
    runs = {side: [] for side in SIDES}
    for i in range(count):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            runs[side].append(bench_run(parent if side == "parent" else ROOT,
                                        workload, seed, seconds))
        print(f"{workload} seed {seed} pair {i + 1}/{count}: " + "  ".join(
            f"{side} {runs[side][-1]['metrics']['ops_per_s']['value']:.1f} ops/s"
            for side in SIDES), file=sys.stderr)

    def value(run: dict, metric: str) -> float:
        return run["metrics"][metric]["value"]

    def wins(metric: str) -> str:
        sign = 1 if better[metric] == "higher" else -1
        won = sum(sign * (value(c, metric) - value(p, metric)) > 0
                  for p, c in zip(runs["parent"], runs["change"]))
        return f"{won}/{count}"

    def failed(side: str) -> str:
        seen = sorted({f"{run['failed']}/{run['attempted']}" for run in runs[side]})
        return seen[0] if len(seen) == 1 else seen

    return {
        "workload": workload, "seed": seed, "pairs": count,
        "failed": {side: failed(side) for side in SIDES},
        "correct": {side: all(run["correct"] for run in runs[side]) for side in SIDES},
        "change_wins": {metric: wins(metric) for metric in better},
        **{side: {metric: quartiles([value(run, metric) for run in runs[side]])
                  for metric in better} for side in SIDES},
    }


def ab_entry(parent: Path, workload: str, seed: int, rounds: int) -> dict:
    done = _run(ROOT, ["tools/ab_cpu.py", "--parent", str(parent), "--workload", workload,
                       "--seed", str(seed), "--rounds", str(rounds)])
    entry = {"workload": workload, "seed": seed, "rounds": rounds}
    if done.returncode != 0:
        return {**entry, "error": (done.stderr.strip() or done.stdout.strip())[-300:]}
    words = done.stdout.strip().splitlines()[-1].split()
    return {**entry, "parent_ops_per_cpu_s": float(words[words.index("parent") + 1]),
            "change_ops_per_cpu_s": float(words[words.index("change") + 1]),
            "ratio": float(words[words.index("ratio") + 1])}


def same_output(parent: Path, workloads: list[str], seeds: list[int]) -> dict:
    lines = {side: [] for side in SIDES}
    for workload in workloads:
        for seed in seeds:
            for side, cwd in zip(SIDES, (parent, ROOT)):
                done = _run(cwd, ["tools/stdout_digest.py", "--workload", workload,
                                  "--seed", str(seed)])
                lines[side].append(done.stdout.strip() or done.stderr.strip()[-300:])
    diagnostics = {side: hashlib.sha256(_run(cwd, ["-c", DIAGNOSTICS]).stdout.encode())
                   .hexdigest() for side, cwd in zip(SIDES, (parent, ROOT))}
    if lines["parent"] != lines["change"] or diagnostics["parent"] != diagnostics["change"]:
        return {"tools/stdout_digest.py (parent and change differ)": lines,
                "opoly diagnostics stdout sha256": diagnostics}
    return {"tools/stdout_digest.py (parent and change equal)": lines["parent"],
            "opoly diagnostics stdout sha256": diagnostics["parent"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="root of the checkout to compare against")
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument("--change", required=True, help="one line: what the change does")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--pairs", action="append", default=[], metavar="WORKLOAD:SEED:N")
    parser.add_argument("--ab", action="append", default=[], metavar="WORKLOAD:SEED:ROUNDS")
    parser.add_argument("--digest-seeds", type=int, nargs="*", default=[])
    parser.add_argument("--trace", metavar="WORKLOAD:SEED")
    parser.add_argument("--trace-metric", action="append", default=[])
    parser.add_argument("--machine", default="", help="a note on the machine")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    seconds = declared["run_seconds"]
    parent = args.parent.resolve()
    head = _run(parent, ["rev-parse", "HEAD"], "git")
    if head.returncode != 0:
        raise SystemExit(f"bench_pairs: --parent is not a git checkout: {head.stderr.strip()}")
    out = {"label": args.label, "change": args.change, "parent": head.stdout.strip()}
    if args.claim:
        workload, metric = _fields(args.claim, 2)
        out["claim"] = {"workload": workload, "metric": metric, "better": better[metric],
                        "rule": "change wins >= 9/10 pairs and the median moves by more "
                                "than the parent's interquartile range"}
    out["machine"] = (f"{args.machine + '; ' if args.machine else ''}{platform.machine()} "
                      f"{platform.system()}, CPython {platform.python_version()}")
    out["command"] = (f"python3 bench/run.py --workload W --seed S --seconds {seconds:g} "
                      "--trace 0, run in the parent checkout and in the change, alternating "
                      "which side runs first (pair 0 parent first)")
    out["quartiles"] = "statistics.quantiles(method='inclusive'), over each side's runs"
    out["workloads"] = []
    for spec in args.pairs:
        workload, seed, count = _fields(spec, 3)
        out["workloads"].append(pairs_entry(parent, workload, int(seed), int(count),
                                            seconds, better))
    if args.ab:
        runs = []
        for spec in args.ab:
            workload, seed, rounds = _fields(spec, 3)
            runs.append(ab_entry(parent, workload, int(seed), int(rounds)))
        out["ab_cpu"] = {"command": "python3 tools/ab_cpu.py --parent PARENT --workload W "
                                    "--seed S --rounds R",
                         "runs": runs,
                         "outputs_differ": any("outputs differ" in run.get("error", "")
                                               for run in runs)}
    if args.trace:
        workload, seed = _fields(args.trace, 2)
        out["trace"] = {"command": f"python3 bench/run.py --workload {workload} --seed {seed} "
                                   f"--seconds {seconds:g} --trace 1"}
        for side, cwd in zip(SIDES, (parent, ROOT)):
            metrics = bench_run(cwd, workload, int(seed), seconds, trace=1)["metrics"]
            out["trace"][side] = {m: metrics[m]["value"] for m in args.trace_metric
                                  if m in metrics}
    if args.digest_seeds:
        out["same_output"] = same_output(parent, [w["name"] for w in declared["workloads"]],
                                         args.digest_seeds)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
