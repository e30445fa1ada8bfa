"""Compare two checkouts on bench workloads by alternating runs.

    python3 tests/ten_pairs.py PARENT_DIR CHANGE_DIR --workload train-long,infer-long --seed 11,29 \
        [--seconds 30] [--pairs 10]

``--workload`` names one workload or a comma-separated list of them, and
``--seed`` one integer seed or a comma-separated list of them. Every
(workload, seed) is compared in turn, workloads outermost, each with its
own table.

Each pair runs ``python3 bench/run.py --workload W --seed S --seconds T
--trace 0`` once in PARENT_DIR and once in CHANGE_DIR, the parent first
in odd pairs and the change first in even ones, and reads the last line
of each run's stdout as its JSON result. A run that is not ``correct: true``
stops the comparison (exit 1) and prints its exit code and the last lines of
its stderr. For every end-to-end metric of
``BENCHMARK.json`` it then prints each side's median and quartiles, the
pairs the change won, and whether a claimed gain would hold: the change
wins at least nine pairs in ten and its median beats the parent's by more
than the parent's interquartile range. Last comes the regression verdict,
with the metric's ``bound`` from ``BENCHMARK.json``: "regression" when the
change's median is worse than the parent's by more than bound × the
parent's median, else "within bound"; "unresolved" instead of either when
the parent's interquartile range is wider than bound × its median, unless
every change run beats every parent run. The whole table is printed
either way; the exit code is 1 when any metric of any table has the
verdict "regression", else 0 ("unresolved" does not fail).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STDERR_LINES = 10  # of a failed run, shown


def run(checkout: str, args: argparse.Namespace) -> dict:
    """The metric values of one bench run in ``checkout``; exits if the run is not correct."""
    command = [
        sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", f"{args.seconds:g}", "--trace", "0",
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except ValueError:
        result = {}
    if result.get("correct") is not True:
        stderr = "\n".join(done.stderr.strip().splitlines()[-STDERR_LINES:]) or "(none)"
        sys.exit(
            f"{checkout}: run ended without correct: true (exit code {done.returncode}): "
            f"{lines[-1] if lines else '(no output)'}\nlast lines of stderr:\n{stderr}"
        )
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv[1:])
    if args.pairs < 2:
        parser.error(f"--pairs must be at least 2, got {args.pairs}")
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        end_to_end = json.load(f)["end_to_end"]

    workloads = args.workload.split(",")
    if not all(workloads):
        parser.error(f"--workload has an empty name: {args.workload!r}")
    try:
        seeds = [int(seed) for seed in args.seed.split(",")]
    except ValueError:
        parser.error(f"--seed is not a comma-separated list of integers: {args.seed!r}")
    regressed = [
        compare(argparse.Namespace(**{**vars(args), "workload": w, "seed": seed}), end_to_end)
        for w in workloads
        for seed in seeds
    ]
    return 1 if any(regressed) else 0


def compare(args: argparse.Namespace, end_to_end: list[dict]) -> bool:
    """Run the pairs of one workload and seed and print its table; whether any metric regressed."""
    pairs = []
    for i in range(args.pairs):
        if i % 2 == 0:
            parent = run(args.parent, args)
            change = run(args.change, args)
        else:
            change = run(args.change, args)
            parent = run(args.parent, args)
        pairs.append((parent, change))
        shown = " ".join(f"{m['name']} {parent[m['name']]:.4g}/{change[m['name']]:.4g}" for m in end_to_end)
        print(f"pair {i + 1}: {shown}", flush=True)

    needed = math.ceil(0.9 * args.pairs)
    regressed = False
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s (parent/change)")
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        holds = wins >= needed and sign * (cm - pm) > p3 - p1
        allowed = metric["bound"] * abs(pm)
        beats_all = all(sign * (c - p) > 0 for p in parent for c in change)
        if p3 - p1 > allowed and not beats_all:
            verdict = "unresolved"
        else:
            verdict = "regression" if sign * (pm - cm) > allowed else "within bound"
        regressed |= verdict == "regression"
        print(
            f"  {name:<15} parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  change {cm:.4g} [{c1:.4g}, {c3:.4g}]  "
            f"{(cm - pm) / pm:+.1%}  wins {wins}/{args.pairs}  claim {'holds' if holds else 'does not hold'}  "
            f"{verdict}"
        )
    return regressed


if __name__ == "__main__":
    sys.exit(main(sys.argv))
