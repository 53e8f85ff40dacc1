"""Steadiness report: run the benchmark many times per workload and set each
end-to-end metric's spread beside its bound.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] [--out FILE]

Each run uses another seed (set ``k`` uses seeds ``k*runs+1`` onwards) and
the ``run_seconds`` of ``BENCHMARK.json``.  For every workload and metric it
prints the median and quartiles of the runs (``statistics.quantiles(n=4)``),
the spread (interquartile distance as a share of the median) and the bound.
A spread above the bound, or (``setup_s`` excepted) above a third of it, is
flagged; with two sets, so is a second median worse than the first by more
than the bound.  ``--out`` also writes the table as Markdown.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List

import harness

RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, object]:
    """One benchmark run; its parsed result line."""
    out = subprocess.run(
        [sys.executable, os.path.join(harness.ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=harness.ROOT, capture_output=True, text=True,
        timeout=RUN_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}:"
                           f"\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values: List[float]) -> float:
    q1, mid, q3 = harness.quartiles(values)
    return (q3 - q1) / mid


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    with open(os.path.join(harness.ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        spec = json.load(handle)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    values: Dict[tuple, List[float]] = {}
    bad_runs = 0
    for workload in workloads:
        for index in range(args.sets):
            for run in range(args.runs):
                seed = index * args.runs + run + 1
                started = time.perf_counter()
                result = run_once(workload, seed, seconds)
                if not result["correct"] or result["failed"]:
                    bad_runs += 1
                for name, metric in result["metrics"].items():
                    values.setdefault((workload, name, index), []).append(
                        metric["value"])
                print(f"# {workload} seed {seed}: "
                      f"{time.perf_counter() - started:.1f} s, correct="
                      f"{result['correct']} failed={result['failed']} "
                      + " ".join(f"{name}={metric['value']:.6g}" for name,
                                 metric in result["metrics"].items()),
                      file=sys.stderr, flush=True)

    header = ["workload", "metric", "unit", "bound", "median", "q1", "q3",
              "spread", "verdict"]
    if args.sets == 2:
        header[-1:-1] = ["median 2", "spread 2", "worse by"]
    lines = ["| " + " | ".join(header) + " |",
             "|" + "---|" * len(header)]
    flagged = 0
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = values[(workload, name, 0)]
            q1, mid, q3 = harness.quartiles(first)
            share = spread(first)
            problems = []
            if name != "setup_s" and share > bound / 3:
                problems.append("spread > bound/3")
            row = [workload, name, metric["unit"], f"{bound:g}", f"{mid:.6g}",
                   f"{q1:.6g}", f"{q3:.6g}", f"{share:.3f}"]
            if args.sets == 2:
                second = values[(workload, name, 1)]
                mid2 = harness.quartiles(second)[1]
                worse = worse_by(mid, mid2, metric["better"])
                if name != "setup_s" and spread(second) > bound / 3:
                    problems.append("spread 2 > bound/3")
                if worse > bound:
                    problems.append("median 2 worse than bound")
                row += [f"{mid2:.6g}", f"{spread(second):.3f}",
                        f"{worse:+.3f}"]
            flagged += bool(problems)
            row.append("; ".join(problems) or "ok")
            lines.append("| " + " | ".join(row) + " |")
    table = "\n".join(lines)
    print(table)
    print(f"{bad_runs} incorrect runs; {flagged} flagged rows")
    if args.out:
        stamp = harness.provenance()
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(
                f"# Steadiness of the end-to-end metrics\n\n"
                f"{args.runs} runs per workload and set, seeds from 1, "
                f"{seconds} s each, on `{stamp['host']}` with "
                f"{stamp['nproc']} CPUs (Python {stamp['python']}, NumPy "
                f"{stamp['numpy']}; calibration loop "
                f"{stamp['calibration_loop_ms']:.1f} ms). Spread is the "
                f"interquartile distance as a share of the median. Made by "
                f"`python3 perfbench/steadiness.py --runs {args.runs} "
                f"--sets {args.sets}`.\n\n{table}\n\n"
                f"{bad_runs} incorrect runs; {flagged} flagged rows.\n")
    return 1 if bad_runs or flagged else 0


if __name__ == "__main__":
    sys.exit(main())
