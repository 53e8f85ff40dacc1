"""Helpers shared by the per-figure benchmark harnesses.

Every benchmark regenerates one of the paper's tables or figures and asserts
its qualitative shape.  Simulation-backed figures share one memoized
validation run (the default session's ``validation_report`` memo) through
``BENCH_CONFIG`` so the whole suite stays within a few minutes of wall-clock
time; see EXPERIMENTS.md for how to rerun at larger scale.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import socket
import subprocess
from typing import Dict

import numpy

from repro.analysis.validation import ValidationConfig

#: where a test run writes its benchmark summaries: a gitignored build
#: directory, so running the suite leaves the tracked files alone.  The
#: committed ``benchmarks/results/BENCH_*.json`` are refreshed on purpose
#: with ``BENCH_OUT_DIR=benchmarks/results``.
RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    ".bench_build", "bench-results")

#: reduced-scale configuration used by all simulation-backed benchmarks.
#: The vectorized engine reclaimed enough budget to double the mini-batch
#: and CTA sample and cover one more layer per network than the original
#: (batch=8, max_ctas=60, layers_per_network=2) setting.
BENCH_CONFIG = ValidationConfig(batch=16, max_ctas=120, layers_per_network=3)


def run_once(benchmark, func, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, cwd=os.path.dirname(os.path.abspath(__file__)))
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def run_metadata() -> Dict[str, object]:
    """Provenance block stamped into every benchmark summary.

    Records when/where a BENCH_*.json came from, so committed numbers can be
    compared across machines and revisions instead of being bare floats.
    """
    return {
        "generated_utc": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "hostname": socket.gethostname(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
    }


def write_bench_summary(name: str, payload: Dict[str, object]) -> str:
    """Write a machine-readable BENCH_<name>.json perf summary.

    Every perf-regression benchmark emits one of these so the trajectory
    (points/s, wall-clock, speedups) is diffable across PRs instead of
    living only in transient pytest output.  A ``meta`` provenance block
    (timestamp, host, python/numpy versions, git sha) is stamped in unless
    the payload already carries one.  Returns the written path.
    """
    payload = dict(payload)
    payload.setdefault("meta", run_metadata())
    # derive a points/s rate for every timed phase (warm_elapsed_s used to
    # land without warm_points_per_s, leaving the warm-path trend invisible
    # in the committed summaries).
    points = payload.get("points")
    if points:
        for key in [k for k in payload if k.endswith("_elapsed_s")]:
            rate_key = key[:-len("_elapsed_s")] + "_points_per_s"
            elapsed = payload[key]
            if rate_key not in payload and isinstance(elapsed, (int, float)) \
                    and elapsed > 0:
                payload[rate_key] = points / elapsed
    out_dir = os.environ.get("BENCH_OUT_DIR", RESULTS_DIR)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
