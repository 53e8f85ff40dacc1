"""Pieces every workload shares: run budgets, statistics, cold starts and
the provenance stamp.

Nothing here knows about a particular workload; each workload module builds
an :class:`Outcome` and ``run.py`` prints it.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import select
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: scratch space for stores and traces; inside the checkout, ignored by git.
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

#: cold starts per run; ``setup_s`` is their median.
COLD_STARTS = 7
#: a child that has not printed its ready or result line by then has failed.
COLD_START_TIMEOUT_S = 60.0


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: named output checks; any False makes the run incorrect.
    checks: Dict[str, bool] = field(default_factory=dict)
    #: human-readable context printed above the result (sample counts, ...).
    notes: Dict[str, object] = field(default_factory=dict)

    def check(self, name: str, passed: bool) -> bool:
        self.checks[name] = self.checks.get(name, True) and bool(passed)
        return bool(passed)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


class Budget:
    """How long a measurement loop runs.

    Untraced runs repeat whole units of work for about ``seconds`` (at
    least ``minimum`` units): another unit starts only if, at the mean unit
    time so far, it would end less than half a unit past ``seconds``.
    Traced runs do a fixed number of units so that their counts repeat
    exactly from run to run.
    """

    def __init__(self, seconds: float, *, minimum: int = 1,
                 fixed: Optional[int] = None) -> None:
        self.seconds = seconds
        self.minimum = minimum
        self.fixed = fixed
        self.started = time.perf_counter()

    def more(self, done: int) -> bool:
        if self.fixed is not None:
            return done < self.fixed
        if done < self.minimum or done == 0:
            return True
        elapsed = time.perf_counter() - self.started
        return elapsed + 0.5 * elapsed / done < self.seconds


def best_total(repeats: Sequence[Sequence[float]]) -> float:
    """Seconds of one repetition of a unit list, each unit at its fastest.

    ``repeats[r][u]`` is unit ``u``'s time in repetition ``r``.  Noise from
    other work on the host only ever adds time, so the fastest repetition
    of each unit is the steadiest estimate of what the unit costs.
    """
    return sum(min(times) for times in zip(*repeats))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: Sequence[float], pct: float) -> Tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def child_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's ``src`` importable."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + existing if existing else "")
    return env


def stop_process(proc: subprocess.Popen, timeout: float = 10.0) -> None:
    """Terminate a child and wait for it; kill it if it does not exit."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=timeout)
    for stream in (proc.stdin, proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()


def read_line(proc: subprocess.Popen,
              timeout: float = COLD_START_TIMEOUT_S) -> str:
    """A child's next stdout line, or ``""`` if none arrives in time."""
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    return proc.stdout.readline() if ready else ""


def child_first_result(workload: str, seed: int) -> float:
    """Seconds from spawning ``child.py`` to its first-result line."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(ROOT, "perfbench", "child.py"),
         workload, str(seed)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True)
    try:
        line = read_line(proc)
        elapsed = time.perf_counter() - started
        if not line.startswith("result "):
            raise RuntimeError(f"{workload} cold start printed {line!r}")
        proc.wait(timeout=COLD_START_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(
                f"{workload} cold start exited {proc.returncode}")
        return elapsed
    finally:
        stop_process(proc)


def cold_starts(start_once: Callable[[], float], outcome: Outcome,
                count: int = COLD_STARTS) -> float:
    """Median of ``count`` cold starts; each failed start is a failed op."""
    times: List[float] = []
    for _ in range(count):
        outcome.attempted += 1
        try:
            times.append(start_once())
        except (OSError, RuntimeError, subprocess.TimeoutExpired) as exc:
            outcome.failed += 1
            outcome.notes.setdefault("cold_start_errors", []).append(str(exc))
    if not times:
        raise RuntimeError("every cold start failed")
    q1, mid, q3 = quartiles(times)
    outcome.notes["setup_s"] = (f"median of {len(times)} cold starts, "
                                f"q1 {q1:.4f} q3 {q3:.4f}")
    return mid


def self_peak_rss_mb() -> float:
    """This process's peak resident set (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Another live process's peak resident set (``VmHWM``)."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def calibration_ms() -> float:
    """Median time of a fixed pure-Python loop.

    Recorded so a reader can tell a slow host from a slow program; it never
    rescales a metric.
    """
    times = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i
        times.append(time.perf_counter() - started)
    return median(times) * 1e3


def _git_sha() -> str:
    # a plain copy of the files is no work tree, and git must not search
    # the directories above it.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def provenance() -> Dict[str, object]:
    import numpy

    return {
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "gc_enabled": gc.isenabled(),
        "calibration_loop_ms": calibration_ms(),
    }
