"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the program from ``src``.

Workloads (each runs only the layers it names; see each module):

* ``dse-sweep`` (:mod:`dse_sweep`): cold, persisted and resumed ``explore``
  sweeps of one 41472-point grid.
* ``estimate-serve`` (:mod:`estimate_serve`): one keep-alive client replays
  a seeded ``POST /v1/estimate`` stream, half memo hits, against a
  ``repro serve`` child process.
* ``sim-validate`` (:mod:`sim_validate`): ``validate_gpu`` on the TITAN Xp
  at bench scale.

With ``--trace 0`` the result carries the end-to-end metrics of
``BENCHMARK.json``, the same three for every workload:

* ``setup_s``: median of seven cold starts, fresh process to first result
  (for ``estimate-serve``: spawn to ready line plus the first 200).
* ``peak_rss_mb``: peak resident memory of the process doing the work (for
  ``estimate-serve`` the server's ``VmHWM``).
* ``items_per_s``: work per second of host time: design points swept
  (``dse-sweep``), requests answered (``estimate-serve``) or CTAs simulated
  (``sim-validate``).

With ``--trace 1`` the run repeats a fixed amount of work untraced, then
again with timing wrappers around the public functions of each layer
(:mod:`tracer`), and reports the ``per_layer`` metrics; the layers a
workload leaves idle read 0.  The spans are written as chrome-trace JSON to
``.bench_build/perfbench/``.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

import harness
from tracer import Tracer

WORKLOADS = {
    "dse-sweep": "dse_sweep",
    "estimate-serve": "estimate_serve",
    "sim-validate": "sim_validate",
}
DEFAULT_SEED = 0


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src``, or exit non-zero."""
    sys.path.insert(0, harness.SRC)
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from "
                 f"{harness.SRC}: {exc}")
    if not os.path.abspath(repro.__file__).startswith(harness.SRC + os.sep):
        sys.exit(f"perfbench: repro was imported from {repro.__file__}, "
                 f"not from {harness.SRC}")


def _spec() -> dict:
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    spec = _spec()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    stamp = harness.provenance()

    module = importlib.import_module(WORKLOADS[args.workload])
    tracer = Tracer() if args.trace else None
    outcome = module.run(args.seed, args.seconds, tracer)

    unknown = sorted(set(outcome.metrics) - set(units))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    if not args.trace:
        missing = sorted(set(units) - set(outcome.metrics))
        if missing:
            raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    if tracer is not None:
        os.makedirs(harness.WORK_DIR, exist_ok=True)
        path = os.path.join(harness.WORK_DIR,
                            f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(tracer.to_chrome(), handle)
        outcome.notes["trace_file"] = os.path.relpath(path, harness.ROOT)

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("provenance " + json.dumps(stamp, sort_keys=True))
    for name, text in outcome.notes.items():
        print(f"note {name}: {text}")
    for name, passed in outcome.checks.items():
        print(f"check {name}: {'ok' if passed else 'FAILED'}")
    metrics = {}
    for name in units:
        value = float(outcome.metrics.get(name, 0.0))
        metrics[name] = {"value": value, "unit": units[name]}
        print(f"metric {name} = {value!r} {units[name]}")
    print(json.dumps({"correct": outcome.correct,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
