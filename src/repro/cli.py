"""Command line interface built on the session-based public API.

Every subcommand builds one :class:`repro.api.Session` (from ``--jobs`` /
``--sim-cache``), turns its arguments into a typed request, and prints the
resulting :class:`repro.api.Report` as text or — with ``--format json`` —
as machine-readable JSON.

Examples
--------
Run a fast experiment and print its tables::

    delta-repro experiment fig16

Run a simulation-backed experiment across 4 worker processes with an on-disk
simulation cache, emitting JSON::

    delta-repro experiment fig11 --jobs 4 --sim-cache ~/.cache/delta-repro \\
        --format json

Rerun a figure on one GPU and a reduced population::

    delta-repro experiment fig13 --gpus v100 --networks googlenet --batch 8

Validate the model against the simulator for one GPU::

    delta-repro validate --gpu titanxp --batch 16 --jobs 4

Estimate one network on one GPU, or sweep networks x GPUs x batches.
``--pass`` selects the training pass to model: ``forward`` (default),
``dgrad``, ``wgrad`` or ``training`` (a full fwd+dgrad+wgrad step)::

    delta-repro estimate --network resnet152 --gpu v100 --batch 256
    delta-repro estimate --network alexnet --pass training
    delta-repro estimate --network bert-base --pass training
    delta-repro sweep --networks alexnet vgg16 mlp --gpus titanxp v100 \\
        --batches 64 256 --pass training

List everything that is available (also as JSON)::

    delta-repro list --format json

Failure semantics: a failing request prints a ``kind="error"`` report (text
or JSON) and exits with status 1 instead of a raw traceback; ``--strict``
re-raises instead (fail fast).  ``--timeout``/``--retries`` set the session's
resilience policy for simulation-backed commands (see DESIGN.md, "Failure
semantics").
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from .api import (
    DseRequest,
    EstimateRequest,
    ExperimentRequest,
    Report,
    Session,
    SweepRequest,
    ValidateRequest,
    catalog,
)
from .dse.drivers import driver_names
from .dse.space import default_space, parse_axis
from .experiments.registry import available_experiments
from .obs import spans as obs_spans
from .obs.log import get_logger

_log = get_logger("cli")

#: process exit codes (argparse itself exits 2 on usage errors).
EXIT_OK = 0
EXIT_REQUEST_FAILED = 1


def _session_from_args(args: argparse.Namespace) -> Session:
    jobs = getattr(args, "jobs", None)
    # None = flag not given (serial); explicit non-positive values are
    # rejected by the Session.jobs setter rather than silently coerced.
    session = Session(jobs=1 if jobs is None else jobs,
                      sim_cache_dir=getattr(args, "sim_cache", None),
                      precision=args.precision)
    timeout = getattr(args, "timeout", None)
    if timeout is not None:
        session.timeout = timeout
    retries = getattr(args, "retries", None)
    if retries is not None:
        session.retries = retries
    return session


def _emit(report: Report, args: argparse.Namespace) -> int:
    if args.format == "json":
        print(report.to_json(indent=2))
    else:
        print(report.render(precision=args.precision))
    return EXIT_OK if report.kind != "error" else EXIT_REQUEST_FAILED


def _write_trace(trace: "obs_spans.Trace", path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace.to_chrome(), handle, indent=2)
    _log.info("wrote chrome trace (%d spans) to %s", len(trace), path)


def _run_request(args: argparse.Namespace, build_request) -> int:
    """Build and run one request, isolating failures unless ``--strict``.

    By default a failing request — bad network name, failed simulation,
    anything the executor raises — prints a ``kind="error"`` report in the
    selected format and exits with :data:`EXIT_REQUEST_FAILED`; ``--strict``
    re-raises the underlying exception instead.  ``--trace OUT.json``
    records a deep span trace of the execution (written even when the
    request fails, so slow failures stay diagnosable).
    """
    request = None
    trace_path = getattr(args, "trace", None)
    started = time.perf_counter()
    collected: Optional["obs_spans.Trace"] = None
    try:
        request = build_request()
        with _session_from_args(args) as session:
            if trace_path:
                with obs_spans.collect_trace(deep=True) as collected:
                    report = session.run(request)
            else:
                report = session.run(request)
    except Exception as exc:
        if getattr(args, "strict", False):
            raise
        report = Report.from_error(exc, request=request)
        # failures that escape the executor carry no phase breakdown, but
        # the end-to-end wall clock is still known here.
        report.meta["timing"] = obs_spans.elapsed_timing(started)
    if trace_path and collected is not None:
        _write_trace(collected, trace_path)
    return _emit(report, args)


def _cmd_list(args: argparse.Namespace) -> int:
    payload = catalog()
    if args.format == "json":
        print(json.dumps(payload, indent=2))
        return 0
    print("Networks:", ", ".join(payload["networks"]))
    print("Paper-subset variants:", ", ".join(payload["paper_subset_variants"]))
    print("GPUs:", ", ".join(gpu["name"] for gpu in payload["gpus"]))
    print("Experiments:", ", ".join(spec["id"] for spec in payload["experiments"]))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    return _run_request(args, lambda: ExperimentRequest(
        experiment=args.experiment_id,
        gpus=tuple(args.gpus) if args.gpus else None,
        networks=tuple(args.networks) if args.networks else None,
        batch=args.batch,
        max_ctas=args.max_ctas,
        layers_per_network=args.layers_per_network,
    ))


def _cmd_validate(args: argparse.Namespace) -> int:
    return _run_request(args, lambda: ValidateRequest(
        gpu=args.gpu,
        batch=args.batch,
        max_ctas=args.max_ctas if args.max_ctas > 0 else None,
        layers_per_network=(args.layers_per_network
                            if args.layers_per_network > 0 else None),
        networks=tuple(args.networks) if args.networks else None,
    ))


def _cmd_estimate(args: argparse.Namespace) -> int:
    return _run_request(args, lambda: EstimateRequest(
        network=args.network,
        gpu=args.gpu,
        batch=args.batch,
        unique=args.unique,
        paper_subset=args.paper_subset,
        passes=args.passes,
    ))


def _cmd_sweep(args: argparse.Namespace) -> int:
    return _run_request(args, lambda: SweepRequest(
        networks=tuple(args.networks),
        gpus=tuple(args.gpus),
        batches=tuple(args.batches),
        unique=not args.all_layers,
        paper_subset=args.paper_subset,
        passes=args.passes,
    ))


def _cmd_dse(args: argparse.Namespace) -> int:
    return _run_request(args, lambda: DseRequest(
        space=default_space(
            networks=args.networks, batches=args.batches, passes=args.passes,
            axes=[parse_axis(text) for text in args.axes]
            if args.axes else None),
        gpu=args.gpu,
        driver=args.driver,
        budget=args.budget,
        seed=args.seed,
        objectives=tuple(args.objectives),
        store_path=args.store,
        unique=not args.all_layers,
        confirm_top=args.confirm_top,
    ))


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve the estimation API over HTTP until SIGINT/SIGTERM.

    One long-lived session (sharing the CLI's pool/timeout/retry flags)
    backs every request; shutdown drains the connection loop and closes the
    worker pool before the process exits 0.
    """
    from .server import create_app, run_app

    session = _session_from_args(args)
    app = create_app(session, max_memo=args.max_memo)
    try:
        return run_app(app, host=args.host, port=args.port)
    finally:
        session.close()  # idempotent; normally closed by lifespan shutdown
        stats = session.stats
        _log.info(
            "shutdown summary: %d HTTP requests, %d executed / %d memo hits "
            "/ %d coalesced (request cache), %d sim cache hits / %d misses, "
            "%d dse memo hits, session counters %s",
            app.requests_served, app.cache.stats.executed,
            app.cache.stats.memo_hits, app.cache.stats.coalesced,
            stats.sim_cache_hits, stats.sim_cache_misses,
            stats.dse_memo_hits, stats.as_dict())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delta-repro",
        description="DeLTA GPU performance model reproduction (ISPASS 2019)",
    )
    parser.add_argument("--precision", type=int, default=3,
                        help="decimal places in printed tables")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_format_flag(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--format", choices=("text", "json"), default="text",
                         help="output format (default: human-readable text)")

    def add_pass_flag(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--pass", dest="passes",
                         choices=("forward", "dgrad", "wgrad", "training"),
                         default="forward",
                         help="training pass(es) to model: one GEMM pass or "
                              "'training' for the full fwd+dgrad+wgrad step")

    def add_simulation_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--jobs", type=int, default=None,
                         help="worker processes for per-layer simulations")
        sub.add_argument("--sim-cache", default=None, metavar="DIR",
                         help="directory for the on-disk simulation result "
                              "cache (repeat runs skip simulation)")
        sub.add_argument("--timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per-work-unit wall-clock timeout; stragglers "
                              "are cancelled and reported as structured "
                              "failures (default: unbounded)")
        sub.add_argument("--retries", type=int, default=None,
                         help="retry budget per work unit after a worker "
                              "crash or task error (default: 2)")

    def add_trace_flag(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--trace", default=None, metavar="OUT.json",
                         help="write a chrome://tracing / Perfetto trace of "
                              "the execution: request phases, pool work "
                              "units (re-parented from worker processes) "
                              "and simulator phases")

    def add_strict_flag(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--strict", action="store_true",
                         help="fail fast: re-raise request errors instead of "
                              "emitting a kind=\"error\" report with exit "
                              "code 1")

    list_parser = subparsers.add_parser(
        "list", help="list networks, GPUs and experiments")
    add_format_flag(list_parser)
    list_parser.set_defaults(func=_cmd_list)

    exp_parser = subparsers.add_parser(
        "experiment", help="run one paper table/figure experiment")
    exp_parser.add_argument("experiment_id", choices=available_experiments())
    exp_parser.add_argument("--gpus", nargs="+", default=None, metavar="GPU",
                            help="override the experiment's GPU(s)")
    exp_parser.add_argument("--networks", nargs="+", default=None,
                            metavar="NET",
                            help="override the evaluated network(s)")
    exp_parser.add_argument("--batch", type=int, default=None,
                            help="override the mini-batch size")
    exp_parser.add_argument("--max-ctas", type=int, default=None,
                            help="override the per-layer CTA budget: "
                            "simulates whole waves until at least this many "
                            "CTAs ran")
    exp_parser.add_argument("--layers-per-network", type=int, default=None,
                            help="override the layers validated per network")
    add_simulation_flags(exp_parser)
    add_strict_flag(exp_parser)
    add_format_flag(exp_parser)
    exp_parser.set_defaults(func=_cmd_experiment)

    val_parser = subparsers.add_parser(
        "validate",
        help="run the model-vs-simulator validation for one GPU")
    val_parser.add_argument("--gpu", default="titanxp")
    val_parser.add_argument("--batch", type=int, default=16)
    val_parser.add_argument("--max-ctas", type=int, default=90,
                            help="per-layer CTA budget: simulates whole waves "
                            "until at least this many CTAs ran (<=0 = all)")
    val_parser.add_argument("--layers-per-network", type=int, default=4,
                            help="layers per network (<=0 = all unique layers)")
    val_parser.add_argument("--networks", nargs="+", default=None,
                            metavar="NET",
                            help="restrict the population to these networks")
    add_simulation_flags(val_parser)
    add_trace_flag(val_parser)
    add_strict_flag(val_parser)
    add_format_flag(val_parser)
    val_parser.set_defaults(func=_cmd_validate)

    est_parser = subparsers.add_parser(
        "estimate", help="estimate a network's conv layers on a GPU")
    est_parser.add_argument("--network", required=True)
    est_parser.add_argument("--gpu", default="titanxp")
    est_parser.add_argument("--batch", type=int, default=256)
    est_parser.add_argument("--unique", action="store_true",
                            help="only evaluate unique layer configurations")
    est_parser.add_argument("--paper-subset", action="store_true",
                            help="restrict to the layers shown in the paper's "
                                 "figures")
    add_pass_flag(est_parser)
    add_trace_flag(est_parser)
    add_strict_flag(est_parser)
    add_format_flag(est_parser)
    est_parser.set_defaults(func=_cmd_estimate)

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="model-only sweep over networks x GPUs x batch sizes")
    sweep_parser.add_argument("--networks", nargs="+",
                              default=["alexnet", "vgg16", "googlenet",
                                       "resnet152"], metavar="NET")
    sweep_parser.add_argument("--gpus", nargs="+",
                              default=["titanxp", "v100"], metavar="GPU")
    sweep_parser.add_argument("--batches", nargs="+", type=int,
                              default=[64, 256], metavar="B")
    sweep_parser.add_argument("--all-layers", action="store_true",
                              help="evaluate every conv layer, not just the "
                                   "unique configurations")
    sweep_parser.add_argument("--paper-subset",
                              action=argparse.BooleanOptionalAction,
                              default=True,
                              help="use the paper-subset network variants "
                                   "(default; --no-paper-subset for the "
                                   "full networks)")
    add_pass_flag(sweep_parser)
    add_trace_flag(sweep_parser)
    add_strict_flag(sweep_parser)
    add_format_flag(sweep_parser)
    sweep_parser.set_defaults(func=_cmd_sweep)

    dse_parser = subparsers.add_parser(
        "dse",
        help="design-space exploration: search GPU designs x workloads and "
             "report the Pareto frontier")
    dse_parser.add_argument("--gpu", default="titanxp",
                            help="baseline GPU the design multipliers scale")
    dse_parser.add_argument("--networks", nargs="+", default=["resnet152"],
                            metavar="NET")
    dse_parser.add_argument("--batches", nargs="+", type=int, default=[256],
                            metavar="B")
    dse_parser.add_argument("--axis", dest="axes", action="append",
                            default=None, metavar="KEY=V1,V2,...",
                            help="add a search axis (repeatable), e.g. "
                                 "--axis num_sm=1,2,4 --axis cta_tile=128,256; "
                                 "without axes the stock 162-point grid runs")
    dse_parser.add_argument("--driver", choices=driver_names(),
                            default="grid",
                            help="search strategy: exhaustive grid, seeded "
                                 "random sampling, or cheap-first successive "
                                 "halving")
    dse_parser.add_argument("--budget", type=int, default=None,
                            help="evaluation budget (required for "
                                 "random/halving; caps grid)")
    dse_parser.add_argument("--seed", type=int, default=0,
                            help="seed for the random/halving drivers")
    dse_parser.add_argument("--objectives", nargs="+",
                            default=["throughput", "dram", "cost"],
                            metavar="OBJ",
                            help="Pareto objectives: throughput, time, dram, "
                                 "cost")
    dse_parser.add_argument("--store", default=None, metavar="JSONL",
                            help="resumable result store; rerunning skips "
                                 "already-evaluated points")
    dse_parser.add_argument("--all-layers", action="store_true",
                            help="evaluate every conv layer, not just unique "
                                 "configurations")
    dse_parser.add_argument("--confirm-top", type=int, default=0, metavar="N",
                            help="simulator-confirm the N best frontier "
                                 "points (0 = analytic model only)")
    add_pass_flag(dse_parser)
    add_simulation_flags(dse_parser)
    add_trace_flag(dse_parser)
    add_strict_flag(dse_parser)
    add_format_flag(dse_parser)
    dse_parser.set_defaults(func=_cmd_dse)

    serve_parser = subparsers.add_parser(
        "serve",
        help="serve the estimation API over HTTP (one shared session; "
             "identical concurrent requests coalesce onto one execution)")
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="interface to bind (default: loopback)")
    serve_parser.add_argument("--port", type=int, default=8421,
                              help="TCP port (0 = OS-assigned)")
    serve_parser.add_argument("--max-memo", type=int, default=1024,
                              metavar="N",
                              help="encoded replies memoized server-wide "
                                   "(0 disables the request memo)")
    add_simulation_flags(serve_parser)
    serve_parser.set_defaults(func=_cmd_serve)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
