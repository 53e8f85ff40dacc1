"""``sim-validate``: model-vs-simulator validation of the TITAN Xp at bench
scale (batch 16, 120 simulated CTAs per layer, 3 unique layers per network
of the paper suite), serially in this process with no on-disk sim cache.

Trace generation and the cache kernels of ``repro.sim`` do nearly all the
work; the analytic model's share is small.  The workload is deterministic
and ignores the seed.  Drawing the layers from the seed would move the host
rate by more than any bound allows, because layers differ in host cost per
CTA by two orders of magnitude (CTA/s over 40 random 3-per-network draws
had an interquartile range of 48% of its median); even the simulation
order moves peak memory by up to 10%.

Every pass must reproduce the same simulated traffic and the same GMAE, and
the GMAE must round to the TITAN Xp baseline.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Dict, List, Optional, Tuple

from harness import (Budget, Outcome, best_total, child_first_result,
                     cold_starts, self_peak_rss_mb)
from tracer import Tracer

LEVELS = ("l1", "l2", "dram")
#: the TITAN Xp GMAE at bench scale, per level and for time, two decimals.
BASELINE_GMAE = {"l1": 0.48, "l2": 0.49, "dram": 0.12, "time": 0.31}
#: passes per half of a traced run (untraced first, then traced).
TRACED_PASSES = 1

COUNTS = ("sim.cache.l1_accesses", "sim.cache.l1_misses",
          "sim.cache.l2_accesses", "sim.cache.l2_misses", "sim.dram.bytes",
          "sim.engine.ctas")


def config():
    from repro.analysis.validation import ValidationConfig

    return ValidationConfig(batch=16, max_ctas=120, layers_per_network=3,
                            jobs=1)


def population() -> List[tuple]:
    """The (network, layer) pairs to validate: the first three unique
    layers of each paper network."""
    from repro.analysis.validation import select_layers

    return select_layers(config())


def first_result(seed: int) -> str:
    """The cold-start child's work: validate the population's smallest
    layer."""
    from repro.analysis.validation import validate_gpu
    from repro.gpu.devices import TITAN_XP

    smallest = min(population(), key=lambda item: item[1].macs)
    report = validate_gpu(TITAN_XP, config(), layers=[smallest])
    return f"{len(report.records)} layer"


@contextlib.contextmanager
def _layer_meter(rows: List[Tuple[int, float]]):
    """Record ``(simulated_ctas, seconds)`` of every simulator run inside
    the block: the one hook an untraced pass needs to count its CTAs."""
    from repro.sim.engine import ConvLayerSimulator

    original = ConvLayerSimulator.__dict__["run"]

    def run(self, source):
        started = time.perf_counter()
        result = original(self, source)
        rows.append((result.simulated_ctas, time.perf_counter() - started))
        return result

    ConvLayerSimulator.run = run
    try:
        yield
    finally:
        ConvLayerSimulator.run = original


def _install(tracer: Tracer) -> None:
    import numpy as np

    from repro.core.model import DeltaModel
    from repro.sim.cache import (LruCache, SetAssociativeCache,
                                 SetAssociativeCacheBank)
    from repro.sim.dram import DramChannel
    from repro.sim.engine import ConvLayerSimulator
    from repro.sim.im2col import GemmTraceGenerator

    def hits(level):
        def count(args, kwargs, result):
            return {f"sim.cache.{level}_accesses": result.size,
                    f"sim.cache.{level}_misses":
                        result.size - int(np.count_nonzero(result))}
        return count

    tracer.wrap(ConvLayerSimulator, "run", "sim.engine.run",
                lambda a, k, r: {"sim.engine.ctas": r.simulated_ctas})
    for method in ("a_tile_batch", "b_tile_batch"):
        tracer.wrap(GemmTraceGenerator, method, "sim.im2col.trace")
    tracer.wrap(SetAssociativeCacheBank, "access_block", "sim.cache.l1_bank",
                hits("l1"))
    for cache in (LruCache, SetAssociativeCache):
        tracer.wrap(cache, "access_block", "sim.cache.l2", hits("l2"))
    tracer.wrap(DramChannel, "read", "sim.dram.read",
                lambda a, k, r: {"sim.dram.bytes": a[1]})
    for method in ("traffic", "estimate"):
        tracer.wrap(DeltaModel, method, "core.model.validate")


def _signature(report) -> Tuple:
    """What a pass must reproduce: per-layer traffic and times, and GMAE."""
    layers = sorted(
        (r.network, r.layer.name,
         tuple(r.measured_traffic[level] for level in LEVELS),
         r.measured_time, tuple(r.model_traffic[level] for level in LEVELS),
         r.model_time)
        for r in report.records)
    return tuple(layers), _gmae(report)


def _gmae(report) -> Dict[str, float]:
    gmae = {level: report.traffic_summary(level).gmae for level in LEVELS}
    gmae["time"] = report.time_summary().gmae
    return gmae


def _pass(layers: List[tuple], index: int,
          tracer: Optional[Tracer]) -> Dict[str, object]:
    from repro.analysis.validation import validate_gpu
    from repro.gpu.devices import TITAN_XP

    rows: List[Tuple[int, float]] = []
    span = (tracer.span("pass", request=index) if tracer is not None
            else contextlib.nullcontext())
    with _layer_meter(rows), span:
        started = time.perf_counter()
        report = validate_gpu(TITAN_XP, config(), layers=layers)
        seconds = time.perf_counter() - started
    return {"seconds": seconds, "ctas": sum(row[0] for row in rows),
            "layers": rows, "signature": _signature(report)}


def _rate(passes: List[Dict[str, object]]) -> float:
    """Simulated CTAs per second, each layer at its fastest pass."""
    return passes[0]["ctas"] / best_total(
        [[seconds for _, seconds in p["layers"]] for p in passes])


def _check(outcome: Outcome, result: Dict[str, object],
           reference: Tuple) -> None:
    layers, gmae = result["signature"]
    outcome.attempted += len(layers)
    outcome.failed += sum(1 for mine, theirs in zip(layers, reference[0])
                          if mine != theirs)
    outcome.check("passes_identical", result["signature"] == reference)
    outcome.check("gmae_matches_baseline", all(
        round(gmae[key], 2) == value for key, value in BASELINE_GMAE.items()))


def run(seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    outcome = Outcome()
    if tracer is None:
        outcome.metrics["setup_s"] = cold_starts(
            lambda: child_first_result("sim-validate", seed), outcome)

    layers = population()
    budget = Budget(seconds, fixed=TRACED_PASSES if tracer is not None
                    else None)
    passes: List[Dict[str, object]] = []
    while budget.more(len(passes)):
        passes.append(_pass(layers, len(passes), None))
    reference = passes[0]["signature"]
    for result in passes:
        _check(outcome, result, reference)
    rate = _rate(passes)
    outcome.notes["passes"] = (f"{len(passes)} passes of {len(layers)} "
                               f"layers, {passes[0]['ctas']} CTAs each")
    outcome.notes["samples"] = json.dumps([p["layers"] for p in passes])
    if tracer is None:
        outcome.metrics["peak_rss_mb"] = self_peak_rss_mb()
        outcome.metrics["items_per_s"] = rate
        return outcome

    _install(tracer)
    try:
        traced = [_pass(layers, index, tracer)
                  for index in range(TRACED_PASSES)]
    finally:
        tracer.restore()
    for result in traced:
        _check(outcome, result, reference)
    metrics = outcome.metrics
    groups = tracer.groups()
    for metric, span, kind in (
            ("sim.engine.run_ms", "sim.engine.run", "ms"),
            ("sim.engine.self_ms", "sim.engine.run", "self_ms"),
            ("sim.im2col.trace_ms", "sim.im2col.trace", "ms"),
            ("sim.cache.l1_bank_ms", "sim.cache.l1_bank", "ms"),
            ("sim.cache.l2_ms", "sim.cache.l2", "ms"),
            ("core.model.validate_ms", "core.model.validate", "ms")):
        metrics[metric] = min(getattr(g, kind).get(span, 0.0) for g in groups)
    for count in COUNTS:
        metrics[count] = groups[0].counts.get(count, 0)
    metrics["sim_ctas_per_s"] = rate
    for key, value in reference[1].items():
        metrics[f"gmae_{key}"] = value
    metrics["trace.overhead_pct"] = (rate / _rate(traced) - 1.0) * 100.0
    return outcome
