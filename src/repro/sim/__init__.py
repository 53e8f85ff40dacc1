"""Trace-driven GPU memory-hierarchy simulator (the "measured" substrate)."""

from .address import INVALID_ADDRESS, WorkloadLayout
from .cache import CacheStats, LruCache, SetAssociativeCache
from .dram import DramChannel
from .engine import ConvLayerSimulator, SimResult, SimTraffic, SimulatorConfig
from .im2col import GemmTraceGenerator
from .microbench import DramLatencyCurve, LatencyPoint, measure_dram_latency_curve
from .scheduler import CtaScheduler, Wave

__all__ = [
    "WorkloadLayout",
    "INVALID_ADDRESS",
    "LruCache",
    "SetAssociativeCache",
    "CacheStats",
    "DramChannel",
    "GemmTraceGenerator",
    "CtaScheduler",
    "Wave",
    "ConvLayerSimulator",
    "SimulatorConfig",
    "SimResult",
    "SimTraffic",
    "DramLatencyCurve",
    "LatencyPoint",
    "measure_dram_latency_curve",
]
