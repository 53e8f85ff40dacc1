"""Unit tests of the benchmark's own machinery (no workload is run)."""

import json
import time

import pytest

from dse_sweep import DESIGN_AXES, design_axes
from estimate_serve import (EPISODE_REQUESTS, MAX_BATCH, STRATA,
                            request_stream)
from harness import Budget, best_total, percentile, quartiles
from tracer import Tracer


class Layer:
    """Stand-ins for the program's functions and methods."""

    @classmethod
    def build(cls, n):
        return [n] * n

    def inner(self, delay):
        time.sleep(delay)
        return delay

    def outer(self, delay):
        time.sleep(delay)
        return self.inner(delay) + self.again(delay)

    def again(self, delay):
        return self.inner(delay)


def test_self_time_excludes_children_and_same_name_reentry():
    tracer = Tracer()
    layer = Layer()
    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", "inner",
                lambda args, kwargs, result: {"calls": 1})
    tracer.wrap(Layer, "again", "inner")  # same name: its inner call nests
    try:
        with tracer.span("root", request=7):
            layer.outer(0.01)
            tracer.note({"noted": 2})
    finally:
        tracer.restore()
    assert Layer.__dict__["outer"].__name__ == "outer"
    (group,) = tracer.groups()
    assert group.name == "root" and group.request == 7
    # two top-level "inner" spans (inner, again); again's own inner call is
    # a re-entry under the same name and records nothing.
    assert group.counts["calls"] == 1 and group.counts["noted"] == 2
    assert sum(1 for span in tracer.spans if span[0] == "inner") == 2
    assert group.ms["inner"] >= 20
    assert group.self_ms["outer"] == pytest.approx(
        group.ms["outer"] - group.ms["inner"])
    assert 10 <= group.self_ms["outer"] < group.ms["outer"]
    events = json.loads(json.dumps(tracer.to_chrome()))["traceEvents"]
    assert {event["args"]["request"] for event in events} == {7}


def test_classmethod_wrap_and_restore():
    tracer = Tracer()
    original = Layer.__dict__["build"]
    tracer.wrap(Layer, "build", "build",
                lambda args, kwargs, result: {"items": len(result)})
    with tracer.span("root"):
        assert Layer.build(3) == [3, 3, 3]
    tracer.restore()
    assert Layer.__dict__["build"] is original
    assert tracer.groups()[0].counts["items"] == 3


def test_statistics_helpers():
    assert best_total([[3.0, 1.0], [2.0, 5.0], [4.0, 2.0]]) == 3.0
    assert percentile(list(range(1, 101)), 99) == (99, 1)
    assert percentile([5.0], 99) == (5.0, 0)
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)


def test_budget_stops_at_the_nearest_unit():
    assert [Budget(0.0, fixed=2).more(n) for n in range(3)] == [
        True, True, False]
    assert Budget(0.0, minimum=2).more(1)
    budget = Budget(10.0)
    budget.started = time.perf_counter() - 6.0
    assert budget.more(2)        # a third 3 s unit ends at 9 s
    budget.started = time.perf_counter() - 8.0
    assert budget.more(4)        # a fifth 2 s unit ends at 10 s
    assert not budget.more(2)    # a third 4 s unit would end at 12 s


def test_request_stream_is_seeded_and_stratified():
    first = request_stream(3)
    assert first == request_stream(3) != request_stream(4)
    assert len(first) == EPISODE_REQUESTS
    fresh = [body for body, repeat in first if not repeat]
    repeats = [body for body, repeat in first if repeat]
    assert len(set(fresh)) == len(fresh) == len(repeats)
    assert sorted(repeats) == sorted(fresh)
    for index, (body, repeat) in enumerate(first):
        if repeat:
            assert (body, False) in first[:index]
    bodies = [json.loads(body) for body in fresh]
    assert sorted((b["network"], b["gpu"], b["passes"], b["unique"])
                  for b in bodies) == sorted(STRATA)
    assert all(1 <= b["batch"] <= MAX_BATCH for b in bodies)


def test_design_axes_keep_their_sizes_and_range():
    assert design_axes(0) == {name: tuple(float(v) for v in values)
                              for name, values, _, _ in DESIGN_AXES}
    assert design_axes(5) == design_axes(5) != design_axes(6)
    for name, values, top, _ in DESIGN_AXES:
        drawn = design_axes(5)[name]
        assert len(drawn) == len(set(drawn)) == len(values)
        assert drawn[0] == 1.0 and all(1.0 < v <= top for v in drawn[1:])
