"""Tests for the resumable DSE result store: content keys, JSONL durability,
and the interrupted-sweep -> rerun -> zero re-evaluations contract."""

import dataclasses
import json
import os
import struct

import pytest

from repro import faults
from repro.dse import (
    ExhaustiveDriver,
    GPU_AXIS_KEYS,
    MetricTable,
    ResultStore,
    StaleStoreError,
    StoreLockedError,
    explore,
    grid,
    is_failure_record,
    store_keys,
)
from repro.dse.runner import _workload_fingerprint
from repro.dse.space import DesignPoint
from repro.gpu import TITAN_XP, DesignOption, get_device
from repro.networks import get_network, register_network, unregister_network
from repro.networks.registry import registry_generation
from repro.resilience import TaskFailure

from model_reference import evaluate_point


#: one changed value per design field: the eight multipliers and the tile.
DESIGN_CHANGES = [(key, 2.0) for key in GPU_AXIS_KEYS] + [("cta_tile_hw", 256)]
#: one changed value per workload field.
WORKLOAD_CHANGES = [("network", "vgg16"), ("batch", 32),
                    ("passes", "training"), ("dtype_bytes", 2)]
BASE_POINT = DesignPoint(option=DesignOption("a"), network="alexnet", batch=16)


def _record(time_s, layers=1, bottlenecks=None):
    """A metrics record (every metrics key, in dict order)."""
    return {"time_s": time_s, "throughput_tflops": 2.0, "dram_gb": 0.5,
            "l2_gb": 0.75, "resource_cost": 1.0, "layers": layers,
            "gemms": layers,
            "bottlenecks": ({"MAC_BW": 1.0} if bottlenecks is None
                            else bottlenecks)}


def _table(*times):
    return MetricTable.from_records([_record(time_s) for time_s in times])


def _put(store, key, record):
    """Append one metrics record (one chunk line)."""
    store.put_many([key], MetricTable.from_records([record]))


def _key(base_gpu, point, unique):
    """The content key of one design point."""
    return store_keys(base_gpu, [point], unique)[0]


def _fingerprint(point, unique):
    return _workload_fingerprint(point.network, point.batch,
                                 point.dtype_bytes, point.passes, unique,
                                 registry_generation())


@pytest.fixture()
def space():
    return grid({"num_sm": (1, 2), "mac_bw": (1, 2), "dram_bw": (1, 1.5)},
                network="alexnet", batch=16)


class TestResultStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ResultStore(str(tmp_path / "sweep.jsonl"))
        _put(store, "k1", _record(0.1234567890123456789, layers=5))
        assert store.get("k1") == _record(0.1234567890123456789, layers=5)
        assert "k1" in store
        assert len(store) == 1
        store.close()

    def test_floats_roundtrip_exactly_through_disk(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        value = 0.1 + 0.2  # a float with an awkward shortest repr
        with ResultStore(path) as store:
            _put(store, "k", _record(value, bottlenecks={"DRAM_BW": 1.0 / 3.0}))
        reloaded = ResultStore(path)
        record = reloaded.get("k")
        assert record["time_s"] == value
        assert record["bottlenecks"]["DRAM_BW"] == 1.0 / 3.0

    def test_in_memory_store_without_path(self):
        store = ResultStore()
        _put(store, "k", _record(1.0))
        assert store.get("k") == _record(1.0)
        assert store.path is None

    def test_duplicate_put_is_ignored(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        with ResultStore(path) as store:
            _put(store, "k", _record(1.0))
            _put(store, "k", _record(2.0))
        assert ResultStore(path).get("k") == _record(1.0)
        with open(path) as handle:
            assert len(handle.readlines()) == 1

    def test_truncated_trailing_line_tolerated(self, tmp_path):
        """A process killed mid-append leaves a partial line; the store must
        load every complete record and keep accepting new ones."""
        path = tmp_path / "sweep.jsonl"
        with ResultStore(str(path)) as store:
            _put(store, "k1", _record(1.0))
            _put(store, "k2", _record(2.0))
        text = path.read_text()
        path.write_text(text + '{"key": "k3", "metr')  # torn write
        reloaded = ResultStore(str(path))
        assert len(reloaded) == 2
        assert reloaded.corrupt_lines == 1
        _put(reloaded, "k3", _record(3.0))
        reloaded.close()
        final = ResultStore(str(path))
        assert final.get("k3") == _record(3.0)

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "nested" / "dir" / "sweep.jsonl"
        with ResultStore(str(path)) as store:
            _put(store, "k", _record(1.0))
        assert path.exists()


class TestDurability:
    def test_truncation_at_every_offset_of_final_record(self, tmp_path):
        """A kill can tear the final append at *any* byte.  Whatever the cut,
        every earlier record survives, the torn tail is dropped (or, when the
        cut only removed the newline, still parses), and the store keeps
        accepting appends that later load cleanly."""
        path = tmp_path / "sweep.jsonl"
        with ResultStore(str(path)) as store:
            _put(store, "k1", _record(1.0))
            _put(store, "k2", _record(2.0))
            _put(store, "k3", _record(3.0))
        blob = path.read_bytes()
        prefix_len = blob.index(b'"k3"')  # cut somewhere inside record 3
        prefix_len = blob.rfind(b"\n", 0, prefix_len) + 1

        for offset in range(prefix_len, len(blob)):
            path.write_bytes(blob[:offset])
            reloaded = ResultStore(str(path))
            assert reloaded.get("k1") == _record(1.0)
            assert reloaded.get("k2") == _record(2.0)
            assert reloaded.corrupt_lines <= 1
            assert ("k3" in reloaded) == (reloaded.corrupt_lines == 0
                                          and offset > prefix_len)
            _put(reloaded, "k4", _record(4.0))
            reloaded.close()
            recovered = ResultStore(str(path))
            assert recovered.get("k4") == _record(4.0)
            assert recovered.get("k1") == _record(1.0)
            # the torn debris (if any) stays quarantined on its own line
            # and keeps counting as exactly one corrupt line forever.
            assert recovered.corrupt_lines == reloaded.corrupt_lines

    def test_second_concurrent_writer_is_rejected(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        first = ResultStore(path)
        _put(first, "k1", _record(1.0))  # first append takes the writer lock
        second = ResultStore(path)
        assert second.get("k1") == _record(1.0)  # reading is fine
        with pytest.raises(StoreLockedError, match="locked by another"):
            _put(second, "k2", _record(2.0))
        first.close()
        third = ResultStore(path)
        _put(third, "k3", _record(3.0))  # lock released with the handle
        third.close()

    def test_failure_records_round_trip(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        failure = TaskFailure(kind="crash", error_type="BrokenProcessPool",
                              message="worker died", attempts=3)
        with ResultStore(path) as store:
            _put(store, "ok", _record(1.0))
            store.put_many([], MetricTable.from_records(()),
                           {"bad": failure.as_record()})
        reloaded = ResultStore(path)
        assert not is_failure_record(reloaded.get("ok"))
        record = reloaded.get("bad")
        assert is_failure_record(record)
        assert TaskFailure.from_record(record["failure"]) == failure
        assert set(reloaded.failures()) == {"bad"}
        with open(path) as handle:
            lines = [json.loads(line) for line in handle]
        assert lines[1] == {"keys": [],
                            "columns": MetricTable.from_records(()).encode(),
                            "failures": {"bad": failure.as_record()}}

    def test_torn_trailing_chunk_line_counts_as_corrupt(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with ResultStore(str(path)) as store:
            store.put_many(["k1", "k2"], _table(1.0, 2.0))
            store.put_many(["k3", "k4"], _table(3.0, 4.0))
        blob = path.read_bytes()
        path.write_bytes(blob[:blob.rindex(b'"k4"')])
        reloaded = ResultStore(str(path))
        assert reloaded.corrupt_lines == 1
        assert sorted(reloaded.keys()) == ["k1", "k2"]

    def test_one_line_per_point_store_fails_closed(self, tmp_path):
        """A store of the older per-point format can never hit under the
        current keys: opening it raises instead of re-appending to it."""
        path = tmp_path / "old.jsonl"
        original = ('{"key": "abc", "metrics": {"time_s": 1.0}, '
                    '"point": {"network": "alexnet"}}\n')
        path.write_text(original)
        with pytest.raises(StaleStoreError) as excinfo:
            ResultStore(str(path))
        assert isinstance(excinfo.value, ValueError)
        message = str(excinfo.value)
        assert str(path) in message
        assert "delete the file" in message and "--store" in message
        assert path.read_text() == original


class TestStoreKey:
    @pytest.mark.parametrize("field,value", DESIGN_CHANGES,
                             ids=[field for field, _ in DESIGN_CHANGES])
    def test_key_tracks_every_design_field(self, field, value):
        changed = dataclasses.replace(
            BASE_POINT,
            option=dataclasses.replace(BASE_POINT.option, **{field: value}))
        assert _key(TITAN_XP, changed, True) != _key(
            TITAN_XP, BASE_POINT, True)

    @pytest.mark.parametrize("field,value", WORKLOAD_CHANGES,
                             ids=[field for field, _ in WORKLOAD_CHANGES])
    def test_key_tracks_every_workload_field(self, field, value):
        changed = dataclasses.replace(BASE_POINT, **{field: value})
        assert _key(TITAN_XP, changed, True) != _key(
            TITAN_XP, BASE_POINT, True)

    def test_batched_keys_equal_one_point_keys(self):
        points = list(grid({"num_sm": (1, 2.5), "cta_tile": (128, 256),
                            "network": ("alexnet", "mlp"),
                            "passes": ("forward", "training"),
                            "dtype_bytes": (2, 4)}, batch=8).points())
        for unique in (True, False):
            keys = store_keys(TITAN_XP, points, unique)
            assert keys == [_key(TITAN_XP, point, unique)
                            for point in points]
            assert len(set(keys)) == len(points)

    def test_network_registered_again_is_not_served_stale(self):
        """Re-registering a name with another network changes its layers,
        its workload fingerprint and so every store key under that name."""
        def evaluated_layers():
            space = grid({"num_sm": (1, 2)}, network="tmpnet", batch=16)
            layers = {result.metrics["layers"]
                      for result in explore(space).results}
            assert layers == {evaluate_point(TITAN_XP, point)["layers"]
                              for point in space.points()}
            return layers

        point = DesignPoint(option=DesignOption("a"), network="tmpnet",
                            batch=16)
        register_network("tmpnet")(
            lambda batch: get_network("alexnet", batch=batch))
        try:
            first_key = _key(TITAN_XP, point, True)
            assert evaluated_layers() == {
                len(get_network("alexnet", batch=16).unique_layers())}
            unregister_network("tmpnet")
            register_network("tmpnet")(
                lambda batch: get_network("vgg16", batch=batch))
            assert _key(TITAN_XP, point, True) != first_key
            assert evaluated_layers() == {
                len(get_network("vgg16", batch=16).unique_layers())}
        finally:
            unregister_network("tmpnet")

    def test_key_ignores_names_but_not_content(self):
        a = DesignPoint(option=DesignOption("a", num_sm=2.0), network="alexnet",
                        batch=16)
        b = DesignPoint(option=DesignOption("b", num_sm=2.0), network="alexnet",
                        batch=16)
        assert _key(TITAN_XP, a, True) == _key(TITAN_XP, b, True)
        c = DesignPoint(option=DesignOption("a", num_sm=4.0), network="alexnet",
                        batch=16)
        assert _key(TITAN_XP, a, True) != _key(TITAN_XP, c, True)

    def test_key_depends_on_baseline_gpu_and_layer_selection(self):
        point = DesignPoint(option=DesignOption("a", num_sm=2.0),
                            network="alexnet", batch=16)
        assert _key(TITAN_XP, point, True) != _key(
            get_device("v100"), point, True)
        assert _key(TITAN_XP, point, True) != _key(
            TITAN_XP, point, False)

    def test_workload_fingerprint_tracks_structure(self):
        a = DesignPoint(option=DesignOption("a"), network="alexnet", batch=16)
        b = DesignPoint(option=DesignOption("a"), network="alexnet", batch=32)
        assert _fingerprint(a, True) != _fingerprint(b, True)
        c = DesignPoint(option=DesignOption("a"), network="alexnet", batch=16,
                        passes="training")
        assert _fingerprint(a, True) != _fingerprint(c, True)


class TestResumableSweep:
    def test_interrupted_sweep_resumes_with_zero_reevaluations(self, tmp_path,
                                                               space):
        """Kill mid-sweep (simulated by a capped first run), rerun the full
        sweep: the store answers everything already evaluated and only the
        remainder runs; a third run re-evaluates nothing at all."""
        path = str(tmp_path / "sweep.jsonl")

        # "killed" first run: only 3 of the 8 points get evaluated (the
        # identity point leads the enumeration, so the implicit speedup
        # baseline dedupes against it and costs nothing extra).
        with ResultStore(path) as store:
            partial = explore(space, driver=ExhaustiveDriver(limit=3),
                              store=store)
        assert partial.stats.evaluated == 3

        with ResultStore(path) as store:
            full = explore(space, driver=ExhaustiveDriver(), store=store)
        assert full.stats.store_hits == 3
        assert full.stats.evaluated == len(space) - 3

        with ResultStore(path) as store:
            rerun = explore(space, driver=ExhaustiveDriver(), store=store)
        assert rerun.stats.evaluated == 0
        assert rerun.stats.store_hits == len(space)
        assert all(result.cached for result in rerun.results)

        for a, b in zip(full.results, rerun.results):
            assert a.metrics == b.metrics
        assert full.frontier == rerun.frontier

    def test_resumed_metrics_keep_key_and_bottleneck_order(self, tmp_path):
        """A record read back from disk is the dict that was evaluated:
        same values, same key order, same bottleneck-share order."""
        space = grid({"num_sm": (1, 2), "mac_bw": (1, 4)},
                     network="alexnet", batch=16, passes="training")
        path = str(tmp_path / "sweep.jsonl")
        with ResultStore(path) as store:
            fresh = explore(space, store=store)
        with ResultStore(path) as store:
            resumed = explore(space, store=store)
        assert resumed.stats.evaluated == 0
        assert any(len(result.metrics["bottlenecks"]) > 1
                   for result in fresh.results)
        for a, b in zip(fresh.results, resumed.results):
            assert b.cached
            assert json.dumps(b.metrics) == json.dumps(a.metrics)


class TestColumnarChunks:
    """The schema-3 chunk line: keys, base64 metric columns and failures."""

    def test_schema_two_chunk_line_fails_closed(self, tmp_path):
        path = tmp_path / "schema2.jsonl"
        original = '{"keys": ["abc"], "records": [{"time_s": 1.0}]}\n'
        path.write_text(original)
        with pytest.raises(StaleStoreError) as excinfo:
            ResultStore(str(path))
        assert str(path) in str(excinfo.value)
        assert path.read_text() == original

    def test_torn_final_chunk_is_corrupt_and_next_append_starts_fresh(
            self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with ResultStore(str(path)) as store:
            store.put_many(["k1", "k2"], _table(1.0, 2.0))
            store.put_many(["k3", "k4"], _table(3.0, 4.0))
        blob = path.read_bytes()
        last_line = blob.rindex(b"\n", 0, len(blob) - 1) + 1
        path.write_bytes(blob[:last_line + (len(blob) - last_line) // 2])
        with ResultStore(str(path)) as torn:
            assert torn.corrupt_lines == 1
            assert sorted(torn.keys()) == ["k1", "k2"]
            torn.put_many(["k5"], _table(5.0))
        lines = path.read_bytes().split(b"\n")
        assert lines[-1] == b""
        assert json.loads(lines[-2])["keys"] == ["k5"]
        reloaded = ResultStore(str(path))
        assert reloaded.corrupt_lines == 1
        assert sorted(reloaded.keys()) == ["k1", "k2", "k5"]
        assert reloaded.get("k5") == _record(5.0)

    def test_failure_records_are_skipped_on_resume(self, tmp_path, space):
        path = str(tmp_path / "sweep.jsonl")
        with faults.injected(
                faults.flaky(site="dse", match="num_sm=2,mac_bw=2,dram_bw=1.5",
                             failures=2),
                state_dir=str(tmp_path / "state")):
            with ResultStore(path) as store:
                first = explore(space, store=store)
        assert first.stats.failed == 1
        with open(path, encoding="utf-8") as handle:
            (line,) = [json.loads(text) for text in handle]
        assert len(line["keys"]) == len(space) - 1
        assert list(line["failures"]) == [first.failures[0].key]
        size = os.path.getsize(path)

        with ResultStore(path) as store:
            resumed = explore(space, store=store)
        assert resumed.stats.evaluated == 0
        assert resumed.stats.skipped_failures == 1
        assert resumed.stats.store_hits == len(space)
        assert [f.key for f in resumed.failures] == [
            f.key for f in first.failures]
        assert resumed.failures[0].cached
        assert os.path.getsize(path) == size

    def test_float_columns_round_trip_bit_exactly(self, tmp_path):
        subnormal = 5e-324
        tiny = 2.2250738585072014e-308 / 3
        records = [
            {"time_s": -0.0, "throughput_tflops": subnormal,
             "dram_gb": tiny, "l2_gb": 0.1 + 0.2, "resource_cost": -tiny,
             "layers": 3, "gemms": 9,
             "bottlenecks": {"L2_BW": subnormal, "MAC_BW": -0.0,
                             "DRAM_LAT": 1.0 / 3.0}},
            {"time_s": 1.7976931348623157e308, "throughput_tflops": 0.0,
             "dram_gb": -subnormal, "l2_gb": 1e-310, "resource_cost": 1.0,
             "layers": 1, "gemms": 1, "bottlenecks": {}},
        ]
        path = str(tmp_path / "sweep.jsonl")
        with ResultStore(path) as store:
            store.put_many(["a", "b"], MetricTable.from_records(records))
        reloaded = ResultStore(path)

        def bits(record):
            return [struct.pack("<d", value) for value in
                    [record[name] for name in ("time_s", "throughput_tflops",
                                               "dram_gb", "l2_gb",
                                               "resource_cost")]
                    + list(record["bottlenecks"].values())]

        for key, record in zip("ab", records):
            loaded = reloaded.get(key)
            assert json.dumps(loaded) == json.dumps(record)
            assert list(loaded["bottlenecks"]) == list(record["bottlenecks"])
            assert bits(loaded) == bits(record)
