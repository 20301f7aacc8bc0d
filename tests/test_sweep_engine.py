"""The parallel, incremental sweep engine (repro.bench.sweep).

Covers the engine itself (deterministic merge, the caller sharing cells
with spawned helpers, error and helper-death propagation, the
content-addressed cache) and its two production call sites: the tuning
suite (``Tuner.build_table``) and the Fig. 2 micro-benchmark sweep
(``sweep_backends``).  Parallel-vs-serial tests use tiny grids; tests
that need a helper to run a cell make the caller's cells wait for it.
"""

import dataclasses
import json
import multiprocessing
import os
import pickle
import time

import pytest

from repro.backends.base import backend_class, clear_cost_caches
from repro.backends.ops import OpFamily
from repro.bench import sweep as sweep_mod
from repro.bench.microbench import sweep_backends
from repro.bench.sweep import (
    _MISS,
    SWEEP_SCHEMA_VERSION,
    SweepCache,
    run_sweep,
    stable_hash,
)
from repro.cluster import lassen
from repro.core import Tuner
from repro.obs.metrics import MetricsRegistry


# workers must be top-level so spawned helpers can unpickle them by name
def _affine(context, unit):
    return unit * 2 + context


def _returns_none(context, unit):
    return None


def _pid(context, unit):
    return os.getpid()


def _fails_on_three(context, unit):
    if unit == 3:
        raise ZeroDivisionError("cell 3")
    return unit


def _slow_float(context, unit):
    time.sleep(0.01)
    return (unit, unit / 7.0 + context)


def _in_helper(marker) -> bool:
    """True in a spawned helper (which touches ``marker``); in the
    caller, wait (bounded) until some helper has done so."""
    if multiprocessing.parent_process() is not None:
        open(marker, "w").close()
        return True
    deadline = time.monotonic() + 60.0
    while not os.path.exists(marker) and time.monotonic() < deadline:
        time.sleep(0.01)
    return False


def _dies_in_helper(marker, unit):
    if _in_helper(marker):
        os._exit(3)
    return unit


def _raises_in_helper(marker, unit):
    if _in_helper(marker):
        raise KeyError("raised in a helper")
    return unit


def _keys_for(units):
    return [stable_hash(("toy", u)) for u in units]


class TestRunSweep:
    def test_serial_preserves_unit_order(self):
        outcome = run_sweep(_affine, [3, 1, 2], context=10)
        assert outcome.results == [16, 12, 14]
        assert outcome.stats.units == 3
        assert outcome.stats.computed == 3
        assert outcome.stats.cache_hits == outcome.stats.cache_misses == 0

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(_affine, [1], jobs=0)

    def test_cache_requires_one_key_per_unit(self, tmp_path):
        cache = SweepCache(tmp_path)
        with pytest.raises(ValueError):
            run_sweep(_affine, [1, 2], cache=cache)
        with pytest.raises(ValueError):
            run_sweep(_affine, [1, 2], cache=cache, keys=["x"])

    def test_parallel_merge_matches_serial(self):
        units = list(range(8))
        serial = run_sweep(_affine, units, context=5)
        parallel = run_sweep(_affine, units, context=5, jobs=3)
        assert parallel.results == serial.results
        assert parallel.stats.jobs == 3

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raising_cell_propagates_its_type(self, jobs):
        with pytest.raises(ZeroDivisionError, match="cell 3"):
            run_sweep(_fails_on_three, list(range(6)), jobs=jobs)

    def test_helper_exception_reaches_the_caller(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sweep_mod, "usable_cpus", lambda: 2)
        with pytest.raises(KeyError, match="raised in a helper"):
            run_sweep(_raises_in_helper, list(range(4)),
                      context=str(tmp_path / "marker"), jobs=2)

    def test_helper_dying_mid_cell_raises_instead_of_hanging(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(sweep_mod, "usable_cpus", lambda: 2)
        with pytest.raises(RuntimeError, match="unfinished"):
            run_sweep(_dies_in_helper, list(range(4)),
                      context=str(tmp_path / "marker"), jobs=2)

    def test_results_byte_identical_across_jobs(self, monkeypatch):
        monkeypatch.setattr(sweep_mod, "usable_cpus", lambda: 3)
        units = list(range(80))
        dumps = {
            jobs: pickle.dumps(run_sweep(_slow_float, units, context=0.5,
                                         jobs=jobs).results)
            for jobs in (1, 2, 3)
        }
        assert dumps[1] == dumps[2] == dumps[3]

    def test_workers_capped_at_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(sweep_mod, "usable_cpus", lambda: 1)
        outcome = run_sweep(_pid, list(range(4)), jobs=4)
        assert outcome.results == [os.getpid()] * 4  # no helpers: in-process
        assert outcome.stats.jobs == 4  # the requested value

    def test_usable_cpus_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert sweep_mod.usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert sweep_mod.usable_cpus() == 1

    def test_cache_cold_then_warm(self, tmp_path):
        units = [4, 5, 6]
        keys = _keys_for(units)
        cache = SweepCache(tmp_path)
        cold = run_sweep(_affine, units, context=1, cache=cache, keys=keys)
        assert cold.stats.cache_misses == 3 and cold.stats.computed == 3
        assert len(cache) == 3
        warm = run_sweep(_affine, units, context=1, cache=cache, keys=keys)
        assert warm.stats.cache_hits == 3 and warm.stats.computed == 0
        assert warm.results == cold.results == [9, 11, 13]

    def test_none_results_are_cacheable(self, tmp_path):
        # the cache must distinguish "stored None" from "absent"
        units = ["a"]
        keys = _keys_for(units)
        cache = SweepCache(tmp_path)
        run_sweep(_returns_none, units, cache=cache, keys=keys)
        warm = run_sweep(_returns_none, units, cache=cache, keys=keys)
        assert warm.results == [None]
        assert warm.stats.cache_hits == 1 and warm.stats.computed == 0

    def test_metrics_receive_cache_counts(self, tmp_path):
        units = [1, 2]
        keys = _keys_for(units)
        cache = SweepCache(tmp_path)
        metrics = MetricsRegistry()
        run_sweep(_affine, units, context=0, cache=cache, keys=keys, metrics=metrics)
        assert metrics.counters["tuning.cache.miss"] == 2
        assert metrics.counters["tuning.cache.hit"] == 0
        run_sweep(_affine, units, context=0, cache=cache, keys=keys, metrics=metrics)
        assert metrics.counters["tuning.cache.hit"] == 2
        events = [e for e in metrics.events if e.family == "sweep_cache"]
        assert events and all(e.kind == "tuning" for e in events)


class TestSweepCache:
    def test_roundtrip(self, tmp_path):
        cache = SweepCache(tmp_path)
        key = stable_hash("cell")
        cache.put(key, {"op": "allreduce"}, 12.5)
        assert cache.get(key) == 12.5

    def test_absent_and_corrupt_miss(self, tmp_path):
        cache = SweepCache(tmp_path)
        key = stable_hash("cell")
        assert cache.get(key) is _MISS
        (tmp_path / f"{key}.json").write_text("{not json")
        assert cache.get(key) is _MISS

    def test_schema_mismatch_misses(self, tmp_path):
        cache = SweepCache(tmp_path)
        key = stable_hash("cell")
        (tmp_path / f"{key}.json").write_text(
            json.dumps({"schema": SWEEP_SCHEMA_VERSION + 1, "cell": {}, "value": 1.0})
        )
        assert cache.get(key) is _MISS

    def test_float_roundtrip_exact(self, tmp_path):
        cache = SweepCache(tmp_path)
        key = stable_hash("cell")
        value = 0.1 + 0.2  # not exactly representable in decimal
        cache.put(key, None, value)
        assert cache.get(key) == value  # bit-for-bit, not approx

    def test_stable_hash_insensitive_to_dict_order(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})
        assert stable_hash({"a": 1}) != stable_hash({"a": 2})


class TestTunerSweep:
    GRID = dict(
        world_sizes=[4],
        message_sizes=[1024, 65536],
        ops=[OpFamily.ALLGATHER],
    )

    def _tuner(self, **kw):
        return Tuner(
            lassen(), ["nccl", "mvapich2-gdr"],
            mode="simulated", iterations=2, warmup=1, **kw,
        )

    def test_parallel_build_table_byte_identical(self, tmp_path):
        serial = self._tuner().build_table(**self.GRID)
        parallel = self._tuner().build_table(**self.GRID, jobs=4)
        assert parallel.samples == serial.samples  # identical ordering too
        assert parallel == serial  # sweep_stats excluded from equality
        a, b = tmp_path / "serial.json", tmp_path / "parallel.json"
        serial.table.save(a)
        parallel.table.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_capped_build_table_byte_identical(self, tmp_path, monkeypatch):
        serial = self._tuner().build_table(**self.GRID)
        monkeypatch.setattr(sweep_mod, "usable_cpus", lambda: 1)
        capped = self._tuner().build_table(**self.GRID, jobs=4)
        assert capped.sweep_stats.jobs == 4
        assert capped.samples == serial.samples
        a, b = tmp_path / "serial.json", tmp_path / "capped.json"
        serial.table.save(a)
        capped.table.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_warm_cache_recomputes_nothing_and_matches(self, tmp_path):
        serial = self._tuner().build_table(**self.GRID)
        cold = self._tuner().build_table(**self.GRID, cache=SweepCache(tmp_path))
        warm = self._tuner().build_table(**self.GRID, cache=SweepCache(tmp_path))
        assert cold.sweep_stats.computed == cold.sweep_stats.cache_misses == 4
        assert warm.sweep_stats.computed == 0
        assert warm.sweep_stats.cache_hits == 4
        assert serial == cold == warm

    def test_calibration_edit_invalidates_only_that_backend(
        self, tmp_path, monkeypatch
    ):
        # jobs=1 throughout: a monkeypatched class attribute does not
        # propagate to spawn children (they re-import pristine modules)
        tuner = Tuner(lassen(), ["nccl", "gloo"], mode="analytic")
        grid = dict(world_sizes=[4], message_sizes=[1024, 4096, 16384],
                    ops=[OpFamily.ALLREDUCE])
        cache = SweepCache(tmp_path)
        cold = tuner.build_table(**grid, cache=cache)
        assert cold.sweep_stats.cache_misses == 6

        cls = backend_class("nccl")
        monkeypatch.setattr(
            cls, "tuning",
            dataclasses.replace(
                cls.tuning, call_overhead_us=cls.tuning.call_overhead_us + 1.0
            ),
        )
        clear_cost_caches()
        try:
            edited = Tuner(lassen(), ["nccl", "gloo"], mode="analytic").build_table(
                **grid, cache=cache
            )
            # only nccl's 3 cells recompute; gloo's 3 still hit
            assert edited.sweep_stats.cache_misses == 3
            assert edited.sweep_stats.cache_hits == 3
            nccl_lat = {
                (s.msg_bytes): s.latency_us
                for s in edited.samples if s.backend == "nccl"
            }
            cold_lat = {
                (s.msg_bytes): s.latency_us
                for s in cold.samples if s.backend == "nccl"
            }
            for msg in nccl_lat:
                assert nccl_lat[msg] == pytest.approx(cold_lat[msg] + 1.0)
        finally:
            clear_cost_caches()

    def test_measurement_params_are_part_of_the_key(self, tmp_path):
        grid = dict(world_sizes=[4], message_sizes=[1024], ops=[OpFamily.ALLREDUCE])
        cache = SweepCache(tmp_path)
        Tuner(lassen(), ["nccl"], mode="analytic", iterations=5).build_table(
            **grid, cache=cache
        )
        other = Tuner(lassen(), ["nccl"], mode="analytic", iterations=7).build_table(
            **grid, cache=cache
        )
        assert other.sweep_stats.cache_hits == 0  # different iterations: miss


class TestMicrobenchSweep:
    SIZES = [1024, 65536]

    def test_jobs_equivalent_to_serial(self):
        serial = sweep_backends(
            lassen(), ["nccl", "gloo"], OpFamily.ALLREDUCE, 8,
            message_sizes=self.SIZES,
        )
        parallel = sweep_backends(
            lassen(), ["nccl", "gloo"], OpFamily.ALLREDUCE, 8,
            message_sizes=self.SIZES, jobs=2,
        )
        assert parallel == serial

    def test_cache_warm_matches_cold(self, tmp_path):
        args = (lassen(), ["nccl", "gloo"], OpFamily.ALLREDUCE, 8)
        cold = sweep_backends(*args, message_sizes=self.SIZES,
                              cache=SweepCache(tmp_path))
        warm = sweep_backends(*args, message_sizes=self.SIZES,
                              cache=SweepCache(tmp_path))
        serial = sweep_backends(*args, message_sizes=self.SIZES)
        assert cold == warm == serial
