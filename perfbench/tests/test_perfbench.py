"""Tests of the benchmark itself: its checks catch what they must, its
span arithmetic is right, and tracing leaves the simulator untouched.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

SMALL_WORLD = 4


def small_mix(seed: int = 5) -> dict:
    mix = workloads.make_mix(seed, repeats=1, sizes=(1 << 10, 1 << 12), world=SMALL_WORLD)
    return {"mix": mix, "canonical": mix}


def mix_workload(pinned_times=None) -> workloads.CollectiveMix:
    pinned = {"collective_mix": {"canonical_rank_final_us": pinned_times}}
    return workloads.CollectiveMix(small_mix(), pinned)


def test_clean_mix_passes_every_check():
    wl = mix_workload()
    setup = wl.setup()
    it = wl.iterate()
    assert setup.failed == 0 and it.failed == 0
    ops = len(wl.inputs["mix"]["ops"])
    # one oracle check per op and rank, plus "times equal the first run's"
    assert it.attempted == ops * SMALL_WORLD + 1
    assert it.work == ops * SMALL_WORLD and len(it.unit_s) == ops


def test_wrong_collective_output_raises_error_rate(monkeypatch):
    from repro.backends import datapath

    wl = mix_workload()
    wl.setup()
    original = datapath.all_reduce

    def off_by_one(inputs, outputs, op):
        original(inputs, outputs, op)
        outputs[0][0] += 1.0

    monkeypatch.setattr(datapath, "all_reduce", off_by_one)
    it = wl.iterate()
    assert it.failed > 0
    assert all("NumPy oracle" in line for line in it.failures)


def test_simulator_exception_counts_as_failure_not_abort(monkeypatch):
    from repro.backends import datapath
    from repro.sim import DeadlockError

    wl = mix_workload()
    wl.setup()

    def deadlock(*_args, **_kwargs):
        raise DeadlockError({"rank0": "injected"})

    monkeypatch.setattr(datapath, "broadcast", deadlock)
    it = wl.iterate()
    assert it.failed == 1 and "DeadlockError" in it.failures[0]


def test_mix_fingerprint_drift_is_caught():
    clean = mix_workload()
    clean.setup()
    times = clean.last_fingerprint["rank_final_us"]
    assert mix_workload(pinned_times=times).setup().failed == 0
    drifted = [t * (1 + 1e-12) for t in times]
    setup = mix_workload(pinned_times=drifted).setup()
    assert setup.failed == 1 and "!= pinned" in setup.failures[0]


def test_moe_fingerprint_drift_is_caught():
    class SmallMoE(workloads.MoETrain):
        world = 8

    value = SmallMoE({}, {"moe_train": {"sim_step_us": 0.0}})
    first = value.setup()
    step_us = value.last_fingerprint["sim_step_us"]
    assert first.failed == 1
    good = SmallMoE({}, {"moe_train": {"sim_step_us": step_us}})
    assert good.setup().failed == 0
    assert len(good.iterate().unit_s) == SmallMoE.steps + SmallMoE.warmup


def test_pinned_moe_step_matches_committed_perf_baseline():
    import json

    bench = json.loads((Path(run.ROOT) / "BENCH_simulator.json").read_text())
    pinned = workloads.load_pinned()["moe_train"]["sim_step_us"]
    assert pinned == bench["after"]["scenarios"]["dsmoe_step"]["sim_step_us"]


def test_mix_generator_is_seeded_and_balanced():
    a, b = workloads.make_mix(1), workloads.make_mix(2)
    assert a == workloads.make_mix(1) and a != b

    def multiset(mix):
        return sorted((op["kind"], op["n"]) for op in mix["ops"])

    assert multiset(a) == multiset(b)
    for op in a["ops"]:
        if "counts" in op:
            assert sum(op["counts"]) == op["n"] and min(op["counts"]) > 0


def test_self_time_on_synthetic_span_tree():
    S = tracing.Span
    spans = [
        S("comm.all_reduce", 0.0, 10.0, 8.0, -1, "t0", 0),
        S("dispatch._compile_plan", 1.0, 2.0, 1.0, 0, "t0", 0),
        S("rendezvous._collective", 2.0, 9.0, 5.0, 0, "t0", 0),
        S("backends.collective_cost_us", 3.0, 4.0, 0.5, 2, "t0", 0),
        S("rendezvous._await_flag", 4.0, 8.0, 1.5, 2, "t0", 0),
        S("comm.synchronize", 0.0, 3.0, 2.0, -1, "t1", -1),
        None,  # a span still open when the run ended
    ]
    assert tracing.self_busy(spans) == [2.0, 1.0, 3.0, 0.5, 1.5, 2.0, 0.0]
    totals = tracing.span_totals(spans)
    assert totals["rendezvous._await_flag"] == [1, 1.5, 1.5, 4.0, 2.5]
    assert sum(row[2] for row in totals.values()) == pytest.approx(10.0)


def test_wrappers_removed_and_untraced_fingerprint_identical():
    from repro.backends import datapath
    from repro.core.comm import MCRCommunicator

    wl = mix_workload()
    wl.setup()
    wl.iterate()
    before = wl.last_fingerprint
    original_all_reduce = MCRCommunicator.__dict__["all_reduce"]
    original_datapath = datapath.all_reduce

    tracer = tracing.SpanTracer()
    tracer.install()
    patched = tracer.installed()
    try:
        assert MCRCommunicator.__dict__["all_reduce"] is not original_all_reduce
        traced = wl.iterate()
    finally:
        tracer.uninstall()
    assert traced.failed == 0
    assert tracer.spans and all(s is not None for s in tracer.spans)
    assert tracer.counts["engine.events"] > 0
    assert not tracer.installed()
    assert MCRCommunicator.__dict__["all_reduce"] is original_all_reduce
    assert datapath.all_reduce is original_datapath
    for owner, attr in patched:
        assert not hasattr(getattr(owner, attr), "__wrapped__"), (owner, attr)
    assert wl.last_fingerprint == before
    wl.iterate()
    assert wl.last_fingerprint == before

    metrics = tracing.layer_metrics(tracer, 1, {})
    assert set(metrics) == set(tracing.LAYER_METRICS)
    calls = sum(metrics[f"comm.calls.{f}"] for f in tracing.FAMILIES)
    ops = wl.inputs["mix"]["ops"]
    sendrecv = sum(op["kind"] == "sendrecv" for op in ops)
    assert calls == SMALL_WORLD * (len(ops) + sendrecv)


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 99) == 99
    assert run.percentile(values, 100) == 100
    assert run.percentile([3.0], 75) == 3.0


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copytree(Path(run.HERE), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(Path(run.ROOT) / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "moe_train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_calibration_scales_times_and_rates_not_memory():
    slow = run.REF_NOMINAL_S * 1.25  # the host ran 25% slow during the run
    main = {"unit_s": [0.010, 0.020, 0.030], "rates": [100.0, 300.0, 200.0],
            "ref_s": [slow, slow * 0.9, slow * 1.1], "loop": {"peak_rss_mb": 50.0},
            "setup_s": 2.5, "setup_ref_s": slow}
    calibrated, measured = run.end_to_end("collective_mix", main, [main])
    assert measured["unit_ms.p50"] == pytest.approx(20.0)
    assert calibrated["unit_ms.p50"] == pytest.approx(20.0 / 1.25)
    assert calibrated["work_per_s"] == pytest.approx(200.0 * 1.25)
    assert calibrated["setup_s"] == pytest.approx(2.0)
    assert calibrated["unit_ms.tail"] == pytest.approx(30.0 / 1.25)
    assert calibrated["peak_rss_mb"] == measured["peak_rss_mb"] == 50.0


def test_calibration_loop_restores_the_cpu_mask():
    import os

    mask = os.sched_getaffinity(0)
    assert 0 < run.reference_s() < 10
    assert os.sched_getaffinity(0) == mask


def test_ratio_sides_are_calibrated_by_their_own_worker():
    # the same 10 ms of work, timed once on a host running 25% slow
    slow = run.REF_NOMINAL_S * 1.25
    fast = run.calibrated_median([0.010, 0.011, 0.009], [run.REF_NOMINAL_S])
    slowed = run.calibrated_median([0.0125], [slow, slow])
    assert slowed / fast == pytest.approx(1.0)
    assert run.calibrated_median([], [slow]) == 0.0


def test_peak_rss_counts_the_largest_reaped_child():
    child_mb = 96

    def step():
        subprocess.run([sys.executable, "-c", f"b = b'x' * ({child_mb} << 20)"], check=True)
        return workloads.Iteration(work=1.0, unit_s=[0.0])

    loop = run.Tally().timed_loop(step, 0.0)
    assert loop["peak_rss_mb"] >= child_mb


def test_serial_sweep_clears_the_cost_caches(monkeypatch):
    from repro.backends import base

    cleared = []
    monkeypatch.setattr(base, "clear_cost_caches", lambda: cleared.append(1))
    wl = workloads.TuneSweep(workloads.TuneSweep.make_inputs(0), {"tune_sweep": {}})
    wl.setup()
    monkeypatch.setattr(wl, "sweep", lambda jobs: None)  # the sweep itself is not under test
    wl.iterate(jobs=1)
    wl.iterate(jobs=1)
    assert len(cleared) == 2
