"""Tier-1 wrapper around ``scripts/perfgate.py``.

The perf gate's fingerprint check is the contract that fault-injection
gates and observability hooks (and any other runtime change) leave
healthy-path simulated timings bit-identical to the committed baseline.
Running it from the test suite means a fingerprint drift fails CI, not
just the optional perf workflow.  Wall-clock tolerance is set huge:
shared CI machines are noisy and the wall check already has its own
dedicated harness.
"""

import importlib.util
import json
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
PERFGATE = REPO / "scripts" / "perfgate.py"
BASELINE = REPO / "BENCH_simulator.json"


def load_perfgate():
    spec = importlib.util.spec_from_file_location("perfgate", PERFGATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not BASELINE.exists(), reason="no committed baseline")
def test_simulated_fingerprints_match_committed_baseline():
    perfgate = load_perfgate()
    rc = perfgate.main(
        ["--baseline", str(BASELINE), "--repeats", "1", "--tolerance", "1000"]
    )
    assert rc == 0


def test_missing_baseline_is_unusable_not_a_pass(tmp_path):
    perfgate = load_perfgate()
    missing = tmp_path / "does_not_exist.json"
    assert perfgate.main(["--baseline", str(missing)]) == 2


def test_observability_has_zero_simulated_overhead():
    """Instrumentation records events without moving simulated time."""
    from repro.bench import perfregress

    metrics = perfregress.SCENARIOS["obs_overhead"]()
    assert metrics["events_recorded"] > 0
    assert metrics["sim_instrumented_step_us"] == metrics["sim_step_us"]
    assert metrics["sim_overhead_pct"] == 0.0


def _obs_metrics(overhead_pct: float) -> dict:
    return {
        "wall_s": 0.1,
        "events_recorded": 10,
        "sim_step_us": 100.0,
        "sim_instrumented_step_us": 100.0 + overhead_pct,
        "sim_overhead_pct": overhead_pct,
    }


def _run_gate_with(
    monkeypatch, tmp_path, baseline_metrics, fresh_metrics, scenario="obs_overhead"
):
    perfgate = load_perfgate()
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(
        {"schema": 1, "after": {"scenarios": {scenario: baseline_metrics}}}
    ))
    monkeypatch.setattr(
        perfgate.perfregress, "run_scenarios",
        lambda *a, **k: {scenario: fresh_metrics},
    )
    return perfgate.main(
        ["--baseline", str(path), "--repeats", "1", "--tolerance", "1000"]
    )


def test_gate_fails_when_obs_budget_exceeded(monkeypatch, tmp_path):
    # fingerprints agree (baseline == fresh), so the only violation is
    # the instrumented path costing more than the 5% budget
    over = _obs_metrics(7.0)
    assert _run_gate_with(monkeypatch, tmp_path, over, dict(over)) == 1


def test_gate_passes_within_obs_budget(monkeypatch, tmp_path):
    ok = _obs_metrics(0.0)
    assert _run_gate_with(monkeypatch, tmp_path, ok, dict(ok)) == 0


def _tune_metrics(parallel_speedup: float, host_cpus: int) -> dict:
    # identical, cache-clean sweeps: only the parallel floor can fail
    return {
        "wall_s": 3.0,
        "serial_wall_s": 1.5,
        "warm_wall_s": 0.005,
        "parallel_speedup": parallel_speedup,
        "host_cpus": host_cpus,
        "warm_recomputed": 0,
        "sim_table_picks": {"allreduce@8": "nccl", "alltoall@8": "mvapich2-gdr"},
        "sim_tables_identical": True,
        "sim_samples_identical": True,
    }


def test_gate_fails_when_parallel_sweep_below_floor(monkeypatch, tmp_path):
    slow = _tune_metrics(0.9, host_cpus=2)
    assert _run_gate_with(
        monkeypatch, tmp_path, slow, dict(slow), scenario="tune_sweep"
    ) == 1


def test_gate_waives_sweep_floor_on_one_usable_cpu(monkeypatch, tmp_path):
    slow = _tune_metrics(0.9, host_cpus=1)
    assert _run_gate_with(
        monkeypatch, tmp_path, slow, dict(slow), scenario="tune_sweep"
    ) == 0
