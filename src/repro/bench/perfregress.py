"""Perf-regression harness for the simulator's hot paths.

The simulator is the instrument every figure in this reproduction is
measured with, so its *wall-clock* throughput is a first-class concern:
a 2x slower engine doubles the cost of every tuning sweep and benchmark
run.  This module pins down a small set of canonical scenarios that
exercise each hot path and times them for real (wall-clock), while also
recording the *simulated* result of each scenario so that a speedup can
be shown to leave virtual timestamps byte-identical.

Scenarios
---------

``engine_events``
    Raw discrete-event throughput: a handful of processes ping-pong
    through ``sleep``/``wait_flag`` with interleaved wake times, plus a
    run-ahead phase that hits the direct-handoff fast path.  Measures
    events dispatched per second with no communicator on top.

``allreduce_ws{16,64,128}``
    A tight all-reduce loop through the full runtime (communicator,
    rendezvous, streams, cost model) on virtual tensors at three scales.

``dispatch_cache``
    The same steady-state loop with the dispatch plan cache on and
    force-disabled: ops/s, plan hit rate, and cached-vs-uncached
    simulated-time identity (part of the fingerprint).

``tuner_sweep``
    Three consecutive analytic ``Tuner.build_table`` sweeps — dominated
    by the collective cost model.  Repetition is the point: benchmark
    fixtures and examples rebuild tables and probe the same costs many
    times per process, which is the path the cost-cache memoization
    accelerates.

``hier_allreduce``
    The hierarchical-composite crossover (Fig. 2-style): a 4 MiB
    all-reduce at 16 ranks on each constituent backend and on the
    ``hier:nccl+mvapich2-gdr`` composite, plus an analytic tuner sweep.
    The fingerprint pins the per-target simulated times and the tuned
    picks (flat at 4 KiB, composite at 4 MiB); ``scripts/perfgate.py``
    gates the composite's speedup over the best flat backend against
    ``--hier-speedup-floor``.

``adaptive_degraded_link``
    Online adaptive dispatch under a mid-run degraded link (§ adaptive
    retuning): a steady all-reduce loop at 16 ranks whose tuned backend
    (NCCL) hits a 4x inter-node link slowdown partway through.  Runs the
    loop twice — static table vs ``AdaptiveConfig(enabled=True)`` — and
    fingerprints both tail latencies plus the retuner's final pick and
    action counters.  ``scripts/perfgate.py`` gates ``adapt_recovery``
    (static tail / adaptive tail) against ``--adapt-floor``.

``dsmoe_step``
    One measured DS-MoE training step at 64 ranks under a mixed plan:
    the end-to-end composition (model, plan dispatch, rendezvous,
    wire-lane contention) that Figure 8 runs dozens of times.

``obs_overhead``
    The same training measurement with observability off and on
    (tracing + metrics).  Its fingerprint includes the simulated
    step-time delta between the two, which must stay at zero —
    observers record, they never sleep.

Usage
-----

``python -m repro perf --out BENCH_simulator.json`` runs every scenario
and merges the results into the output JSON under ``--label`` (default
``after``).  Running once from the pre-optimization tree with
``--label before`` and once from the current tree yields a single file
with both sides and a computed ``speedup`` section; the harness refuses
to report a speedup when the simulated fingerprints differ.

``scripts/perfgate.py`` consumes the same JSON as a committed baseline
and fails CI-style when a fresh run regresses wall-clock by more than
20% or changes any simulated fingerprint.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from typing import Any, Callable, Optional

from repro.core import MCRCommunicator

SCHEMA_VERSION = 1

#: scenario registry: name -> zero-arg callable returning a metrics dict.
#: Every metrics dict carries ``wall_s`` plus any scenario-specific
#: numbers; keys starting with ``sim_`` are *simulated* results and form
#: the determinism fingerprint (they must not move when only wall-clock
#: performance changes).
SCENARIOS: dict[str, Callable[[], dict]] = {}


def scenario(name: str) -> Callable:
    def register(fn: Callable[[], dict]) -> Callable[[], dict]:
        SCENARIOS[name] = fn
        return fn

    return register


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------


@scenario("engine_events")
def engine_events() -> dict:
    """Raw engine dispatch: cross-thread handoffs + run-ahead sleeps."""
    from repro.sim.engine import Engine

    procs = 4
    rounds = 4_000
    engine = Engine()
    flags = [engine.new_flag(f"round-{i}") for i in range(rounds)]

    def body(idx: int):
        def run():
            for i in range(rounds):
                # interleaved wake times force real baton handoffs ...
                engine.sleep(0.5 + idx * 0.1, "spin")
                if idx == 0:
                    flags[i].fire(engine.now)
                else:
                    engine.wait_flag(flags[i])
            # ... and a solo tail exercises the run-ahead fast path
            for _ in range(rounds):
                engine.sleep(0.25, "tail")
            return engine.now

        return run

    for idx in range(procs):
        engine.add_process(f"p{idx}", body(idx))
    wall = time.perf_counter()
    final = engine.run()
    wall = time.perf_counter() - wall
    events = engine._events_dispatched
    return {
        "wall_s": wall,
        "events": events,
        "events_per_s": events / wall if wall > 0 else 0.0,
        "sim_final_us": final,
    }


def _allreduce_loop(world_size: int, iters: int) -> dict:
    from repro.cluster import lassen
    from repro.sim import Simulator

    def main(ctx):
        comm = MCRCommunicator(ctx, ["nccl", "mvapich2-gdr"])
        x = ctx.virtual_tensor(262_144)  # 1 MiB fp32
        for i in range(iters):
            comm.all_reduce("nccl" if i % 2 else "mvapich2-gdr", x)
        comm.synchronize()
        comm.finalize()
        return ctx.now

    sim = Simulator(world_size, system=lassen())
    wall = time.perf_counter()
    result = sim.run(main)
    wall = time.perf_counter() - wall
    ops = world_size * iters
    return {
        "wall_s": wall,
        "ops": ops,
        "ops_per_s": ops / wall if wall > 0 else 0.0,
        "sim_final_us": result.rank_results[0],
    }


@scenario("allreduce_ws16")
def allreduce_ws16() -> dict:
    return _allreduce_loop(16, 60)


@scenario("allreduce_ws64")
def allreduce_ws64() -> dict:
    return _allreduce_loop(64, 30)


@scenario("allreduce_ws128")
def allreduce_ws128() -> dict:
    return _allreduce_loop(128, 15)


@scenario("dispatch_cache")
def dispatch_cache() -> dict:
    """Steady-state dispatch through the plan cache (paper §V-E).

    Runs the same alternating-backend allreduce loop twice — plans
    cached (the default) and force-disabled — and reports the cached
    ops/s, the plan hit rate, and whether the two runs produced the same
    simulated completion time.  The identity is part of the simulated
    fingerprint: the cache may only skip re-derivation, never change a
    timing.  ``scripts/perfgate.py`` gates the hit rate against
    ``--plan-hit-floor`` (steady state must be >= 0.95).
    """
    from repro.cluster import lassen
    from repro.core.config import MCRConfig
    from repro.sim import Simulator

    world_size, iters = 16, 80
    stats: dict = {}

    def loop(plan_cache: bool) -> tuple[float, float]:
        def main(ctx):
            comm = MCRCommunicator(
                ctx,
                ["nccl", "mvapich2-gdr"],
                config=MCRConfig(plan_cache=plan_cache),
            )
            x = ctx.virtual_tensor(262_144)  # 1 MiB fp32
            for i in range(iters):
                comm.all_reduce("nccl" if i % 2 else "mvapich2-gdr", x)
            comm.synchronize()
            if plan_cache and ctx.rank == 0:
                stats.update(comm.plan_stats)
            comm.finalize()
            return ctx.now

        sim = Simulator(world_size, system=lassen())
        start = time.perf_counter()
        result = sim.run(main)
        return result.rank_results[0], time.perf_counter() - start

    cached_us, cached_s = loop(True)
    uncached_us, uncached_s = loop(False)
    ops = world_size * iters
    total = stats.get("hits", 0) + stats.get("misses", 0)
    return {
        "wall_s": cached_s,
        "uncached_wall_s": uncached_s,
        "ops": ops,
        "ops_per_s": ops / cached_s if cached_s > 0 else 0.0,
        "plan_hits": stats.get("hits", 0),
        "plan_misses": stats.get("misses", 0),
        "plan_hit_rate": round(stats.get("hits", 0) / total, 6) if total else 0.0,
        "sim_final_us": cached_us,
        "sim_cached_equals_uncached": cached_us == uncached_us,
    }


@scenario("tuner_sweep")
def tuner_sweep() -> dict:
    from repro.backends.ops import OpFamily
    from repro.cluster import lassen
    from repro.core import Tuner

    # start cold so the scenario measures the memoized sweep itself, not
    # a cache warmed by an earlier scenario or caller.  Tolerate trees
    # without the cache (the harness also runs against the ``before``
    # side of a comparison, which may predate the memoization).
    try:
        from repro.backends.base import clear_cost_caches
    except ImportError:
        pass
    else:
        clear_cost_caches()
    system = lassen()
    sweeps = 3
    wall = time.perf_counter()
    for _ in range(sweeps):
        tuner = Tuner(system, ["nccl", "mvapich2-gdr", "msccl"], mode="analytic")
        report = tuner.build_table(
            world_sizes=[16, 64, 256],
            ops=[OpFamily.ALLREDUCE, OpFamily.ALLTOALL, OpFamily.ALLGATHER],
        )
    wall = time.perf_counter() - wall
    cells = sweeps * report.table.num_entries()
    # fingerprint: the winning backend per (op, ws) at one probe size
    picks = {
        f"{op.value}@{ws}": report.table.lookup(op.value, ws, 1 << 20)
        for op in (OpFamily.ALLREDUCE, OpFamily.ALLTOALL, OpFamily.ALLGATHER)
        for ws in (16, 64, 256)
    }
    return {
        "wall_s": wall,
        "cells": cells,
        "cells_per_s": cells / wall if wall > 0 else 0.0,
        "sim_table_picks": picks,
    }


@scenario("tune_sweep")
def tune_sweep() -> dict:
    """The sweep engine on a simulated-mode tuning sweep (paper C5).

    Runs the same sweep three ways — serial cold, ``jobs=4`` cold (up
    to 4 processes, capped at the usable CPUs), and warm from the
    on-disk sweep cache — and reports the wall-clock of each plus the
    derived speedups.  Both cold runs write a fresh ``SweepCache`` of
    their own, so ``parallel_speedup`` compares like with like.  The
    simulated fingerprint pins the table picks and the byte-identity of
    all three runs: the engine may only reschedule and cache work,
    never change a measurement.  ``scripts/perfgate.py`` gates
    ``parallel_speedup`` against a configurable floor (when
    ``host_cpus``, the usable CPUs, is at least 2) and requires the
    warm run to recompute zero cells at near-zero cost.

    The grid is 96 cells (4 world sizes x 6 message sizes x 2 ops x 2
    backends) because of how ``run_sweep`` shares work: the caller
    computes cells alone for the helper start-up time ``t0`` (about
    0.5 s), then ``W`` processes share the rest.  A serial time of
    ``S = k * t0`` thus gives a parallel time ``t0 + (S - t0) / W`` and
    a speedup of ``k * W / (W + k - 1)``, which is at most 1x for
    ``k <= 1`` whatever the scheduling.  The grid is sized for
    ``k >= 3`` (1.5x on 2 CPUs, 2.0x on 4), clear of the 1.3x floor.
    """
    import os
    import shutil
    import tempfile

    from repro.backends.ops import OpFamily
    from repro.bench.sweep import SweepCache, usable_cpus
    from repro.cluster import lassen
    from repro.core import Tuner

    system = lassen()
    backends = ["nccl", "mvapich2-gdr"]
    grid = dict(
        world_sizes=[8, 16, 32, 64],
        message_sizes=[1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20],
        ops=[OpFamily.ALLREDUCE, OpFamily.ALLTOALL],
    )
    jobs = 4

    def sweep(**kwargs):
        tuner = Tuner(system, backends, mode="simulated", iterations=3, warmup=1)
        start = time.perf_counter()
        report = tuner.build_table(**grid, **kwargs)
        return report, time.perf_counter() - start

    wall = time.perf_counter()
    cache_root = tempfile.mkdtemp(prefix="tune_sweep_cache_")
    serial_dir = os.path.join(cache_root, "serial")
    cache_dir = os.path.join(cache_root, "parallel")
    try:
        serial, serial_s = sweep(cache=SweepCache(serial_dir))
        parallel, parallel_s = sweep(jobs=jobs, cache=SweepCache(cache_dir))
        warm, warm_s = sweep(jobs=jobs, cache=SweepCache(cache_dir))
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)
    wall = time.perf_counter() - wall

    tables_identical = (
        json.dumps(serial.table.entries, sort_keys=True)
        == json.dumps(parallel.table.entries, sort_keys=True)
        == json.dumps(warm.table.entries, sort_keys=True)
    )
    samples_identical = serial.samples == parallel.samples == warm.samples
    picks = {
        f"{op.value}@8": serial.table.lookup(op.value, 8, 1 << 16)
        for op in grid["ops"]
    }
    return {
        "wall_s": wall,
        "serial_wall_s": serial_s,
        "parallel_wall_s": parallel_s,
        "warm_wall_s": warm_s,
        "parallel_speedup": serial_s / parallel_s if parallel_s > 0 else 0.0,
        "warm_speedup": serial_s / warm_s if warm_s > 0 else 0.0,
        "jobs": jobs,
        "host_cpus": usable_cpus(),
        "cells": serial.sweep_stats.units,
        "cold_misses": parallel.sweep_stats.cache_misses,
        "warm_hits": warm.sweep_stats.cache_hits,
        "warm_recomputed": warm.sweep_stats.computed,
        "sim_table_picks": picks,
        "sim_tables_identical": tables_identical,
        "sim_samples_identical": samples_identical,
    }


@scenario("hier_allreduce")
def hier_allreduce() -> dict:
    """Hierarchical mixed-backend crossover (Fig. 2-style sweep).

    Times a steady-state 4 MiB all-reduce at 16 ranks (4 lassen nodes)
    on NCCL, on MVAPICH2-GDR, and on the two-level
    ``hier:nccl+mvapich2-gdr`` composite, then runs an analytic tuner
    sweep over all three.  Past the crossover the composite must beat
    both constituents (its inter-node phase moves 1/ppn of the vector
    with the full NIC per node leader); below it the flat backends win
    on latency.  ``scripts/perfgate.py`` gates ``hier_speedup`` against
    ``--hier-speedup-floor``.
    """
    from repro.backends.ops import OpFamily
    from repro.cluster import lassen
    from repro.core import Tuner
    from repro.sim import Simulator

    system = lassen()
    world_size, iters = 16, 10
    # 4 MiB fp32: past the *simulated* crossover (wire-lane contention
    # between the ppn concurrent shard groups pushes it above the
    # analytic one, which assumes each leader gets the NIC to itself)
    numel = 1_048_576
    targets = ("nccl", "mvapich2-gdr", "hier:nccl+mvapich2-gdr")

    def timed(target: str) -> float:
        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl", "mvapich2-gdr"])
            x = ctx.virtual_tensor(numel)
            comm.all_reduce(target, x)  # warmup builds the phase groups
            comm.synchronize()
            start = ctx.now
            for _ in range(iters):
                comm.all_reduce(target, x)
            comm.synchronize()
            elapsed = ctx.now - start
            comm.finalize()
            return elapsed / iters

        return max(Simulator(world_size, system=system).run(main).rank_results)

    wall = time.perf_counter()
    per_op = {t: timed(t) for t in targets}
    table = Tuner(system, list(targets), mode="analytic").build_table(
        world_sizes=[world_size],
        message_sizes=[4096, numel * 4],
        ops=[OpFamily.ALLREDUCE],
    ).table
    wall = time.perf_counter() - wall
    flat_best = min(per_op["nccl"], per_op["mvapich2-gdr"])
    hier_us = per_op["hier:nccl+mvapich2-gdr"]
    return {
        "wall_s": wall,
        "hier_speedup": round(flat_best / hier_us, 6) if hier_us > 0 else 0.0,
        "sim_nccl_us": per_op["nccl"],
        "sim_mvapich_us": per_op["mvapich2-gdr"],
        "sim_hier_us": hier_us,
        "sim_pick_small": table.lookup("allreduce", world_size, 4096),
        "sim_pick_large": table.lookup("allreduce", world_size, numel * 4),
    }


@scenario("adaptive_degraded_link")
def adaptive_degraded_link() -> dict:
    """Feedback-driven retuning beats a stale table on a degraded link.

    A 1 MiB all-reduce loop at 16 ranks starts on its tuned backend
    (NCCL); at t=20 ms a fault quadruples NCCL's inter-node link time
    for the rest of the run.  The static table keeps dispatching into
    the slow link; the adaptive retuner must detect the drift, sweep the
    alternatives, and commit a faster pick so the tail of the run
    recovers.  The loop blocks on each op (``async_op=True`` +
    ``synchronize``) so the host clock tracks completions — a free-run
    post loop would outrun the fault window.  ``scripts/perfgate.py``
    gates ``adapt_recovery`` against ``--adapt-floor``.
    """
    from repro.cluster import lassen
    from repro.core import MCRConfig, TuningTable
    from repro.core.config import AdaptiveConfig
    from repro.sim import Simulator
    from repro.sim.faults import FaultSpec

    system = lassen()
    world_size, ops, tail_ops = 16, 150, 40
    nbytes = 1 << 20

    def timed(adaptive: bool):
        table = TuningTable(system=system.name)
        table.add("allreduce", world_size, nbytes, "nccl")
        faults = FaultSpec.parse("link=20000:inf:4.0:backend=nccl")

        def main(ctx):
            config = MCRConfig()
            if adaptive:
                config.adaptive = AdaptiveConfig(
                    enabled=True, min_samples=5, explore_ops=3, drift_ratio=1.5
                )
            comm = MCRCommunicator(
                ctx,
                ["nccl", "mvapich2-gdr"],
                config=config,
                tuning_table=table,
                comm_id="adapt-bench",
            )
            x = ctx.virtual_tensor(nbytes // 4)
            t_tail = 0.0
            for i in range(ops):
                if i == ops - tail_ops:
                    t_tail = ctx.now
                comm.all_reduce("auto", x, async_op=True).synchronize()
            tail = ctx.now - t_tail
            snap = comm.retuner.snapshot() if comm.retuner is not None else None
            comm.finalize()
            return tail, snap

        result = Simulator(world_size, system=system, faults=faults).run(main)
        return (
            max(r[0] for r in result.rank_results),
            result.rank_results[0][1],
        )

    wall = time.perf_counter()
    static_us, _ = timed(adaptive=False)
    adaptive_us, snap = timed(adaptive=True)
    wall = time.perf_counter() - wall
    cell = snap["cells"]["allreduce/%d" % nbytes]
    return {
        "wall_s": wall,
        "adapt_recovery": (
            round(static_us / adaptive_us, 6) if adaptive_us > 0 else 0.0
        ),
        "sim_static_us": round(static_us, 3),
        "sim_adaptive_us": round(adaptive_us, 3),
        "sim_final_pick": cell["current"],
        "sim_retunes": snap["stats"]["retune"],
        "sim_drifts": snap["stats"]["drift"],
    }


@scenario("dsmoe_step")
def dsmoe_step() -> dict:
    from repro.cluster import lassen
    from repro.models import BackendPlan, DSMoEModel, Trainer

    trainer = Trainer(lassen(), steps=2, warmup=1)
    wall = time.perf_counter()
    result = trainer.run(DSMoEModel(), 64, BackendPlan.mixed(label="MCR-DL"))
    wall = time.perf_counter() - wall
    return {
        "wall_s": wall,
        "samples_per_wall_s": (
            result.samples_per_sec * result.step_time_us / 1e6 / wall
            if wall > 0
            else 0.0
        ),
        "sim_step_us": result.step_time_us,
        "sim_samples_per_sec": result.samples_per_sec,
    }


@scenario("obs_overhead")
def obs_overhead() -> dict:
    """Observability cost on the timed path (paper C3's overhead budget).

    Runs the same training measurement twice — plain, then with tracing
    and metrics both on — and reports the *simulated* step-time delta.
    Observers only record, they never sleep, so the delta must be zero;
    ``scripts/perfgate.py`` gates it at <= 5%.
    """
    from repro.cluster import lassen
    from repro.models import BackendPlan, DSMoEModel, Trainer

    wall = time.perf_counter()
    plain = Trainer(lassen(), steps=2, warmup=1).run(
        DSMoEModel(), 16, BackendPlan.mixed(label="MCR-DL")
    )
    instrumented = Trainer(lassen(), steps=2, warmup=1, trace=True, metrics=True).run(
        DSMoEModel(), 16, BackendPlan.mixed(label="MCR-DL")
    )
    wall = time.perf_counter() - wall
    overhead_pct = (
        (instrumented.step_time_us - plain.step_time_us) / plain.step_time_us * 100.0
        if plain.step_time_us > 0
        else 0.0
    )
    recorded = len(instrumented.metrics.events) if instrumented.metrics else 0
    return {
        "wall_s": wall,
        "events_recorded": recorded,
        "sim_step_us": plain.step_time_us,
        "sim_instrumented_step_us": instrumented.step_time_us,
        "sim_overhead_pct": round(overhead_pct, 6),
    }


# ----------------------------------------------------------------------
# running and reporting
# ----------------------------------------------------------------------


def _scenario_unit(repeats: int, name: str) -> dict:
    """Sweep-engine worker: one scenario, measured in its own process.
    Top-level so spawned helpers can unpickle it by reference."""
    return run_scenarios([name], repeats=repeats)[name]


def run_scenarios(
    names: Optional[list[str]] = None,
    repeats: int = 3,
    progress: Optional[Callable[[str], None]] = None,
    jobs: int = 1,
) -> dict:
    """Run the requested scenarios ``repeats`` times each.

    Returns ``{name: metrics}`` where ``wall_s`` is the best (minimum)
    wall time across repeats — the standard noise-resistant estimator —
    and ``wall_runs_s`` keeps every sample.  Simulated ``sim_*`` values
    are asserted identical across repeats (the engine is deterministic;
    a mismatch means a real bug, so it raises immediately).

    ``jobs > 1`` shares scenarios between this process and the sweep
    engine's spawned helpers, one scenario per work unit, merged back in
    request order.  Parallel scenarios contend for the machine, so wall
    numbers are for quick smoke runs, not for committing as a baseline.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    chosen = list(SCENARIOS) if names is None else list(names)
    unknown = [n for n in chosen if n not in SCENARIOS]
    if unknown:
        raise KeyError(f"unknown scenario(s) {unknown}; have {sorted(SCENARIOS)}")
    if jobs > 1 and len(chosen) > 1:
        from repro.bench.sweep import run_sweep

        outcome = run_sweep(_scenario_unit, chosen, context=repeats, jobs=jobs)
        out = dict(zip(chosen, outcome.results))
        if progress is not None:
            for name, metrics in out.items():
                progress(
                    f"{name:<18} {metrics['wall_s']*1e3:9.1f} ms  "
                    f"(best of {repeats}, parallel x{jobs})"
                )
        return out
    out: dict[str, dict] = {}
    for name in chosen:
        fn = SCENARIOS[name]
        best: Optional[dict] = None
        walls = []
        for _ in range(repeats):
            metrics = fn()
            walls.append(metrics["wall_s"])
            if best is None or metrics["wall_s"] < best["wall_s"]:
                if best is not None:
                    _check_fingerprint(name, best, metrics)
                best = metrics
            else:
                _check_fingerprint(name, best, metrics)
        assert best is not None
        best["wall_runs_s"] = walls
        out[name] = best
        if progress is not None:
            progress(f"{name:<18} {best['wall_s']*1e3:9.1f} ms  (best of {repeats})")
    return out


def fingerprint(metrics: dict) -> dict:
    """The simulated (wall-clock-independent) part of a metrics dict."""
    return {k: v for k, v in metrics.items() if k.startswith("sim_")}


def _check_fingerprint(name: str, a: dict, b: dict) -> None:
    fa, fb = fingerprint(a), fingerprint(b)
    if fa != fb:
        raise AssertionError(
            f"scenario {name!r} is non-deterministic across repeats: {fa} != {fb}"
        )


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def compare(before: dict, after: dict) -> dict:
    """Per-scenario wall-clock speedups (before/after), fingerprint-gated.

    Returns ``{name: {"speedup": x, "sim_identical": bool}}`` for every
    scenario present on both sides.  A speedup is only meaningful when
    the simulated fingerprints agree, so it is reported alongside the
    equality verdict rather than silently.
    """
    out: dict[str, dict] = {}
    for name, b in before.items():
        a = after.get(name)
        if a is None:
            continue
        out[name] = {
            "speedup": round(b["wall_s"] / a["wall_s"], 3) if a["wall_s"] > 0 else None,
            "sim_identical": fingerprint(b) == fingerprint(a),
        }
    return out


def load(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        return {"schema": SCHEMA_VERSION}
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported schema {data.get('schema')!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    return data


def merge_results(path: str, label: str, scenarios: dict) -> dict:
    """Merge one run under ``label`` into the JSON at ``path``.

    Recomputes the ``speedup`` section whenever both ``before`` and
    ``after`` are present.  Returns the merged document (also written
    back to ``path``).
    """
    data = load(path)
    data["schema"] = SCHEMA_VERSION
    merged = dict(data.get(label, {}).get("scenarios", {}))
    merged.update(scenarios)
    data[label] = {"env": environment(), "scenarios": merged}
    if "before" in data and "after" in data:
        data["speedup"] = compare(
            data["before"]["scenarios"], data["after"]["scenarios"]
        )
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return data


def render_comparison(data: dict) -> str:
    """Human-readable before/after table for a merged document."""
    if "speedup" not in data:
        return "(no before/after pair to compare)"
    lines = [
        f"{'scenario':<18} {'before':>10} {'after':>10} {'speedup':>8}  sim",
        "-" * 56,
    ]
    before = data["before"]["scenarios"]
    after = data["after"]["scenarios"]
    for name, cmp in sorted(data["speedup"].items()):
        b, a = before[name]["wall_s"], after[name]["wall_s"]
        sim = "identical" if cmp["sim_identical"] else "DIFFERS!"
        lines.append(
            f"{name:<18} {b*1e3:9.1f}ms {a*1e3:9.1f}ms {cmp['speedup']:>7.2f}x  {sim}"
        )
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:  # pragma: no cover - thin CLI
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_simulator.json")
    parser.add_argument("--label", choices=["before", "after"], default="after")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--scenario", nargs="+", dest="names", default=None)
    args = parser.parse_args(argv)
    results = run_scenarios(
        args.names, repeats=args.repeats, progress=print, jobs=args.jobs
    )
    data = merge_results(args.out, args.label, results)
    print(f"[{args.label}] {len(results)} scenario(s) -> {args.out}")
    print(render_comparison(data))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
