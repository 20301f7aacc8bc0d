#!/usr/bin/env python
"""Perf gate: fail when the simulator regresses against the committed
baseline.

Runs the canonical :mod:`repro.bench.perfregress` scenarios fresh and
compares them against the ``after`` side of the committed
``BENCH_simulator.json``:

* **wall-clock**: any scenario more than ``--tolerance`` (default 20%)
  slower than its baseline fails the gate.  Scenarios faster than the
  baseline are reported (consider refreshing the baseline).
* **simulated fingerprints** (``sim_*`` metrics): any difference fails
  unconditionally — wall-clock noise is expected, timing-semantics
  drift never is.
* **observability budget**: the ``obs_overhead`` scenario reports the
  simulated step-time delta between an uninstrumented and a fully
  instrumented (trace + metrics) run; more than ``--obs-budget-pct``
  (default 5%, the paper's C3 overhead budget) fails the gate.  It is
  run even when absent from the baseline so older baselines still gate
  the budget.
* **dispatch plan cache**: the ``dispatch_cache`` scenario runs a
  steady-state loop with the plan cache on and force-disabled.  The two
  runs must agree on simulated time, and the steady-state plan hit rate
  must meet ``--plan-hit-floor`` (default 0.95).  Like ``obs_overhead``,
  it runs even when absent from the baseline.
* **hierarchical composite**: the ``hier_allreduce`` scenario times a
  4 MiB all-reduce on each constituent backend and on the
  ``hier:nccl+mvapich2-gdr`` composite; the composite must beat the
  best flat backend by ``--hier-speedup-floor`` (default 1.05x) and the
  tuned large-message pick must be a ``hier:*`` entry.  Like
  ``obs_overhead``, it runs even when absent from the baseline.
* **adaptive retuning**: the ``adaptive_degraded_link`` scenario runs a
  steady all-reduce loop whose tuned backend hits a mid-run 4x link
  slowdown, once with the static table and once with online adaptation
  on.  The adaptive run's tail must recover at least ``--adapt-floor``
  (default 1.2x) over the static one and must have committed at least
  one retune.  Like ``obs_overhead``, it runs even when absent from the
  baseline.
* **sweep engine**: the ``tune_sweep`` scenario runs the same
  simulated-mode tuning sweep serial, parallel (4 workers), and warm
  from the on-disk sweep cache.  The warm run must recompute **zero**
  cells and finish under ``--sweep-warm-pct`` (default 25%) of the
  serial wall; on hosts with >= 2 CPUs the parallel run must beat
  serial by at least ``--sweep-floor`` (default 1.3x — the engine
  targets >= 2x on 4 idle cores, the floor leaves CI headroom).  All
  three sweeps must agree byte-for-byte; that identity is part of the
  scenario's simulated fingerprint.  Like ``obs_overhead``, it runs
  even when absent from the baseline.

Usage::

    PYTHONPATH=src python scripts/perfgate.py [--baseline BENCH_simulator.json]
        [--tolerance 0.20] [--repeats 3] [--min-wall-s 0.02]
        [--sweep-floor 1.3] [--sweep-warm-pct 25]

Exit status 0 = pass, 1 = regression, 2 = unusable baseline.

Tiny scenarios (baseline wall below ``--min-wall-s``) are exempt from
the wall-clock check — at millisecond scale the 20% band is dominated
by scheduler noise — but still fingerprint-checked.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.bench import perfregress  # noqa: E402

#: scenario whose fingerprint carries the instrumented-path overhead
OBS_SCENARIO = "obs_overhead"

#: scenario carrying the sweep engine's parallel / warm-cache contract
TUNE_SCENARIO = "tune_sweep"

#: scenario carrying the dispatch plan cache's steady-state contract
PLAN_SCENARIO = "dispatch_cache"

#: scenario carrying the hierarchical-composite crossover contract
HIER_SCENARIO = "hier_allreduce"

#: scenario carrying the adaptive-retuning recovery contract
ADAPT_SCENARIO = "adaptive_degraded_link"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        default=str(pathlib.Path(__file__).resolve().parent.parent / "BENCH_simulator.json"),
    )
    parser.add_argument("--tolerance", type=float, default=0.20)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--min-wall-s", type=float, default=0.02)
    parser.add_argument("--obs-budget-pct", type=float, default=5.0)
    parser.add_argument("--sweep-floor", type=float, default=1.3)
    parser.add_argument("--sweep-warm-pct", type=float, default=25.0)
    parser.add_argument("--plan-hit-floor", type=float, default=0.95)
    parser.add_argument("--hier-speedup-floor", type=float, default=1.05)
    parser.add_argument("--adapt-floor", type=float, default=1.2)
    args = parser.parse_args(argv)

    data = perfregress.load(args.baseline)
    baseline = data.get("after", {}).get("scenarios")
    if not baseline:
        print(f"perfgate: no 'after' baseline in {args.baseline}", file=sys.stderr)
        return 2

    chosen = set(baseline) & set(perfregress.SCENARIOS)
    if OBS_SCENARIO in perfregress.SCENARIOS:
        chosen.add(OBS_SCENARIO)  # budget-gated even without a baseline
    if TUNE_SCENARIO in perfregress.SCENARIOS:
        chosen.add(TUNE_SCENARIO)  # sweep-gated even without a baseline
    if PLAN_SCENARIO in perfregress.SCENARIOS:
        chosen.add(PLAN_SCENARIO)  # plan-gated even without a baseline
    if HIER_SCENARIO in perfregress.SCENARIOS:
        chosen.add(HIER_SCENARIO)  # crossover-gated even without a baseline
    if ADAPT_SCENARIO in perfregress.SCENARIOS:
        chosen.add(ADAPT_SCENARIO)  # recovery-gated even without a baseline
    fresh = perfregress.run_scenarios(sorted(chosen), repeats=args.repeats, progress=print)

    failures = []
    print(f"\n{'scenario':<18} {'baseline':>10} {'now':>10} {'ratio':>7}  verdict")
    print("-" * 60)
    for name in sorted(fresh):
        cur = fresh[name]
        base = baseline.get(name)
        if base is None:
            print(
                f"{name:<18} {'-':>10} {cur['wall_s']*1e3:9.1f}ms {'-':>7}  "
                "ok (not in baseline)"
            )
            continue
        ratio = cur["wall_s"] / base["wall_s"] if base["wall_s"] > 0 else float("inf")
        verdict = "ok"
        if perfregress.fingerprint(base) != perfregress.fingerprint(cur):
            verdict = "SIM-DIFFERS"
            failures.append(f"{name}: simulated fingerprint changed")
        elif name == TUNE_SCENARIO:
            # composite wall (serial + parallel + warm) with huge start-up
            # variance on small hosts; gated by its own criteria below
            verdict = "ok (sweep-gated, wall exempt)"
        elif base["wall_s"] < args.min_wall_s:
            verdict = "ok (tiny, wall exempt)"
        elif ratio > 1.0 + args.tolerance:
            verdict = f"REGRESSED >{args.tolerance:.0%}"
            failures.append(f"{name}: {ratio:.2f}x baseline wall-clock")
        elif ratio < 1.0 - args.tolerance:
            verdict = "faster (refresh baseline?)"
        print(
            f"{name:<18} {base['wall_s']*1e3:9.1f}ms {cur['wall_s']*1e3:9.1f}ms "
            f"{ratio:6.2f}x  {verdict}"
        )

    obs = fresh.get(OBS_SCENARIO)
    if obs is not None and "sim_overhead_pct" in obs:
        pct = obs["sim_overhead_pct"]
        if pct > args.obs_budget_pct:
            failures.append(
                f"{OBS_SCENARIO}: instrumented simulated step time "
                f"+{pct:.2f}% exceeds the {args.obs_budget_pct:.1f}% budget"
            )
        else:
            print(
                f"\nobservability: instrumented simulated overhead {pct:+.3f}% "
                f"(budget {args.obs_budget_pct:.1f}%, "
                f"{obs.get('events_recorded', 0)} events recorded)"
            )

    tune = fresh.get(TUNE_SCENARIO)
    if tune is not None and "parallel_speedup" in tune:
        if not tune.get("sim_tables_identical", False):
            failures.append(
                f"{TUNE_SCENARIO}: parallel/warm tuning tables differ from serial"
            )
        if not tune.get("sim_samples_identical", False):
            failures.append(
                f"{TUNE_SCENARIO}: parallel/warm sample streams differ from serial"
            )
        recomputed = tune.get("warm_recomputed", 0)
        if recomputed != 0:
            failures.append(
                f"{TUNE_SCENARIO}: warm-cache run recomputed {recomputed} "
                "cell(s); expected 0"
            )
        serial_s = tune.get("serial_wall_s", 0.0)
        warm_pct = (
            tune["warm_wall_s"] / serial_s * 100.0 if serial_s > 0 else 0.0
        )
        if warm_pct > args.sweep_warm_pct:
            failures.append(
                f"{TUNE_SCENARIO}: warm-cache sweep took {warm_pct:.1f}% of "
                f"the serial wall (budget {args.sweep_warm_pct:.1f}%)"
            )
        speedup = tune["parallel_speedup"]
        host_cpus = tune.get("host_cpus", 1)
        if host_cpus >= 2 and speedup < args.sweep_floor:
            failures.append(
                f"{TUNE_SCENARIO}: parallel sweep only {speedup:.2f}x serial "
                f"on {host_cpus} CPUs (floor {args.sweep_floor:.2f}x)"
            )
        parallel_note = (
            f"{speedup:.2f}x parallel"
            if host_cpus >= 2
            else f"{speedup:.2f}x parallel (floor waived: {host_cpus} CPU host)"
        )
        print(
            f"\nsweep engine: {parallel_note}, warm cache "
            f"{tune.get('warm_speedup', 0.0):.0f}x "
            f"({warm_pct:.1f}% of serial, {recomputed} cell(s) recomputed)"
        )

    plan = fresh.get(PLAN_SCENARIO)
    if plan is not None and "plan_hit_rate" in plan:
        if not plan.get("sim_cached_equals_uncached", False):
            failures.append(
                f"{PLAN_SCENARIO}: cached and uncached dispatch produced "
                "different simulated times"
            )
        rate = plan["plan_hit_rate"]
        if rate < args.plan_hit_floor:
            failures.append(
                f"{PLAN_SCENARIO}: steady-state plan hit rate {rate:.3f} "
                f"below the {args.plan_hit_floor:.2f} floor"
            )
        else:
            print(
                f"\nplan cache: hit rate {rate:.3f} "
                f"({plan.get('plan_hits', 0)} hits / "
                f"{plan.get('plan_misses', 0)} misses, "
                "cached == uncached simulated time)"
            )

    hier = fresh.get(HIER_SCENARIO)
    if hier is not None and "hier_speedup" in hier:
        speedup = hier["hier_speedup"]
        pick = hier.get("sim_pick_large", "")
        if not str(pick).startswith("hier:"):
            failures.append(
                f"{HIER_SCENARIO}: tuned large-message pick is {pick!r}, "
                "expected a hier:* composite"
            )
        if speedup < args.hier_speedup_floor:
            failures.append(
                f"{HIER_SCENARIO}: composite only {speedup:.3f}x the best "
                f"flat backend (floor {args.hier_speedup_floor:.2f}x)"
            )
        else:
            print(
                f"\nhierarchical: composite {speedup:.2f}x best flat backend "
                f"at 4 MiB (floor {args.hier_speedup_floor:.2f}x; tuned picks "
                f"{hier.get('sim_pick_small')!r} @4KiB, {pick!r} @4MiB)"
            )

    adapt = fresh.get(ADAPT_SCENARIO)
    if adapt is not None and "adapt_recovery" in adapt:
        recovery = adapt["adapt_recovery"]
        if adapt.get("sim_retunes", 0) < 1:
            failures.append(
                f"{ADAPT_SCENARIO}: retuner never committed a new pick "
                "under the degraded link"
            )
        if recovery < args.adapt_floor:
            failures.append(
                f"{ADAPT_SCENARIO}: adaptive tail only {recovery:.3f}x the "
                f"static table (floor {args.adapt_floor:.2f}x)"
            )
        else:
            print(
                f"\nadaptive: degraded-link recovery {recovery:.2f}x over the "
                f"static table (floor {args.adapt_floor:.2f}x; final pick "
                f"{adapt.get('sim_final_pick')!r}, "
                f"{adapt.get('sim_retunes', 0)} retune(s))"
            )

    if failures:
        print("\nperfgate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nperfgate passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
