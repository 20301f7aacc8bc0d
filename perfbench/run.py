"""Host-time benchmark of the MCR-DL simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload moe_train --seed 1 --seconds 25 --trace 0

The main process generates the workload's inputs from the
seed, pins itself to one CPU for the rank-thread workloads (the
simulator runs one rank thread at a time; the mask is inherited by the
workers and recorded), and runs the measurement in worker processes of
this same script, so that set-up is timed from process start:

* ``--trace 0``: four set-up-only workers and one measuring worker.
  Prints every end-to-end metric.  ``setup_s`` is the median of the
  five set-ups.
* ``--trace 1``: an untraced measuring worker, (moe_train only) an
  unpinned one, then a traced worker that wraps each layer's entry
  calls, removes the wrappers and checks that an untraced iteration
  gives the same fingerprint.  Prints every per-layer metric.

Times and rates are reported in calibrated host time: each worker also
times a fixed loop of plain Python, on each CPU it may use, after
set-up and between iterations, and the times are scaled by that loop's
nominal over its measured time, which takes out most of the drift in a
shared host's speed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report.  The full report (and, with tracing, every span) is
written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
#: the whole run, workers included, must end well inside 180 s
RUN_BUDGET_S = 170.0
SETUP_SAMPLES = 5
#: the worker's own peak RSS is read after set-up and this many timed
#: iterations: glibc keeps growing per-thread arenas as every iteration
#: starts fresh rank threads, so a later reading would scale with the
#: run's iteration count
RSS_ITERATIONS = 2
#: workloads run pinned to one CPU (rank threads hand one baton around)
PINNED = ("moe_train", "collective_mix")
#: tail percentile of the unit host time per workload, chosen so that a
#: run of the default length leaves at least ten samples beyond it
#: (tune_sweep has a few sweeps per run, so its tail is the slowest).
#: collective_mix uses p95, not p99: its top 1% is the one slowest op of
#: the seed's sequence, so p99 moved with the seed (spread 0.18-0.26
#: over ten seeds) more than with the program
TAIL_PCT = {"moe_train": 75, "collective_mix": 95, "tune_sweep": 100}

E2E_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s",
    "unit_ms.p50": "ms", "unit_ms.tail": "ms",
}
WORK_ITEM = {
    "moe_train": "simulated training samples",
    "collective_mix": "collective calls (all ranks)",
    "tune_sweep": "tuning cells",
}


def _rank(n: int, pct: float) -> int:
    """1-based nearest rank of the ``pct`` percentile among ``n`` samples."""
    return max(1, int(-(-n * pct // 100)))


def percentile(values: list, pct: float) -> float:
    """Nearest-rank percentile."""
    return sorted(values)[_rank(len(values), pct) - 1]


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------


def _rusage() -> tuple:
    """CPU seconds of this process and its reaped children, voluntary
    context switches and peak RSS (KiB) of this process."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, me.ru_nvcsw, me.ru_maxrss


#: the calibration loop's work: a table walk with no allocation, so the
#: garbage collector never runs in it and the heap the simulator leaves
#: behind does not slow it
_REF_TABLE = [(i * 2654435761) & 4095 for i in range(4096)]
_REF_STEPS = 150_000
#: the calibration loop's host time that calibrated times are scaled to
#: (about what it takes on a quiet 2.0 GHz Xeon vCPU)
REF_NOMINAL_S = 0.020


def _loop_s() -> float:
    table, x, acc = _REF_TABLE, 1, 0
    start = time.perf_counter()
    for i in range(_REF_STEPS):
        x = table[(x + i) & 4095]
        acc ^= x
    return time.perf_counter() - start


def reference_s() -> float:
    """Mean host seconds of one pass of the calibration loop on each CPU
    this process may use (one CPU for the pinned workloads).

    The host speed of a shared machine drifts by up to 30% within
    minutes, and a plain-Python loop slows with it.  Timed after every
    iteration, its median over a run gives the run's host speed; see
    NOTES.md for the measurements."""
    if not hasattr(os, "sched_getaffinity"):
        return _loop_s()
    mask = os.sched_getaffinity(0)
    if len(mask) == 1:
        return _loop_s()
    times = []
    try:
        for cpu in sorted(mask):
            os.sched_setaffinity(0, {cpu})
            times.append(_loop_s())
    finally:
        os.sched_setaffinity(0, mask)
    return sum(times) / len(times)


def speed_factor(ref_s: list) -> float:
    """Multiplier from measured to calibrated host time."""
    return REF_NOMINAL_S / statistics.median(ref_s)


def calibrated_median(unit_s, ref_s) -> float:
    """Median of one worker's unit times, scaled by that worker's own
    calibration loop timings (0 without samples)."""
    if not unit_s or not ref_s:
        return 0.0
    return statistics.median(unit_s) * speed_factor(ref_s)


class Tally:
    """Sums of one timed loop."""

    def __init__(self):
        self.iterations = 0
        self.work = 0.0
        self.unit_s: list = []
        #: work per host second of each timed iteration
        self.rates: list = []
        #: calibration loop time after each timed iteration
        self.ref_s: list = []
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def add(self, it, wall_s: float) -> None:
        self.iterations += 1
        self.work += it.work
        self.unit_s.extend(it.unit_s)
        if it.work:
            self.rates.append(it.work / wall_s)
        self.add_checks(it)

    def add_checks(self, it) -> None:
        self.attempted += it.attempted
        self.failed += it.failed
        self.failures.extend(it.failures[: max(0, 5 - len(self.failures))])

    def timed_loop(self, step, seconds: float, stop=lambda: False) -> dict:
        """Run ``step`` until ``seconds`` have passed.  The returned wall,
        CPU and context-switch totals cover the iterations only, not the
        calibration loop timed between them.  ``peak_rss_mb`` is the
        larger of this process's peak and that of its largest reaped
        child (the tuning sweep's pool workers)."""
        totals = {"wall_s": 0.0, "cpu_s": 0.0, "vcsw": 0}
        rss = None
        t0 = time.perf_counter()
        while True:
            cpu0, vcsw0, _ = _rusage()
            start = time.perf_counter()
            it = step()
            wall = time.perf_counter() - start
            cpu1, vcsw1, _ = _rusage()
            self.add(it, wall)
            totals["wall_s"] += wall
            totals["cpu_s"] += cpu1 - cpu0
            totals["vcsw"] += vcsw1 - vcsw0
            if rss is None and self.iterations >= RSS_ITERATIONS:
                rss = _rusage()[2]
            self.ref_s.append(reference_s())
            if time.perf_counter() - t0 >= seconds or stop():
                break
        kids_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return {**totals, "peak_rss_mb": max(rss or _rusage()[2], kids_rss) / 1024.0}


def worker(args) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    payload = json.load(sys.stdin)
    wl = workloads.WORKLOADS[args.workload](payload["inputs"], workloads.load_pinned())
    tally = Tally()
    tally.add_checks(wl.setup())
    setup_s = time.monotonic() - args.t0
    out = {"setup_s": setup_s,
           "setup_ref_s": statistics.median(reference_s() for _ in range(3))}
    if args.worker == "measure":
        out["loop"] = tally.timed_loop(wl.iterate, args.seconds)
    elif args.worker == "traced":
        out.update(traced(wl, tally, args, payload.get("untraced", {})))
    out.update(
        iterations=tally.iterations, work=tally.work, unit_s=tally.unit_s,
        rates=tally.rates, ref_s=tally.ref_s,
        attempted=tally.attempted, failed=tally.failed, failures=tally.failures,
        fingerprint=getattr(wl, "last_fingerprint", None),
    )
    return out


def traced(wl, tally: Tally, args, untraced: dict) -> dict:
    """Traced loop, wrapper removal, untraced re-check, layer metrics."""
    import tracing

    sweep = args.workload == "tune_sweep"
    step = (lambda: wl.iterate(jobs=1)) if sweep else wl.iterate
    tracer = tracing.SpanTracer()
    tracer.install()
    patched = tracer.installed()
    try:
        loop = tally.timed_loop(step, args.seconds, stop=lambda: tracer.full)
    finally:
        tracer.uninstall()
    traced_units = list(tally.unit_s)
    traced_fp = getattr(wl, "last_fingerprint", None)
    iterations = tally.iterations
    leftover = [f"{getattr(o, '__name__', o)}.{a}" for o, a in patched
                if hasattr(getattr(o, a), "__wrapped__")]
    cpu0, vcsw0, _ = _rusage()
    after = step()
    cpu1, vcsw1, _ = _rusage()
    tally.add_checks(after)
    tally.attempted += 2
    for failed, what in ((leftover, f"wrappers left installed: {leftover}"),
                         (getattr(wl, "last_fingerprint", None) != traced_fp,
                          "fingerprint after removing the wrappers differs")):
        if failed:
            tally.failed += 1
            tally.failures.append(what)

    # the ratios below compare workers that ran at different times, so
    # each side is in calibrated time, scaled by its own worker's loop
    k = speed_factor(tally.ref_s)
    events = tracer.counts["engine.events"] / max(iterations, 1)
    extra = {"retunes": float(getattr(wl, "retunes", 0))}
    if sweep:
        serial_s = after.unit_s[0] if after.unit_s else 0.0  # one sweep
        par = calibrated_median(untraced.get("unit_s"), untraced.get("ref_s"))
        jobs = untraced.get("jobs", 1)
        cells = after.work
        extra.update(
            events_per_s=events / serial_s if serial_s else 0.0,
            cpu_per_wall=(cpu1 - cpu0) / serial_s if serial_s else 0.0,
            vcsw_per_event=(vcsw1 - vcsw0) / events if events else 0.0,
            serial_cell_ms=serial_s / cells * 1e3 if cells else 0.0,
            parallel_efficiency=serial_s * k / (jobs * par) if par else 0.0,
            pool_overhead_s=par - serial_s * k / jobs,
        )
        base = serial_s * k
    else:
        ref = untraced.get("loop", {})
        ref_iters = untraced.get("iterations", 0)
        total_events = events * ref_iters
        base = calibrated_median(untraced.get("unit_s"), untraced.get("ref_s"))
        extra.update(
            events_per_s=total_events / ref["wall_s"] if ref else 0.0,
            cpu_per_wall=ref["cpu_s"] / ref["wall_s"] if ref else 0.0,
            vcsw_per_event=ref["vcsw"] / total_events if total_events else 0.0,
        )
        if "unpinned_unit_s" in untraced and base:
            extra["unpinned_wall_ratio"] = calibrated_median(
                untraced["unpinned_unit_s"], untraced["unpinned_ref_s"]) / base
    traced_unit = calibrated_median(traced_units, tally.ref_s)
    extra["overhead_ratio"] = traced_unit / base if base else 0.0
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
    tracer.write(spans_path)
    return {
        "loop": loop,
        "traced_iterations": iterations,
        "layers": tracing.layer_metrics(tracer, iterations, extra),
        "layer_self_cpu_s": tracing.layer_table(tracer),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "tracing": {"untraced_unit_ms_p50": base * 1e3,
                    "traced_unit_ms_p50": traced_unit * 1e3,
                    "traced_loop_s": loop["wall_s"]},
    }


# ----------------------------------------------------------------------
# main-process side
# ----------------------------------------------------------------------


def git_head() -> "str | None":
    """HEAD commit of the checkout (None outside a git checkout; the
    ``.git`` test keeps git from searching the directories above)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_hash() -> str:
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(args, inputs_hash: str, mask) -> dict:
    import numpy

    return {
        "git_head": git_head(),
        "source_sha256": source_hash(),
        "nproc": os.cpu_count(),
        "affinity": sorted(mask) if mask else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": args.seed,
        "input_sha256": inputs_hash,
        "run_seconds": args.seconds,
    }


class Workers:
    """Starts worker processes and sets the CPU mask they inherit."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None

    def spawn(self, role: str, payload: dict, seconds: float = 0.0) -> dict:
        a = self.args
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--seconds", repr(seconds or a.seconds),
               "--worker", role]
        t0 = time.monotonic()
        cmd += ["--t0", repr(t0)]
        proc = subprocess.run(
            cmd, input=json.dumps(payload), capture_output=True, text=True,
            cwd=ROOT, timeout=max(1.0, self.deadline - t0),
        )
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RuntimeError(
                f"{role} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
            )
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def pinned(self, on: bool):
        """Pin this process (and so its workers) to one CPU, or unpin."""
        if self.cpus is None:
            return None
        mask = {min(self.cpus)} if on else self.cpus
        os.sched_setaffinity(0, mask)
        return mask


def end_to_end(workload: str, main: dict, setups: list) -> tuple:
    """The end-to-end metrics as reported, and as measured.

    Each set-up time is calibrated by its own worker's loop timing, the
    timed loop's rates and unit times by the run's median loop timing.
    Memory is not calibrated.
    """
    units_ms = [u * 1e3 for u in main["unit_s"]]
    measured = {
        "setup_s": statistics.median(w["setup_s"] for w in setups),
        "peak_rss_mb": main["loop"]["peak_rss_mb"],
        "work_per_s": statistics.median(main["rates"]),
        "unit_ms.p50": statistics.median(units_ms),
        "unit_ms.tail": percentile(units_ms, TAIL_PCT[workload]),
    }
    k = speed_factor(main["ref_s"])
    calibrated = {
        "setup_s": statistics.median(
            w["setup_s"] * speed_factor([w["setup_ref_s"]]) for w in setups),
        "peak_rss_mb": measured["peak_rss_mb"],
        "work_per_s": measured["work_per_s"] / k,
        "unit_ms.p50": measured["unit_ms.p50"] * k,
        "unit_ms.tail": measured["unit_ms.tail"] * k,
    }
    return calibrated, measured


def drive(args) -> int:
    import tracing
    import workloads

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    inputs = cls.make_inputs(args.seed)
    inputs_hash = workloads.input_hash(inputs)
    workers = Workers(args)
    mask = workers.pinned(args.workload in PINNED)
    payload = {"inputs": inputs}
    report = {"workload": args.workload, "trace": args.trace,
              "provenance": provenance(args, inputs_hash, mask)}
    if args.workload == "tune_sweep":
        report["provenance"]["jobs"] = workloads.usable_cpus()

    if args.trace:
        ref = workers.spawn("measure", payload)
        untraced = {"unit_s": ref["unit_s"], "ref_s": ref["ref_s"], "loop": ref["loop"],
                    "iterations": ref["iterations"], "jobs": workloads.usable_cpus()}
        ran = [ref]
        if args.workload == "moe_train":
            workers.pinned(False)
            probe = workers.spawn("measure", payload, seconds=args.seconds / 2)
            workers.pinned(True)
            untraced["unpinned_unit_s"] = probe["unit_s"]
            untraced["unpinned_ref_s"] = probe["ref_s"]
            ran.append(probe)
        main = workers.spawn("traced", {**payload, "untraced": untraced})
        ran.append(main)
        metrics = {k: (v, tracing.LAYER_METRICS[k][0]) for k, v in main["layers"].items()}
        report["layer_self_cpu_s"] = main["layer_self_cpu_s"]
        report["spans"] = {"count": main["spans"], "file": main["spans_file"],
                           "traced_iterations": main["traced_iterations"]}
        report["targets"] = {k: t for k, (_, t) in tracing.LAYER_METRICS.items()}
        report["tracing"] = {**main["tracing"], "untraced_loop_s": ref["loop"]["wall_s"]}
    else:
        setups = [workers.spawn("setup", payload) for _ in range(SETUP_SAMPLES - 1)]
        main = workers.spawn("measure", payload)
        setups.append(main)
        ran = setups
        calibrated, measured = end_to_end(args.workload, main, setups)
        metrics = {k: (v, E2E_UNITS[k]) for k, v in calibrated.items()}
        report["measured"] = measured
        report["calibration"] = {
            "nominal_s": REF_NOMINAL_S, "run_median_s": statistics.median(main["ref_s"]),
            "setup_s": [w["setup_ref_s"] for w in setups],
        }
        report["setup_samples_s"] = [w["setup_s"] for w in setups]
        n = len(main["unit_s"])
        pct = TAIL_PCT[args.workload]
        report["samples"] = {
            "unit": cls.unit, "work_item": WORK_ITEM[args.workload], "count": n,
            "tail_percentile": pct,
            "beyond_tail": n - _rank(n, pct),
            "iterations": main["iterations"], "loop_wall_s": main["loop"]["wall_s"],
        }
    workers.pinned(False)

    attempted = sum(w["attempted"] for w in ran)
    failed = sum(w["failed"] for w in ran)
    failures = [f for w in ran for f in w["failures"]][:10]
    report.update(
        attempted=attempted, failed=failed, failures=failures,
        error_rate=failed / attempted if attempted else 1.0,
        fingerprint=main["fingerprint"],
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    prov = report["provenance"]
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, (value, unit) in metrics.items():
        if args.trace:
            note = f"  -> {tracing.LAYER_METRICS[name][1]}"
        else:
            note = f"  (measured {report['measured'][name]:.6g})"
        print(f"  {name:34s} {value:14.6g} {unit}{note}")
    if not args.trace:
        c = report["calibration"]
        print(f"  host speed: calibration loop {c['run_median_s'] * 1e3:.2f} ms against "
              f"{c['nominal_s'] * 1e3:.0f} ms nominal; times above are scaled by their ratio")
    if "samples" in report:
        s = report["samples"]
        print(f"  unit: {s['unit']}; {s['count']} samples, tail = p{s['tail_percentile']}"
              f" with {s['beyond_tail']} beyond it; work item: {s['work_item']}")
    if args.trace:
        t = report["tracing"]
        print(f"  tracing overhead: traced/untraced calibrated host time per unit = "
              f"{metrics['trace.overhead_ratio'][0]:.3f} ({t['traced_unit_ms_p50']:.4g} ms"
              f" against {t['untraced_unit_ms_p50']:.4g} ms); untraced loop "
              f"{t['untraced_loop_s']:.1f} s, traced loop {t['traced_loop_s']:.1f} s")
    print(f"  error_rate {report['error_rate']:.6g} ({failed} failed of {attempted} checks)")
    for line in failures:
        print(f"  FAILED: {line}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["moe_train", "collective_mix", "tune_sweep"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--worker", choices=["setup", "measure", "traced"],
                        help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args)))
        return 0
    return drive(args)


if __name__ == "__main__":
    sys.exit(main())
