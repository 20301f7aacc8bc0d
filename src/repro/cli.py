"""Command-line interface.

A downstream user's entry points without writing a script::

    python -m repro backends                 # list backends + capabilities
    python -m repro systems                  # list modeled systems
    python -m repro tune --system lassen --world-sizes 16 32 \
        --out table.json                     # run the tuning suite
    python -m repro micro --system lassen --op alltoall --world 64
    python -m repro train --model ds-moe --system lassen --world 16 \
        --plan mixed                         # one training measurement
    python -m repro perf --out BENCH_simulator.json \
        --label after                        # wall-clock perf harness
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro._version import __version__


def _system(name: str):
    from repro.cluster import generic_cluster, lassen, thetagpu

    factories = {"lassen": lassen, "thetagpu": thetagpu, "generic": generic_cluster}
    try:
        return factories[name]()
    except KeyError:
        raise SystemExit(f"unknown system {name!r}; choose from {sorted(factories)}")


def _model(name: str):
    from repro.models import (
        DLRMModel,
        DSMoEModel,
        MegatronDenseModel,
        PipelineParallelModel,
        ResNet50Model,
    )

    factories = {
        "ds-moe": DSMoEModel,
        "dlrm": DLRMModel,
        "resnet50": ResNet50Model,
        "megatron-dense": MegatronDenseModel,
        "pipeline-gpt": PipelineParallelModel,
    }
    try:
        return factories[name]()
    except KeyError:
        raise SystemExit(f"unknown model {name!r}; choose from {sorted(factories)}")


def _plan(spec: str, table_path: Optional[str]):
    from repro.core import TuningTable
    from repro.models import BackendPlan

    if spec == "mixed":
        return BackendPlan.mixed(label="MCR-DL")
    if spec == "tuned":
        if not table_path:
            raise SystemExit("--plan tuned requires --table <file.json>")
        return BackendPlan.tuned(TuningTable.load(table_path), label="MCR-DL-T")
    return BackendPlan.pure(spec, label=spec)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_backends(args: argparse.Namespace) -> int:
    from repro.backends import available_backends, backend_class

    print(f"{'backend':<14} {'stream-aware':>12} {'cuda-aware':>10} "
          f"{'vectored':>8} {'gather':>7} {'abi':>6}")
    for name in available_backends():
        p = backend_class(name).properties
        print(
            f"{name:<14} {str(p.stream_aware):>12} {str(p.cuda_aware):>10} "
            f"{str(p.native_vector_collectives):>8} "
            f"{str(p.native_gather_scatter):>7} {p.abi:>6}"
        )
    return 0


def cmd_systems(args: argparse.Namespace) -> int:
    for name in ("lassen", "thetagpu", "generic"):
        system = _system(name)
        node = system.node
        print(
            f"{name:<10} {system.max_nodes:>4} nodes x {node.gpus_per_node} "
            f"{node.gpu.name:<16} intra={node.intra_link.name:<9} "
            f"inter={system.inter_link.name}"
        )
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    from repro.backends.ops import OpFamily
    from repro.core import Tuner

    ops = [OpFamily(o) for o in args.ops]
    tuner = Tuner(_system(args.system), args.backends, mode=args.mode)
    sizes = [256 * (2**i) for i in range(args.num_sizes)]
    cache = None
    if args.cache:
        from repro.bench.sweep import SweepCache

        cache = SweepCache(args.cache)
    report = tuner.build_table(
        world_sizes=args.world_sizes, message_sizes=sizes, ops=ops,
        jobs=args.jobs, cache=cache,
    )
    report.table.save(args.out)
    print(
        f"tuned {report.table.num_entries()} cells "
        f"({len(ops)} ops x {len(args.world_sizes)} scales x {len(sizes)} sizes) "
        f"-> {args.out}"
    )
    stats = report.sweep_stats
    if stats is not None and (cache is not None or stats.jobs > 1):
        line = f"sweep: {stats.computed}/{stats.units} cells computed"
        if cache is not None:
            line += (
                f", cache {stats.cache_hits} hit(s) / "
                f"{stats.cache_misses} miss(es) in {args.cache}"
            )
        if stats.jobs > 1:
            line += f", {stats.jobs} worker(s)"
        print(line, file=sys.stderr)
    for op in args.ops:
        for ws in args.world_sizes:
            rows = report.table.rows(op, ws)
            winners = {backend for _, backend in rows}
            print(f"  {op} @ {ws} ranks: {len(winners)} backend(s) win bands: "
                  f"{sorted(winners)}")
    return 0


def cmd_micro(args: argparse.Namespace) -> int:
    from repro.backends.ops import OpFamily
    from repro.bench.microbench import omb_latency_us

    system = _system(args.system)
    family = OpFamily(args.op)
    sizes = [1024 * (4**i) for i in range(args.num_sizes)]
    print(f"{args.op} latency (us) at {args.world} ranks on {args.system}:")
    header = f"{'msg_bytes':>10}" + "".join(f"{b:>16}" for b in args.backends)
    print(header)
    for size in sizes:
        row = [omb_latency_us(system, b, family, size, args.world) for b in args.backends]
        print(f"{size:>10}" + "".join(f"{v:>16.2f}" for v in row))
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from repro.models import Trainer

    system = _system(args.system)
    model = _model(args.model)
    plan = _plan(args.plan, args.table)
    faults = None
    if args.faults:
        from repro.sim.faults import FaultSpec

        try:
            faults = FaultSpec.parse(args.faults)
        except (ValueError, KeyError, TypeError) as exc:
            raise SystemExit(f"bad --faults spec: {exc}")
    adaptive = None
    if args.adapt:
        from repro.core.config import AdaptiveConfig

        adaptive = AdaptiveConfig(enabled=True)
    want_obs = bool(args.trace or args.metrics)
    trainer = Trainer(
        system,
        steps=args.steps,
        warmup=args.warmup,
        faults=faults,
        trace=bool(args.trace),
        metrics=want_obs,
        adaptive=adaptive,
    )
    result = trainer.run(model, args.world, plan)
    payload = {
        "model": result.model,
        "plan": result.plan_label,
        "world_size": result.world_size,
        "step_time_us": result.step_time_us,
        "samples_per_sec": result.samples_per_sec,
        "comm_by_family_us": result.comm_by_family,
        "comm_by_backend_us": result.comm_by_backend,
    }
    if faults is not None:
        payload["fault_events"] = result.fault_events
    if args.trace:
        from repro.obs import save_chrome_trace

        save_chrome_trace(args.trace, result.tracer, result.metrics)
        print(f"trace -> {args.trace}", file=sys.stderr)
    if args.metrics:
        from repro.obs import save_metrics

        save_metrics(args.metrics, result.metrics, args.world)
        print(f"metrics -> {args.metrics}", file=sys.stderr)
    # stdout stays pure JSON (scriptable; file notices go to stderr)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.bench.reporting import format_table
    from repro.obs import load_chrome_trace, trace_breakdown

    events = load_chrome_trace(args.trace_file)
    breakdown = trace_breakdown(events)
    print(
        f"{args.trace_file}: {len(breakdown['ranks'])} rank(s), "
        f"span {breakdown['span_us']:.1f} us"
    )
    cats = breakdown["categories"]
    if cats:
        print()
        print(format_table(
            ("category", "events", "sum_us", "busy_us"),
            [
                (c, cats[c]["events"], cats[c]["sum_us"], cats[c]["busy_us"])
                for c in sorted(cats)
            ],
        ))
    if breakdown["per_step"]:
        print()
        print(format_table(
            ("step", "ranks", "window_us"),
            [
                (step, cell["ranks"], cell["dur_us"])
                for step, cell in sorted(breakdown["per_step"].items())
            ],
        ))
    if args.per_rank and breakdown["per_rank"]:
        cats_order = sorted({c for pr in breakdown["per_rank"].values() for c in pr})
        print()
        print(format_table(
            ("rank", *cats_order),
            [
                (rank, *[pr.get(c, 0.0) for c in cats_order])
                for rank, pr in breakdown["per_rank"].items()
            ],
        ))
    return 0


def cmd_perf(args: argparse.Namespace) -> int:
    from repro.bench import perfregress

    results = perfregress.run_scenarios(
        args.scenarios, repeats=args.repeats, progress=print, jobs=args.jobs
    )
    data = perfregress.merge_results(args.out, args.label, results)
    print(f"[{args.label}] {len(results)} scenario(s) -> {args.out}")
    print(perfregress.render_comparison(data))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MCR-DL reproduction: simulated mix-and-match DL communication",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("backends", help="list registered backends").set_defaults(
        func=cmd_backends
    )
    sub.add_parser("systems", help="list modeled systems").set_defaults(
        func=cmd_systems
    )

    tune = sub.add_parser("tune", help="run the tuning suite (paper §V-F)")
    tune.add_argument("--system", default="lassen")
    tune.add_argument("--backends", nargs="+", default=["nccl", "mvapich2-gdr", "msccl"])
    tune.add_argument("--world-sizes", nargs="+", type=int, default=[16])
    tune.add_argument("--ops", nargs="+", default=["allreduce", "allgather", "alltoall"])
    tune.add_argument("--num-sizes", type=int, default=12)
    tune.add_argument("--mode", choices=["analytic", "simulated"], default="analytic")
    tune.add_argument("--out", default="tuning_table.json")
    tune.add_argument(
        "--jobs", type=int, default=1,
        help="share sweep cells between this process and N-1 spawned "
        "helpers (default: serial; results are byte-identical either way)",
    )
    tune.add_argument(
        "--cache", default=None, metavar="DIR", nargs="?", const=".sweep_cache",
        help="content-addressed on-disk sweep cache directory; re-tuning "
        "recomputes only cells whose system/calibration/config inputs "
        "changed (bare --cache uses ./.sweep_cache)",
    )
    tune.set_defaults(func=cmd_tune)

    micro = sub.add_parser("micro", help="OMB-style micro-benchmark (paper Fig. 2)")
    micro.add_argument("--system", default="lassen")
    micro.add_argument("--op", default="alltoall")
    micro.add_argument("--world", type=int, default=64)
    micro.add_argument("--backends", nargs="+", default=["nccl", "mvapich2-gdr", "msccl"])
    micro.add_argument("--num-sizes", type=int, default=9)
    micro.set_defaults(func=cmd_micro)

    train = sub.add_parser("train", help="measure one training configuration")
    train.add_argument("--model", default="ds-moe")
    train.add_argument("--system", default="lassen")
    train.add_argument("--world", type=int, default=16)
    train.add_argument(
        "--plan", default="mixed",
        help="'mixed', 'tuned', or a backend name for a pure plan",
    )
    train.add_argument("--table", help="tuning table JSON (for --plan tuned)")
    train.add_argument("--steps", type=int, default=2)
    train.add_argument("--warmup", type=int, default=1)
    train.add_argument(
        "--faults", default=None,
        help="seeded fault-injection spec, e.g. "
        "'seed=7;backend=nccl:transient:prob=0.1;link=2000:8000:1.8;"
        "straggler=1:1.4' (see repro.sim.faults.FaultSpec.parse)",
    )
    train.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write a Chrome/Perfetto trace (stream timeline + step "
        "markers + comm-byte counter tracks) to FILE",
    )
    train.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="write the observability metrics dump (counters, "
        "histograms, per-step comm breakdown) to FILE as JSON",
    )
    train.add_argument(
        "--adapt", action="store_true",
        help="enable online adaptive dispatch: feedback-driven retuning "
        "of 'auto' table cells plus probation re-probes of quarantined "
        "backends (repro.core.adaptive)",
    )
    train.set_defaults(func=cmd_train)

    trace = sub.add_parser(
        "trace", help="render breakdown tables from a saved --trace file"
    )
    trace.add_argument("trace_file", help="chrome trace JSON written by train --trace")
    trace.add_argument(
        "--per-rank", action="store_true",
        help="also print a per-rank category table",
    )
    trace.set_defaults(func=cmd_trace)

    perf = sub.add_parser(
        "perf", help="wall-clock perf-regression harness for the simulator"
    )
    perf.add_argument("--out", default="BENCH_simulator.json")
    perf.add_argument(
        "--label", choices=["before", "after"], default="after",
        help="which side of the comparison this run records",
    )
    perf.add_argument("--repeats", type=int, default=3)
    perf.add_argument(
        "--jobs", type=int, default=1,
        help="run scenarios in parallel worker processes (quick smoke "
        "runs only — parallel wall numbers are contended)",
    )
    perf.add_argument(
        "--scenarios", nargs="+", default=None,
        help="subset of scenarios to run (default: all)",
    )
    perf.set_defaults(func=cmd_perf)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
