"""Span tracing around the simulator's layer boundaries.

:class:`SpanTracer` installs wrappers, from the benchmark's side, around
the entry calls of each layer (the public collectives, dispatch,
rendezvous, backend cost model and datapath, observability, adaptive
retuning, the sweep engine and the model step).  Each call becomes one
span: name, host start and end, busy time, parent span, thread and op
id.  Busy time is the thread's CPU time (``time.thread_time``) across
the call, so time a rank thread spends parked on the engine's baton is
waiting, not work.  A span's self time is its busy time minus the busy
time of its children.

Spans stay in memory until :meth:`SpanTracer.write`; :func:`layer_metrics`
turns them into the per-layer metrics named in ``LAYER_METRICS``.
:meth:`SpanTracer.uninstall` puts every original attribute back.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict
from typing import Callable, NamedTuple, Optional

import numpy as np

#: public collective -> op family of the calls it counts
PUBLIC_OPS = {
    "all_reduce": "allreduce", "reduce": "reduce", "bcast": "broadcast",
    "broadcast": "broadcast", "all_gather": "allgather",
    "all_gather_base": "allgather", "reduce_scatter": "reduce_scatter",
    "all_to_all_single": "alltoall", "all_to_all": "alltoall",
    "gather": "gather", "scatter": "scatter", "gatherv": "gather",
    "scatterv": "scatter", "all_gatherv": "allgather", "all_to_allv": "alltoall",
    "barrier": "barrier", "send": "p2p", "recv": "p2p",
}
FAMILIES = ("allreduce", "reduce", "broadcast", "allgather", "reduce_scatter",
            "alltoall", "gather", "scatter", "p2p", "barrier")
DATAPATH_FUNCS = (
    "all_reduce", "reduce", "broadcast", "all_gather", "all_gather_v",
    "reduce_scatter", "all_to_all_single", "all_to_all_v", "gather", "gather_v",
    "scatter", "scatter_v",
)
HIER_OPS = ("all_reduce", "bcast", "all_gather", "all_to_all_single")
#: spans kept in memory; the traced loop stops once this many are recorded
MAX_SPANS = 300_000


class Span(NamedTuple):
    name: str
    start: float
    end: float
    #: thread CPU seconds spent inside the call, children included
    busy: float
    #: index of the enclosing span on the same thread, -1 at top level
    parent: int
    thread: str
    #: index of the outermost public collective this span serves, or -1
    op: int


def self_busy(spans: list) -> list:
    """Busy time of each span minus the busy time of its child spans.
    ``spans`` is indexed as recorded (parents refer to list positions);
    a slot still None is a span that never closed and counts as 0."""
    out = [s.busy if s is not None else 0.0 for s in spans]
    for s in spans:
        if s is not None and s.parent >= 0:
            out[s.parent] -= s.busy
    return out


def _array_bytes(args) -> int:
    total = 0
    for a in args:
        if isinstance(a, np.ndarray):
            total += a.nbytes
        elif isinstance(a, (list, tuple)):
            total += sum(x.nbytes for x in a if isinstance(x, np.ndarray))
    return total


class SpanTracer:
    """Records spans at layer boundaries while installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._patches: list = []  # (owner, attr, original)

    @property
    def full(self) -> bool:
        return len(self.spans) >= MAX_SPANS

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, is_op: bool = False,
              on_exit: Optional[Callable] = None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans, local = self.spans, self._local
        perf, cpu = time.perf_counter, time.thread_time

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent, op = stack[-1]
            else:
                parent, op = -1, -1
            index = len(spans)
            spans.append(None)  # reserve the slot; filled on exit
            if is_op and op < 0:
                op = index
            stack.append((index, op))
            t0, c0 = perf(), cpu()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                busy = cpu() - c0
                stack.pop()
                spans[index] = Span(name, t0, perf(), busy, parent,
                                    threading.current_thread().name, op)
                if on_exit is not None:
                    on_exit(args, result)

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        from repro.backends import datapath
        from repro.backends.base import Backend
        from repro.backends.hierarchical import HierarchicalExecutor
        from repro.bench import sweep
        from repro.core.adaptive import AdaptiveRetuner
        from repro.core.comm import MCRCommunicator
        from repro.core.dispatch import DispatchLayer
        from repro.core.rendezvous import ExecutionLayer
        from repro.ext.logging_ext import CommLogger
        from repro.models.moe import DSMoEModel
        from repro.obs.metrics import MetricsRegistry
        from repro.sim.engine import Engine
        from repro.sim.trace import Tracer

        counts = self.counts
        for attr in PUBLIC_OPS:
            self._wrap(MCRCommunicator, attr, f"comm.{attr}", is_op=True)
        self._wrap(MCRCommunicator, "synchronize", "comm.synchronize")

        def plan_stats(args, _result):
            comm = args[0]
            if not comm._phase_tag:  # top-level communicators only
                stats = comm.plan_stats
                counts["dispatch.plan_hits"] += stats["hits"]
                counts["dispatch.plan_misses"] += stats["misses"]

        self._wrap(MCRCommunicator, "finalize", "comm.finalize", on_exit=plan_stats)

        def hier_routed(_args, result):
            if result is not None:
                counts["dispatch.hier_routed"] += 1

        self._wrap(DispatchLayer, "_hier_target", "dispatch._hier_target",
                   on_exit=hier_routed)
        self._wrap(DispatchLayer, "_compile_plan", "dispatch._compile_plan")
        self._wrap(DispatchLayer, "_admit_backend", "dispatch._admit_backend")
        for attr in ("_collective", "_p2p", "_await_flag"):
            self._wrap(ExecutionLayer, attr, f"rendezvous.{attr}")
        self._wrap(Backend, "collective_cost_us", "backends.collective_cost_us")

        def moved(args, _result):
            counts["backends.datapath_bytes"] += _array_bytes(args)

        for fn in DATAPATH_FUNCS:
            self._wrap(datapath, fn, f"backends.datapath.{fn}", on_exit=moved)
        for attr in HIER_OPS:
            self._wrap(HierarchicalExecutor, attr, f"backends.hier.{attr}")
        self._wrap(MetricsRegistry, "observe", "obs.observe")
        self._wrap(CommLogger, "log", "obs.comm_log")
        self._wrap(Tracer, "record", "obs.trace_record")
        self._wrap(AdaptiveRetuner, "before_op", "adaptive.before_op")
        self._wrap(AdaptiveRetuner, "on_complete", "adaptive.on_complete")
        self._wrap(sweep, "run_sweep", "sweep.run_sweep")
        self._wrap(DSMoEModel, "run_step", "models.run_step")

        def engine_stats(args, _result):
            counts["engine.events"] += args[0].stats()["events_dispatched"]

        self._wrap(Engine, "run", "engine.run", on_exit=engine_stats)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def installed(self) -> list:
        return [(owner, attr) for owner, attr, _ in self._patches]

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        """One tab-separated line per span, in record order."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tbusy\tparent\tthread\top\n")
            for i, s in enumerate(self.spans):
                if s is None:  # still open when the run ended
                    continue
                fh.write(f"{i}\t{s.name}\t{s.start!r}\t{s.end!r}\t{s.busy!r}\t"
                         f"{s.parent}\t{s.thread}\t{s.op}\n")


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

#: per-layer metric -> (unit, the end-to-end metric and workload it
#: should move).  Counts are per timed iteration.
LAYER_METRICS = {
    "engine.events": ("count", "work_per_s on moe_train"),
    "engine.events_per_s": ("1/s", "work_per_s on moe_train"),
    "engine.cpu_per_wall": ("ratio", "work_per_s on moe_train"),
    "engine.vcsw_per_event": ("count", "work_per_s on moe_train (OS-measured)"),
    "engine.unpinned_wall_ratio": ("ratio", "work_per_s on moe_train"),
    "models.run_step_self_cpu_ms": ("ms", "unit_ms.p50 on moe_train"),
    **{f"comm.calls.{f}": ("count", "work_per_s on collective_mix and moe_train")
       for f in FAMILIES},
    "comm.self_cpu_us_per_call": ("us", "work_per_s on collective_mix; unit_ms.p50 on moe_train"),
    "dispatch.plan_hit_ratio": ("ratio", "unit_ms.p50 on collective_mix"),
    "dispatch.plan_lookups": ("count", "unit_ms.p50 on collective_mix (base of plan_hit_ratio)"),
    "dispatch.compiles": ("count", "unit_ms.p50 on collective_mix"),
    "dispatch.compile_cpu_us": ("us", "unit_ms.p50 on collective_mix"),
    "dispatch.admit_cpu_us_per_call": ("us", "unit_ms.p50 on collective_mix"),
    "dispatch.hier_routed": ("count", "unit_ms.p50 on collective_mix"),
    "rendezvous.self_cpu_us_per_op": ("us", "unit_ms.p50 on moe_train"),
    "rendezvous.wait_us_per_op": ("us", "unit_ms.p50 on moe_train"),
    "backends.cost_calls": ("count", "work_per_s and setup_s on tune_sweep"),
    "backends.cost_cpu_us_per_call": ("us", "work_per_s and setup_s on tune_sweep"),
    "backends.datapath_cpu_ms": ("ms", "unit_ms.tail on collective_mix; work_per_s on tune_sweep"),
    "backends.datapath_bytes_computed": ("bytes", "unit_ms.tail on collective_mix; work_per_s on tune_sweep"),
    "backends.hier_ops": ("count", "unit_ms.tail on collective_mix"),
    "obs.events": ("count", "work_per_s and peak_rss_mb on collective_mix; none on moe_train"),
    "obs.events_per_op": ("ratio", "work_per_s and peak_rss_mb on collective_mix"),
    "obs.observe_cpu_us_per_event": ("us", "work_per_s on collective_mix"),
    "obs.trace_records": ("count", "peak_rss_mb on collective_mix"),
    "adaptive.observations": ("count", "work_per_s on collective_mix"),
    "adaptive.cpu_us_per_op": ("us", "work_per_s on collective_mix"),
    "adaptive.retunes": ("count", "work_per_s on collective_mix (expected 0)"),
    "sweep.serial_cell_ms": ("ms", "work_per_s on tune_sweep"),
    "sweep.parallel_efficiency": ("ratio", "work_per_s on tune_sweep"),
    "sweep.pool_overhead_s": ("s", "work_per_s on tune_sweep"),
    "trace.overhead_ratio": ("ratio", "none: traced over untraced host time per unit"),
}


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def span_totals(spans: list) -> dict:
    """name -> [calls, busy s, self busy s, wall s, wait s]."""
    own = self_busy(spans)
    out: dict = defaultdict(lambda: [0, 0.0, 0.0, 0.0, 0.0])
    for s, mine in zip(spans, own):
        if s is None:
            continue
        row = out[s.name]
        wall = s.end - s.start
        row[0] += 1
        row[1] += s.busy
        row[2] += mine
        row[3] += wall
        row[4] += wall - s.busy
    return dict(out)


def layer_metrics(tracer: SpanTracer, iterations: int, extra: dict) -> dict:
    """Per-layer metrics from the traced spans and counters.

    ``extra`` carries what the spans cannot give: ``events_per_s``,
    ``cpu_per_wall``, ``vcsw_per_event``, ``unpinned_wall_ratio``,
    ``retunes``, the three ``sweep.*`` values and ``overhead_ratio``.
    """
    spans = tracer.spans
    tot = span_totals(spans)
    counts = tracer.counts
    n = max(iterations, 1)

    def calls(name):
        return tot.get(name, [0])[0]

    def sum_over(prefix, col):
        return sum(row[col] for name, row in tot.items() if name.startswith(prefix))

    # user-issued collectives: public calls with no public call above them
    top_calls = Counter(
        PUBLIC_OPS[s.name[5:]] for i, s in enumerate(spans)
        if s is not None and s.op == i and s.name.startswith("comm.")
    )
    n_top = sum(top_calls.values())
    comm_names = [f"comm.{a}" for a in PUBLIC_OPS] + ["comm.synchronize"]
    comm_calls = sum(calls(c) for c in comm_names)
    comm_self = sum(tot[c][2] for c in comm_names if c in tot)
    rdv_ops = calls("rendezvous._collective") + calls("rendezvous._p2p")
    rdv_self = sum_over("rendezvous.", 2)
    hits, misses = counts["dispatch.plan_hits"], counts["dispatch.plan_misses"]
    compiles = calls("dispatch._compile_plan")
    observe = tot.get("obs.observe", [0, 0.0, 0.0, 0.0, 0.0])
    adaptive_busy = sum_over("adaptive.", 2)
    steps = calls("models.run_step")

    m = {
        "engine.events": counts["engine.events"] / n,
        "engine.events_per_s": extra.get("events_per_s", 0.0),
        "engine.cpu_per_wall": extra.get("cpu_per_wall", 0.0),
        "engine.vcsw_per_event": extra.get("vcsw_per_event", 0.0),
        "engine.unpinned_wall_ratio": extra.get("unpinned_wall_ratio", 0.0),
        "models.run_step_self_cpu_ms": _div(
            tot.get("models.run_step", [0, 0, 0.0])[2], steps) * 1e3,
        **{f"comm.calls.{f}": top_calls.get(f, 0) / n for f in FAMILIES},
        "comm.self_cpu_us_per_call": _div(comm_self, comm_calls) * 1e6,
        "dispatch.plan_hit_ratio": _div(hits, hits + misses),
        "dispatch.plan_lookups": (hits + misses) / n,
        "dispatch.compiles": compiles / n,
        "dispatch.compile_cpu_us": _div(
            tot.get("dispatch._compile_plan", [0, 0.0])[1], compiles) * 1e6,
        "dispatch.admit_cpu_us_per_call": _div(
            tot.get("dispatch._admit_backend", [0, 0, 0.0])[2],
            calls("dispatch._admit_backend")) * 1e6,
        "dispatch.hier_routed": counts["dispatch.hier_routed"] / n,
        "rendezvous.self_cpu_us_per_op": _div(rdv_self, rdv_ops) * 1e6,
        "rendezvous.wait_us_per_op": _div(
            tot.get("rendezvous._await_flag", [0, 0, 0, 0, 0.0])[4], rdv_ops) * 1e6,
        "backends.cost_calls": calls("backends.collective_cost_us") / n,
        "backends.cost_cpu_us_per_call": _div(
            tot.get("backends.collective_cost_us", [0, 0.0])[1],
            calls("backends.collective_cost_us")) * 1e6,
        "backends.datapath_cpu_ms": sum_over("backends.datapath.", 1) * 1e3 / n,
        "backends.datapath_bytes_computed": counts["backends.datapath_bytes"] / n,
        "backends.hier_ops": sum(calls(f"backends.hier.{a}") for a in HIER_OPS) / n,
        "obs.events": observe[0] / n,
        "obs.events_per_op": _div(observe[0], n_top),
        "obs.observe_cpu_us_per_event": _div(observe[1], observe[0]) * 1e6,
        "obs.trace_records": calls("obs.trace_record") / n,
        "adaptive.observations": calls("adaptive.on_complete") / n,
        "adaptive.cpu_us_per_op": _div(adaptive_busy, n_top) * 1e6,
        "adaptive.retunes": extra.get("retunes", 0.0),
        "sweep.serial_cell_ms": extra.get("serial_cell_ms", 0.0),
        "sweep.parallel_efficiency": extra.get("parallel_efficiency", 0.0),
        "sweep.pool_overhead_s": extra.get("pool_overhead_s", 0.0),
        "trace.overhead_ratio": extra.get("overhead_ratio", 0.0),
    }
    return m


def layer_table(tracer: SpanTracer) -> dict:
    """Self CPU seconds by layer (the first part of each span name)."""
    spans = tracer.spans
    out: dict = defaultdict(float)
    for s, mine in zip(spans, self_busy(spans)):
        if s is not None:
            out[s.name.split(".", 1)[0]] += mine
    return dict(out)
