"""The MCR-DL tuning suite (paper §V-F, C5).

Runs communication micro-benchmarks for every (backend, operation,
message size, world size) combination and records the winner in a
:class:`~repro.core.tuning.TuningTable` for later use by the ``"auto"``
backend.

Two measurement modes:

* ``simulated`` — actually runs the discrete-event simulator with an
  MCR-DL communicator issuing the operation in a timed loop (this is
  what the paper's suite does with OMB-style scripts).  It is
  timing-only: the buffers are virtual tensors, so no bytes move and a
  64 MiB cell costs no more memory than a 256 B one;
* ``analytic`` — prices the operation directly from the backend cost
  model plus per-call overheads.  Orders of magnitude faster for wide
  sweeps; the test suite verifies both modes agree on rankings.

Sweeps are embarrassingly parallel — every cell is a pure function of
its coordinates — so :meth:`Tuner.build_table` decomposes the grid into
picklable work units and hands them to the
:mod:`repro.bench.sweep` engine: ``jobs=N`` shares cells between
this process and spawned helpers, ``cache=`` serves unchanged cells from the content-addressed
on-disk cache.  The merge replays the exact serial ordering, so the
resulting table and report are byte-identical to a serial run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.backends.base import create_backend
from repro.backends.ops import OpFamily
from repro.cluster.topology import SystemSpec
from repro.core.comm import MCRCommunicator
from repro.core.config import MCRConfig
from repro.core.exceptions import TuningError
from repro.core.tuning import TuningTable
from repro.obs.metrics import ObsEvent

#: default sweep, 256 B .. 64 MiB in powers of two
DEFAULT_MESSAGE_SIZES = tuple(256 * (2**i) for i in range(19))

DEFAULT_OPS = (
    OpFamily.ALLREDUCE,
    OpFamily.ALLGATHER,
    OpFamily.ALLTOALL,
    OpFamily.REDUCE_SCATTER,
    OpFamily.BROADCAST,
    OpFamily.GATHER,
    OpFamily.SCATTER,
    OpFamily.REDUCE,
)


@dataclass
class TuningSample:
    """One micro-benchmark measurement."""

    op: str
    backend: str
    world_size: int
    msg_bytes: int
    latency_us: float


@dataclass
class TuningReport:
    """All samples from one tuning run plus the resulting table."""

    table: TuningTable
    samples: list[TuningSample] = field(default_factory=list)
    #: execution statistics from the sweep engine (jobs, cache hits /
    #: misses); excluded from equality so parallel and cached runs
    #: compare equal to serial ones when their measurements agree
    sweep_stats: Optional[object] = field(default=None, compare=False)

    def samples_for(self, op: str, world_size: int, msg_bytes: int) -> list[TuningSample]:
        return [
            s
            for s in self.samples
            if s.op == op and s.world_size == world_size and s.msg_bytes == msg_bytes
        ]


class _BenchBuffers:
    """Timing-only tensors shared by the simulated op runners.

    Simulated latency depends only on byte counts, never on data, so
    every buffer is a :meth:`~repro.sim.process.RankContext.virtual_tensor`
    with the element count a real benchmark would allocate: identical
    wire sizes and timestamps, but no storage and no datapath work."""

    __slots__ = ("x", "out", "big", "small", "pad")

    def __init__(self, ctx, numel: int):
        ws = ctx.world_size
        small = max(1, numel // ws)
        self.x = ctx.virtual_tensor(numel)
        self.out = ctx.virtual_tensor(numel * ws)
        self.big = ctx.virtual_tensor(numel * ws)
        self.small = ctx.virtual_tensor(small)
        self.pad = ctx.virtual_tensor(small * ws)


#: simulated micro-benchmark body per op family
_SIM_OP_RUNNERS = {
    OpFamily.ALLREDUCE: lambda comm, b, ctx, bufs: comm.all_reduce(b, bufs.x),
    OpFamily.ALLGATHER: lambda comm, b, ctx, bufs: comm.all_gather(b, bufs.out, bufs.x),
    OpFamily.ALLTOALL: lambda comm, b, ctx, bufs: comm.all_to_all_single(
        b, bufs.big, bufs.big
    ),
    OpFamily.REDUCE_SCATTER: lambda comm, b, ctx, bufs: comm.reduce_scatter(
        b, bufs.small, bufs.pad
    ),
    OpFamily.BROADCAST: lambda comm, b, ctx, bufs: comm.bcast(b, bufs.x, root=0),
    OpFamily.REDUCE: lambda comm, b, ctx, bufs: comm.reduce(b, bufs.x, root=0),
    OpFamily.GATHER: lambda comm, b, ctx, bufs: comm.gather(
        b, bufs.x, bufs.out if ctx.rank == 0 else None, root=0
    ),
    OpFamily.SCATTER: lambda comm, b, ctx, bufs: comm.scatter(
        b, bufs.x, bufs.big if ctx.rank == 0 else None, root=0
    ),
}


class _SweepContext:
    """Picklable measurement context shipped once to each sweep helper.

    Reconstructs (and memoizes) a :class:`Tuner` on first use in each
    process; the serial path binds the issuing tuner instead so the
    in-process sweep reuses its per-instance backend memo exactly as
    before.
    """

    def __init__(
        self,
        system: SystemSpec,
        backends: Sequence[str],
        config: MCRConfig,
        mode: str,
        iterations: int,
        warmup: int,
    ):
        self.system = system
        self.backends = tuple(backends)
        self.config = config
        self.mode = mode
        self.iterations = iterations
        self.warmup = warmup
        self._tuner: Optional["Tuner"] = None

    def bind(self, tuner: "Tuner") -> None:
        self._tuner = tuner

    def tuner(self) -> "Tuner":
        if self._tuner is None:
            self._tuner = Tuner(
                self.system,
                list(self.backends),
                config=self.config,
                mode=self.mode,
                iterations=self.iterations,
                warmup=self.warmup,
            )
        return self._tuner

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_tuner"] = None  # never ship the memoized tuner
        return state


def _measure_cell(context: _SweepContext, unit: tuple) -> float:
    """Sweep-engine worker: measure one (op, world size, msg, backend)
    cell.  Top-level so spawned helpers can unpickle it by reference."""
    op_value, world_size, msg_bytes, backend = unit
    return context.tuner().measure(
        backend, OpFamily(op_value), msg_bytes, world_size
    )


class Tuner:
    """Builds tuning tables for a system over a set of backends."""

    def __init__(
        self,
        system: SystemSpec,
        backends: Sequence[str],
        config: Optional[MCRConfig] = None,
        mode: str = "analytic",
        iterations: int = 5,
        warmup: int = 1,
        metrics=None,
    ):
        if mode not in ("analytic", "simulated"):
            raise TuningError(f"unknown tuning mode {mode!r}")
        if not backends:
            raise TuningError("tuner needs at least one backend")
        self.system = system
        self.backends = list(backends)
        self.config = config or MCRConfig()
        self.mode = mode
        self.iterations = iterations
        self.warmup = warmup
        #: optional repro.obs.MetricsRegistry; every measured sample is
        #: reported as a kind="tuning" event
        self.metrics = metrics
        #: one analytic backend instance per (name, world_size), reused
        #: across the whole sweep — instantiating per cell dominated wide
        #: analytic sweeps and defeated the shared cost memo
        self._analytic_backends: dict[tuple[str, int], object] = {}

    # -- measurement --------------------------------------------------------

    def measure(
        self, backend_name: str, op: OpFamily, msg_bytes: int, world_size: int
    ) -> float:
        """End-to-end per-operation latency in µs."""
        if self.mode == "analytic":
            return self._measure_analytic(backend_name, op, msg_bytes, world_size)
        return self._measure_simulated(backend_name, op, msg_bytes, world_size)

    def _measure_analytic(
        self, backend_name: str, op: OpFamily, msg_bytes: int, world_size: int
    ) -> float:
        if backend_name[:5].lower() == "hier:":
            # composite candidate: price the phase schedule (each phase
            # already carries its dispatch fraction + overheads); +inf
            # for families a hierarchical target cannot run, so flat
            # backends always win those cells
            from repro.backends.hierarchical import (
                hier_collective_cost_us,
                parse_hier,
            )

            return hier_collective_cost_us(
                self.system, parse_hier(backend_name), op, msg_bytes,
                world_size, config=self.config,
            )
        key = (backend_name, world_size)
        backend = self._analytic_backends.get(key)
        if backend is None:
            backend = self._analytic_backends[key] = create_backend(
                backend_name, 0, world_size, self.system
            )
        path = self.system.comm_path(world_size)
        raw = backend.collective_cost_us(op, msg_bytes, world_size, path)
        raw *= 1.0 + self.config.dispatch_fraction
        return raw + self.config.dispatch_overhead_us + backend.call_overhead_us()

    def _measure_simulated(
        self, backend_name: str, op: OpFamily, msg_bytes: int, world_size: int
    ) -> float:
        from repro.sim.simulator import Simulator
        from repro.tensor.dtypes import float32

        iters, warmup = self.iterations, self.warmup
        numel = max(1, msg_bytes // float32.itemsize)
        config = self.config
        runner = _SIM_OP_RUNNERS.get(op)
        if runner is None:
            raise TuningError(f"tuner cannot benchmark {op}")
        if backend_name[:5].lower() == "hier:":
            from repro.backends.hierarchical import HIER_FAMILIES, parse_hier

            if op not in HIER_FAMILIES:
                import math

                return math.inf  # not decomposable; never simulate it
            spec = parse_hier(backend_name)
            comm_backends = list(dict.fromkeys((spec.intra, spec.inter)))
            #: "hier:*" is not a backend name; synchronize/barrier on the
            #: constituents (None = all, which also drains phase groups)
            sync_target, barrier_on = None, comm_backends[0]
        else:
            comm_backends = [backend_name]
            sync_target, barrier_on = backend_name, backend_name

        def bench(ctx):
            comm = MCRCommunicator(ctx, comm_backends, config=config)
            bufs = _BenchBuffers(ctx, numel)

            def run_op():
                runner(comm, backend_name, ctx, bufs)
                comm.synchronize(sync_target)

            for _ in range(warmup):
                run_op()
            comm.barrier(barrier_on)
            start = ctx.now
            for _ in range(iters):
                run_op()
            elapsed = ctx.now - start
            comm.finalize()
            return elapsed / iters

        result = Simulator(world_size, system=self.system).run(bench)
        return max(result.rank_results)

    # -- sweep ------------------------------------------------------------

    def _cache_keys(self, cells: Sequence[tuple]) -> list[str]:
        """One content hash per cell: measurement context + the
        backend's calibration constants + the cell coordinates."""
        from repro.bench.sweep import (
            SWEEP_SCHEMA_VERSION,
            calibration_fingerprint,
            config_fingerprint,
            stable_hash,
            system_fingerprint,
        )

        base = {
            "schema": SWEEP_SCHEMA_VERSION,
            "kind": "tuning",
            "system": system_fingerprint(self.system),
            "config": config_fingerprint(self.config),
            "mode": self.mode,
            "iterations": self.iterations,
            "warmup": self.warmup,
        }
        # hash the per-backend context once, not once per cell
        backend_ctx = {
            name: stable_hash({**base, "calibration": calibration_fingerprint(name)})
            for name in self.backends
        }
        return [
            stable_hash(
                {
                    "ctx": backend_ctx[backend],
                    "op": op_value,
                    "world_size": ws,
                    "msg_bytes": msg,
                    "backend": backend,
                }
            )
            for (op_value, ws, msg, backend) in cells
        ]

    def build_table(
        self,
        world_sizes: Sequence[int],
        message_sizes: Sequence[int] = DEFAULT_MESSAGE_SIZES,
        ops: Sequence[OpFamily] = DEFAULT_OPS,
        jobs: int = 1,
        cache=None,
    ) -> TuningReport:
        """Benchmark every combination and record the per-cell winner.

        ``jobs > 1`` shares independent cells with spawned helpers;
        ``cache`` (a :class:`repro.bench.sweep.SweepCache`) serves
        already-measured cells from disk.  Both preserve byte-identical
        output relative to a serial, uncached sweep.
        """
        from repro.bench.sweep import run_sweep

        bad = [ws for ws in world_sizes if ws < 2]
        if bad:
            # validate before measuring anything so a bad sweep cannot
            # leave a partially populated report behind
            raise TuningError(f"tuning needs world sizes >= 2, got {bad}")

        # decompose into picklable units in the exact serial order
        cells = [
            (str(op), ws, msg, backend)
            for op in ops
            for ws in world_sizes
            for msg in message_sizes
            for backend in self.backends
        ]
        context = _SweepContext(
            self.system, self.backends, self.config,
            self.mode, self.iterations, self.warmup,
        )
        if jobs <= 1:
            # serial sweeps measure through *this* tuner, preserving its
            # per-instance analytic-backend memo across build_table calls
            context.bind(self)
        outcome = run_sweep(
            _measure_cell,
            cells,
            context=context,
            jobs=jobs,
            cache=cache,
            keys=self._cache_keys(cells) if cache is not None else None,
            metrics=self.metrics,
        )

        # deterministic merge: replay the serial loop order over the
        # index-aligned results, so samples, winners, and tie-breaks are
        # byte-identical no matter how the cells were computed
        table = TuningTable(system=self.system.name)
        report = TuningReport(table=table, sweep_stats=outcome.stats)
        latencies = outcome.results
        index = 0
        for op in ops:
            for ws in world_sizes:
                for msg in message_sizes:
                    best_backend, best_latency = None, float("inf")
                    cell_samples = []
                    for backend in self.backends:
                        latency = latencies[index]
                        index += 1
                        cell_samples.append(
                            TuningSample(str(op), backend, ws, msg, latency)
                        )
                        if latency < best_latency:
                            best_backend, best_latency = backend, latency
                    report.samples.extend(cell_samples)
                    self._observe_cell(cell_samples)
                    table.add(str(op), ws, msg, best_backend)
        return report

    def _observe_cell(self, cell_samples: Sequence[TuningSample]) -> None:
        """Batch-report one merged cell's samples as tuning events."""
        if self.metrics is None:
            return
        for s in cell_samples:
            self.metrics.observe(
                ObsEvent(
                    kind="tuning",
                    rank=-1,
                    stream="",
                    backend=s.backend,
                    family=s.op,
                    nbytes=s.msg_bytes,
                    step=-1,
                    start=0.0,
                    end=s.latency_us,
                    detail=f"ws={s.world_size}",
                )
            )
