"""The three benchmark workloads, their seeded inputs and their checks.

Each workload is a small object with the same life cycle, driven by
``run.py``:

* ``setup()`` builds what every timed iteration needs (system, tuning
  table) and runs one cold iteration that fills the process-wide cost
  caches.  Its checks count like any other iteration's.
* ``iterate()`` runs one timed iteration through the simulator's public
  entry points and returns an :class:`Iteration`: how much work it did,
  the host-time samples of its blocking units, and the checks it made.

Every iteration is checked.  A simulated fingerprint that differs from
its pinned value, a result that differs from the NumPy oracle, or an
exception raised by the simulator (``DeadlockError``,
``CommTimeoutError`` or anything else) is one failed check; the run
goes on and the failure shows up in ``failed``/``attempted``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PINNED_PATH = Path(__file__).with_name("pinned.json")


def load_pinned() -> dict:
    with open(PINNED_PATH) as fh:
        return json.load(fh)


def input_hash(inputs: dict) -> str:
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class Iteration:
    """What one timed iteration did and what its checks found."""

    #: work items completed (training samples, collective calls, cells)
    work: float
    #: host seconds per blocking unit (training step, collective, sweep)
    unit_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: one line per failed check
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def _guarded(fn, it: Iteration, what: str):
    """Run ``fn``; an exception from the simulator is one failed check."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - every raise counts, the run goes on
        it.check(False, f"{what}: {type(exc).__name__}: {exc}")
        return None


# ----------------------------------------------------------------------
# moe_train: DS-MoE training (Fig. 8) through Trainer
# ----------------------------------------------------------------------


class MoETrain:
    """DS-MoE at 64 ranks on lassen under the mixed plan (NCCL
    all-reduce, MV2-GDR all-to-all), virtual tensors, comm logging on and
    observability off.  The model is the paper's; the seed changes
    nothing the simulator sees, so the fingerprint is one pinned value."""

    name = "moe_train"
    unit = "training step"
    world = 64
    steps, warmup = 2, 1

    def __init__(self, inputs: dict, pinned: dict):
        self.inputs = inputs
        self.expected_step_us = pinned["moe_train"]["sim_step_us"]

    @staticmethod
    def make_inputs(seed: int) -> dict:
        return {
            "model": "ds-moe", "system": "lassen", "world": MoETrain.world,
            "plan": "mixed(allreduce=nccl, alltoall=mvapich2-gdr)",
            "steps": MoETrain.steps, "warmup": MoETrain.warmup,
        }

    def setup(self) -> Iteration:
        from repro.cluster import lassen
        from repro.models import BackendPlan, DSMoEModel, Trainer

        marks: list = []

        class StepClock(DSMoEModel):
            """DS-MoE whose rank 0 notes the host time at each step start."""

            def run_step(self, ctx, driver):
                if ctx.rank == 0:
                    marks.append(time.perf_counter())
                return super().run_step(ctx, driver)

        self._marks = marks
        self._model = StepClock()
        self._plan = BackendPlan.mixed(label="MCR-DL")
        self._trainer = Trainer(lassen(), steps=self.steps, warmup=self.warmup)
        return self.iterate()

    def iterate(self) -> Iteration:
        model = self._model
        it = Iteration(work=0.0)
        self._marks.clear()
        result = _guarded(
            lambda: self._trainer.run(model, self.world, self._plan), it, "moe_train"
        )
        end = time.perf_counter()
        if result is None:
            return it
        marks = self._marks + [end]
        it.unit_s = [b - a for a, b in zip(marks, marks[1:])]
        steps = self.steps + self.warmup
        it.work = model.samples_per_step(self.world) * steps
        it.check(
            result.step_time_us == self.expected_step_us,
            f"moe_train sim_step_us {result.step_time_us!r} != pinned "
            f"{self.expected_step_us!r}",
        )
        self.last_fingerprint = {"sim_step_us": result.step_time_us}
        return it


# ----------------------------------------------------------------------
# collective_mix: a seeded mix of real-data collectives at 16 ranks
# ----------------------------------------------------------------------

#: every op kind appears MIX_REPEATS times at every payload size; the
#: seed only shuffles the order and draws roots, counts, peers and data,
#: so every seed asks for the same amount of work
MIX_KINDS = (
    "all_reduce", "all_gather", "reduce_scatter", "all_to_all_single", "bcast",
    "gatherv", "scatterv", "all_gatherv", "all_to_allv", "sendrecv",
)
#: per-rank payload in bytes: the largest buffer a rank holds for the op
MIX_SIZES = (1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18)
MIX_REPEATS = 2
MIX_WORLD = 16
#: seed of the canonical sequence run cold in every set-up; its per-rank
#: final simulated times are pinned in pinned.json
CANONICAL_SEED = 0
#: per-rank data pool in float32 elements; op inputs are slices of it
POOL_ELEMS = 1 << 17
#: backends of the communicator and of the "auto" tuning table
MIX_BACKENDS = ("nccl", "mvapich2-gdr")
MIX_TABLE_BACKENDS = MIX_BACKENDS + ("hier:nccl+mvapich2-gdr",)


def _partition(rng: np.random.Generator, total: int, parts: int) -> list:
    """``parts`` positive integers summing to ``total``."""
    cuts = np.sort(rng.choice(np.arange(1, total), size=parts - 1, replace=False))
    bounds = [0, *cuts.tolist(), total]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def _mix_op(rng: np.random.Generator, kind: str, nbytes: int, world: int) -> dict:
    n = nbytes // 4  # float32 elements of the payload
    op: dict = {"kind": kind, "n": n}
    if kind == "all_reduce":
        op["reduce"] = str(rng.choice(["sum", "max"]))
    elif kind in ("bcast", "gatherv", "scatterv"):
        op["root"] = int(rng.integers(world))
    elif kind == "sendrecv":
        op["shift"] = int(rng.integers(1, world))
        op["backend"] = str(rng.choice(MIX_BACKENDS))
    if kind in ("gatherv", "scatterv", "all_gatherv"):
        op["counts"] = _partition(rng, n, world)
    elif kind == "all_to_allv":
        # row i: what rank i sends to each peer; every row sums to n
        op["matrix"] = [_partition(rng, n, world) for _ in range(world)]
    op["offsets"] = rng.integers(0, POOL_ELEMS - n, size=world).tolist()
    return op


def make_mix(seed: int, repeats: int = MIX_REPEATS, sizes=MIX_SIZES,
             world: int = MIX_WORLD) -> dict:
    """The seeded op sequence: a fixed multiset of (kind, size) in a
    seed-drawn order with seed-drawn parameters."""
    rng = np.random.default_rng(seed)
    ops = [
        _mix_op(rng, kind, size, world)
        for kind in MIX_KINDS for size in sizes for _ in range(repeats)
    ]
    order = rng.permutation(len(ops)).tolist()
    return {"world": world, "data_seed": seed, "ops": [ops[i] for i in order]}


def data_pools(data_seed: int, world: int) -> list:
    """Per-rank integer-valued float32 pools (sums stay exact)."""
    rng = np.random.default_rng([data_seed, 1])
    return [
        rng.integers(-4, 5, size=POOL_ELEMS).astype(np.float32) for _ in range(world)
    ]


def _inputs(op: dict, pools: list, rank: int) -> np.ndarray:
    """Rank ``rank``'s send buffer for ``op`` (a fresh copy)."""
    kind, n, world = op["kind"], op["n"], len(pools)
    if kind == "all_gather":
        size = n // world
    elif kind in ("gatherv", "all_gatherv"):
        size = op["counts"][rank]
    elif kind == "all_to_allv":
        size = sum(op["matrix"][rank])
    elif kind == "scatterv" and rank != op["root"]:
        return None
    else:
        size = n
    off = op["offsets"][rank]
    return pools[rank][off:off + size].copy()


def mix_oracle(mix: dict, pools: list) -> list:
    """Plain-NumPy result of every op: ``[op][rank] -> crc32 or None``
    (None where the rank receives nothing)."""
    world = mix["world"]
    out = []
    for op in mix["ops"]:
        kind, n = op["kind"], op["n"]
        ins = [_inputs(op, pools, r) for r in range(world)]
        if kind == "all_reduce":
            stacked = np.stack(ins)
            res = stacked.sum(0) if op["reduce"] == "sum" else stacked.max(0)
            per_rank = [res] * world
        elif kind == "all_gather":
            per_rank = [np.concatenate(ins)] * world
        elif kind == "reduce_scatter":
            total = np.stack(ins).sum(0)
            chunk = n // world
            per_rank = [total[r * chunk:(r + 1) * chunk] for r in range(world)]
        elif kind == "all_to_all_single":
            chunk = n // world
            per_rank = [
                np.concatenate([ins[i][r * chunk:(r + 1) * chunk] for i in range(world)])
                for r in range(world)
            ]
        elif kind == "bcast":
            per_rank = [ins[op["root"]]] * world
        elif kind == "gatherv":
            per_rank = [None] * world
            per_rank[op["root"]] = np.concatenate(ins)
        elif kind == "all_gatherv":
            per_rank = [np.concatenate(ins)] * world
        elif kind == "scatterv":
            src, bounds = ins[op["root"]], np.cumsum([0] + op["counts"])
            per_rank = [src[bounds[r]:bounds[r + 1]] for r in range(world)]
        elif kind == "all_to_allv":
            m = op["matrix"]
            sdispl = [np.cumsum([0] + row) for row in m]
            per_rank = [
                np.concatenate([ins[i][sdispl[i][r]:sdispl[i][r + 1]] for i in range(world)])
                for r in range(world)
            ]
        elif kind == "sendrecv":
            s = op["shift"]
            per_rank = [ins[(r - s) % world] for r in range(world)]
        else:  # pragma: no cover - generator and oracle disagree
            raise ValueError(f"unknown op kind {kind!r}")
        out.append([None if a is None else crc(a) for a in per_rank])
    return out


def crc(array: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(array, dtype=np.float32).view(np.uint8))


def mix_program(mix: dict, pools: list, table, config, on_rank0=None):
    """The SPMD program run on every rank: each op through ``"auto"``
    dispatch, blocking, then ``synchronize()`` before the result is read
    (stream backends complete asynchronously)."""
    from repro.backends.ops import ReduceOp
    from repro.core import MCRCommunicator

    ops = mix["ops"]
    reduce_ops = {"sum": ReduceOp.SUM, "max": ReduceOp.MAX}

    def main(ctx):
        rank, world = ctx.rank, ctx.world_size
        comm = MCRCommunicator(ctx, list(MIX_BACKENDS), config=config, tuning_table=table)
        clock = on_rank0 if rank == 0 else None
        crcs = []
        for op in ops:
            kind, n = op["kind"], op["n"]
            data = _inputs(op, pools, rank)
            t0 = time.perf_counter()
            if kind == "all_reduce":
                out = ctx.tensor(data)
                comm.all_reduce("auto", out, op=reduce_ops[op["reduce"]])
            elif kind == "all_gather":
                out = ctx.zeros(n)
                comm.all_gather("auto", out, ctx.tensor(data))
            elif kind == "reduce_scatter":
                out = ctx.zeros(n // world)
                comm.reduce_scatter("auto", out, ctx.tensor(data))
            elif kind == "all_to_all_single":
                out = ctx.zeros(n)
                comm.all_to_all_single("auto", out, ctx.tensor(data))
            elif kind == "bcast":
                out = ctx.tensor(data)
                comm.bcast("auto", out, root=op["root"])
            elif kind == "gatherv":
                out = ctx.zeros(n) if rank == op["root"] else None
                comm.gatherv("auto", ctx.tensor(data), out, rcounts=op["counts"],
                             root=op["root"])
            elif kind == "all_gatherv":
                out = ctx.zeros(n)
                comm.all_gatherv("auto", out, ctx.tensor(data), rcounts=op["counts"])
            elif kind == "scatterv":
                out = ctx.zeros(op["counts"][rank])
                src = ctx.tensor(data) if data is not None else None
                comm.scatterv("auto", out, src, scounts=op["counts"], root=op["root"])
            elif kind == "all_to_allv":
                m = op["matrix"]
                rcounts = [m[i][rank] for i in range(world)]
                out = ctx.zeros(sum(rcounts))
                comm.all_to_allv("auto", out, ctx.tensor(data), scounts=m[rank],
                                 rcounts=rcounts)
            elif kind == "sendrecv":
                s, backend = op["shift"], op["backend"]
                out = ctx.zeros(n)
                recv = comm.irecv(backend, out, src=(rank - s) % world)
                send = comm.isend(backend, ctx.tensor(data), dst=(rank + s) % world)
                send.synchronize()
                recv.synchronize()
            comm.synchronize()
            if clock is not None:
                clock.append(time.perf_counter() - t0)
            crcs.append(None if out is None else crc(out.data))
        retuner = comm.retuner
        retunes = retuner.snapshot()["stats"].get("retune", 0) if retuner else 0
        comm.finalize()
        return ctx.now, crcs, retunes

    return main


class CollectiveMix:
    """Real NumPy tensors at 16 ranks; ``"auto"`` dispatch over an
    analytic table that includes ``hier:nccl+mvapich2-gdr``; trace,
    metrics and healthy-path adaptive retuning on."""

    name = "collective_mix"
    unit = "blocking collective on rank 0"

    def __init__(self, inputs: dict, pinned: dict):
        self.inputs = inputs
        self.pinned_times = pinned["collective_mix"]["canonical_rank_final_us"]

    @staticmethod
    def make_inputs(seed: int) -> dict:
        return {"mix": make_mix(seed), "canonical": make_mix(CANONICAL_SEED)}

    @staticmethod
    def tuning_table(world: int):
        from repro.backends.ops import OpFamily
        from repro.cluster import lassen
        from repro.core import Tuner

        fams = [OpFamily.ALLREDUCE, OpFamily.ALLGATHER, OpFamily.REDUCE_SCATTER,
                OpFamily.ALLTOALL, OpFamily.BROADCAST, OpFamily.GATHER,
                OpFamily.SCATTER]
        report = Tuner(lassen(), list(MIX_TABLE_BACKENDS), mode="analytic").build_table(
            world_sizes=[world], message_sizes=[s // 16 for s in MIX_SIZES] + list(MIX_SIZES),
            ops=fams,
        )
        return report.table

    def setup(self) -> Iteration:
        from repro.cluster import lassen
        from repro.core.config import AdaptiveConfig, MCRConfig

        mix = self.inputs["mix"]
        self._system = lassen()
        self._table = self.tuning_table(mix["world"])
        self._config = MCRConfig(adaptive=AdaptiveConfig(enabled=True))
        self._expected = mix_oracle(mix, data_pools(mix["data_seed"], mix["world"]))
        self._first_times = None
        # cold iteration: the canonical sequence, pinned per-rank times
        return self._run(self.inputs["canonical"], None, pinned=self.pinned_times)

    def _run(self, mix: dict, expected, pinned=None) -> Iteration:
        from repro.sim import Simulator

        pools = data_pools(mix["data_seed"], mix["world"])
        if expected is None:
            expected = mix_oracle(mix, pools)
        clock: list = []
        program = mix_program(mix, pools, self._table, self._config, on_rank0=clock)
        sim = Simulator(mix["world"], system=self._system, trace=True, observe=True)
        it = Iteration(work=0.0)
        result = _guarded(lambda: sim.run(program), it, "collective_mix")
        if result is None:
            return it
        it.work = float(mix["world"] * len(mix["ops"]))
        it.unit_s = clock
        for r, (_, crcs, _) in enumerate(result.rank_results):
            for k, (got, want) in enumerate(zip(crcs, (row[r] for row in expected))):
                it.check(
                    got == want,
                    f"collective_mix op {k} ({mix['ops'][k]['kind']}) rank {r}: "
                    "result differs from the NumPy oracle",
                )
        times = [res[0] for res in result.rank_results]
        self.last_fingerprint = {"rank_final_us": times}
        self.retunes = sum(res[2] for res in result.rank_results)
        if pinned is not None:
            it.check(
                times == pinned,
                f"collective_mix canonical rank final times {times} != pinned",
            )
        elif self._first_times is None:
            self._first_times = times
        else:
            it.check(
                times == self._first_times,
                "collective_mix: simulated times changed between iterations",
            )
        return it

    def iterate(self) -> Iteration:
        return self._run(self.inputs["mix"], self._expected)


# ----------------------------------------------------------------------
# tune_sweep: a cold simulated-mode Tuner.build_table
# ----------------------------------------------------------------------

SWEEP_BACKENDS = ("nccl", "mvapich2-gdr", "msccl")
SWEEP_WORLDS = (8, 16)
SWEEP_SIZES = (1 << 10, 1 << 14, 1 << 17, 1 << 20)


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def sweep_fingerprint(report) -> dict:
    from repro.backends.ops import OpFamily

    picks = {
        f"{op.value}@{ws}/{msg}": report.table.lookup(op.value, ws, msg)
        for op in (OpFamily.ALLREDUCE, OpFamily.ALLTOALL, OpFamily.ALLGATHER)
        for ws in SWEEP_WORLDS for msg in SWEEP_SIZES
    }
    samples = json.dumps(
        [[s.op, s.backend, s.world_size, s.msg_bytes, repr(s.latency_us)]
         for s in report.samples]
    ).encode()
    return {"picks": picks, "samples_sha256": hashlib.sha256(samples).hexdigest()}


class TuneSweep:
    """Simulated-mode tuning over nccl/mvapich2-gdr/msccl x
    allreduce/alltoall/allgather x ws {8, 16} x 1 KiB-1 MiB (72 cells),
    ``jobs`` = usable CPUs, every sweep cold (a fresh spawn pool and
    cleared cost caches)."""

    name = "tune_sweep"
    unit = "cold tuning sweep"

    def __init__(self, inputs: dict, pinned: dict):
        self.inputs = inputs
        self.pinned = pinned["tune_sweep"]

    @staticmethod
    def make_inputs(seed: int) -> dict:
        return {
            "system": "lassen", "backends": list(SWEEP_BACKENDS),
            "ops": ["allreduce", "alltoall", "allgather"],
            "world_sizes": list(SWEEP_WORLDS), "message_sizes": list(SWEEP_SIZES),
            "mode": "simulated", "iterations": 3, "warmup": 1,
        }

    def setup(self) -> Iteration:
        from repro.backends.ops import OpFamily
        from repro.cluster import lassen

        inp = self.inputs
        self._system = lassen()
        self._grid = dict(
            world_sizes=inp["world_sizes"], message_sizes=inp["message_sizes"],
            ops=[OpFamily(o) for o in inp["ops"]],
        )
        # every sweep is cold by design, so set-up has no warm-up
        # iteration
        return Iteration(work=0.0)

    def sweep(self, jobs: int):
        from repro.core import Tuner

        inp = self.inputs
        tuner = Tuner(self._system, inp["backends"], mode=inp["mode"],
                      iterations=inp["iterations"], warmup=inp["warmup"])
        return tuner.build_table(**self._grid, jobs=jobs)

    def iterate(self, jobs: int = 0) -> Iteration:
        """One cold sweep on ``jobs`` processes (default: usable CPUs).
        With one job the sweep runs in this process, so the process-wide
        cost caches are cleared first; a fresh pool starts cold anyway."""
        from repro.backends.base import clear_cost_caches

        clear_cost_caches()
        it = Iteration(work=0.0)
        t0 = time.perf_counter()
        report = _guarded(lambda: self.sweep(jobs or usable_cpus()), it, "tune_sweep")
        if report is None:
            return it
        it.unit_s = [time.perf_counter() - t0]
        it.work = float(len(report.samples))
        got = sweep_fingerprint(report)
        self.last_fingerprint = got
        it.check(got["picks"] == self.pinned["picks"],
                 f"tune_sweep picks {got['picks']} != pinned")
        it.check(got["samples_sha256"] == self.pinned["samples_sha256"],
                 "tune_sweep samples hash differs from pinned")
        return it


WORKLOADS = {cls.name: cls for cls in (MoETrain, CollectiveMix, TuneSweep)}
