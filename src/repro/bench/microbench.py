"""OMB-style communication micro-benchmarks.

Measurement methodology (paper §VI-A):

* :func:`omb_latency_us` — the OSU Micro-Benchmarks reference: the raw
  library cost of one operation with no framework layer on top (the C
  benchmark loops directly over ``MPI_Alltoall``/``ncclAllReduce``).
* :func:`framework_latency_us` — the same operation issued through a
  framework (MCR-DL, PyTorch-distributed, ...) inside the simulator, so
  the framework's dispatch overheads and synchronization scheme are on
  the measured path.
* :func:`overhead_pct` — Fig. 7's metric: percent overhead of the
  framework over the OMB reference.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence

from repro.backends.base import create_backend
from repro.backends.ops import OpFamily
from repro.cluster.topology import SystemSpec
from repro.core.api import create_communicator
from repro.core.config import MCRConfig
from repro.sim.simulator import Simulator

#: Fig. 2/7 sweep: 1 KiB .. 64 MiB
MICRO_MESSAGE_SIZES = tuple(1024 * (2**i) for i in range(17))


@lru_cache(maxsize=256)
def _cost_backend(backend_name: str, world_size: int, system: SystemSpec):
    """One cost-query backend per (name, world size, system).

    Sweeps call :func:`omb_latency_us` once per message size; building a
    fresh backend per cell defeated the per-(class, system) cost memo
    the same way the pre-hoist analytic tuner did (see
    ``Tuner._analytic_backends``).  Cost queries never mutate the
    backend, so one shared rank-0 instance serves every sweep.
    """
    return create_backend(backend_name, 0, world_size, system)


def omb_latency_us(
    system: SystemSpec,
    backend_name: str,
    family: OpFamily,
    nbytes: int,
    world_size: int,
    nonblocking: bool = False,
) -> float:
    """C-level reference latency of one collective (no framework)."""
    if backend_name[:5].lower() == "hier:":
        # composite target: price the full phase schedule (Fig. 2-style
        # sweeps compare it against its constituents at each size)
        from repro.backends.hierarchical import (
            hier_collective_cost_us,
            parse_hier,
        )

        return hier_collective_cost_us(
            system, parse_hier(backend_name), family, nbytes, world_size
        )
    backend = _cost_backend(backend_name, world_size, system)
    path = system.comm_path(world_size)
    raw = backend.collective_cost_us(
        family, nbytes, world_size, path, nonblocking=nonblocking
    )
    return raw + backend.call_overhead_us()


def effective_nbytes(nbytes: int, world_size: int) -> int:
    """The byte count a framework measurement actually exercises.

    Collective buffers hold float32 elements and must divide evenly by
    the world size, so a requested ``nbytes`` is realized as the largest
    element count ``<= nbytes // 4`` that is a multiple of
    ``world_size`` (at least one element per rank).  Overhead
    comparisons must price the OMB reference at this same size — pricing
    it at the raw ``nbytes`` compares the two sides at different
    payloads and inflates Fig. 7 overheads for sizes not divisible by
    ``4 * world_size``.
    """
    numel = max(world_size, nbytes // 4)
    numel -= numel % world_size
    return numel * 4


def framework_latency_us(
    system: SystemSpec,
    backend_name: str,
    family: OpFamily,
    nbytes: int,
    world_size: int,
    config: Optional[MCRConfig] = None,
    iterations: int = 5,
    nonblocking: bool = False,
) -> float:
    """Per-op latency through a framework's dispatch path (simulated)."""

    config = config or MCRConfig()
    numel = effective_nbytes(nbytes, world_size) // 4

    def bench(ctx):
        comm = create_communicator(ctx, [backend_name], config=config, comm_id="omb")
        x = ctx.virtual_tensor(numel)
        out = ctx.virtual_tensor(numel)
        big = ctx.virtual_tensor(numel * ctx.world_size)

        def run_op():
            if family is OpFamily.ALLREDUCE:
                h = comm.all_reduce(backend_name, x, async_op=nonblocking)
            elif family is OpFamily.ALLTOALL:
                h = comm.all_to_all_single(backend_name, out, x, async_op=nonblocking)
            elif family is OpFamily.ALLGATHER:
                h = comm.all_gather(backend_name, big, x, async_op=nonblocking)
            elif family is OpFamily.BROADCAST:
                h = comm.bcast(backend_name, x, root=0, async_op=nonblocking)
            else:
                raise ValueError(f"microbench does not cover {family}")
            if h is not None:
                h.synchronize()
            else:
                comm.synchronize(backend_name)

        run_op()  # warmup
        comm.barrier(backend_name)
        start = ctx.now
        for _ in range(iterations):
            run_op()
        elapsed = (ctx.now - start) / iterations
        comm.finalize()
        return elapsed

    result = Simulator(world_size, system=system).run(bench)
    return max(result.rank_results)


def overhead_pct(framework_us: float, omb_us: float) -> float:
    """Fig. 7's metric: percent overhead over the OMB reference."""
    if omb_us <= 0:
        raise ValueError(f"invalid OMB reference {omb_us}")
    return (framework_us - omb_us) / omb_us * 100.0


def framework_overhead_pct(
    system: SystemSpec,
    backend_name: str,
    family: OpFamily,
    nbytes: int,
    world_size: int,
    config: Optional[MCRConfig] = None,
    iterations: int = 5,
    nonblocking: bool = False,
) -> float:
    """Fig. 7 overhead with both sides priced at one effective payload.

    Computes :func:`effective_nbytes` once and feeds it to *both* the
    framework measurement and the OMB reference, so the comparison is
    apples-to-apples even when ``nbytes`` is not a multiple of
    ``4 * world_size``.
    """
    eff = effective_nbytes(nbytes, world_size)
    framework = framework_latency_us(
        system, backend_name, family, eff, world_size,
        config=config, iterations=iterations, nonblocking=nonblocking,
    )
    omb = omb_latency_us(
        system, backend_name, family, eff, world_size, nonblocking=nonblocking
    )
    return overhead_pct(framework, omb)


def _omb_cell(context: tuple, unit: tuple) -> float:
    """Sweep-engine worker: one (backend, message size) OMB cell.
    Top-level so spawned helpers can unpickle it by reference."""
    system, family_value, world_size, nonblocking = context
    backend, msg = unit
    return omb_latency_us(
        system, backend, OpFamily(family_value), msg, world_size, nonblocking
    )


def _omb_cache_keys(
    system: SystemSpec,
    family: OpFamily,
    world_size: int,
    nonblocking: bool,
    cells: Sequence[tuple],
) -> list[str]:
    from repro.bench.sweep import (
        SWEEP_SCHEMA_VERSION,
        calibration_fingerprint,
        stable_hash,
        system_fingerprint,
    )

    base = {
        "schema": SWEEP_SCHEMA_VERSION,
        "kind": "microbench",
        "system": system_fingerprint(system),
        "family": str(family),
        "world_size": world_size,
        "nonblocking": nonblocking,
    }
    backend_ctx = {
        name: stable_hash({**base, "calibration": calibration_fingerprint(name)})
        for name in {backend for backend, _ in cells}
    }
    return [
        stable_hash({"ctx": backend_ctx[backend], "backend": backend, "msg": msg})
        for backend, msg in cells
    ]


def sweep_backends(
    system: SystemSpec,
    backends: Sequence[str],
    family: OpFamily,
    world_size: int,
    message_sizes: Sequence[int] = MICRO_MESSAGE_SIZES,
    nonblocking: bool = False,
    jobs: int = 1,
    cache=None,
) -> dict[str, list[tuple[int, float]]]:
    """Fig. 2: OMB latency series per backend over message sizes.

    Backend construction is hoisted out of the sweep loop (one cost
    backend per name, via :func:`_cost_backend`); ``jobs``/``cache``
    fan cells out / serve them from the on-disk sweep cache exactly as
    :meth:`repro.core.tuner.Tuner.build_table` does.
    """
    from repro.bench.sweep import run_sweep

    family = OpFamily(family)
    cells = [(backend, msg) for backend in backends for msg in message_sizes]
    outcome = run_sweep(
        _omb_cell,
        cells,
        context=(system, family.value, world_size, nonblocking),
        jobs=jobs,
        cache=cache,
        keys=(
            _omb_cache_keys(system, family, world_size, nonblocking, cells)
            if cache is not None
            else None
        ),
    )
    out: dict[str, list[tuple[int, float]]] = {}
    for (backend, msg), latency in zip(cells, outcome.results):
        out.setdefault(backend, []).append((msg, latency))
    return out
