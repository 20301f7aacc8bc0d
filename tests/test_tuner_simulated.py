"""The simulated (end-to-end) tuning path reproduces Table II's bands.

The fast analytic tuner backs the benchmarks; this validates that the
paper-faithful path — actually running the micro-benchmarks through the
runtime, as the real tuning suite does — lands on the same winners.

The simulated path is timing-only (virtual buffers); the differential
tests below pin its latencies to a reference benchmark that moves real
data, and count datapath calls so a return to real buffers fails on any
host.
"""

import inspect

import pytest

from repro.backends import datapath
from repro.backends.hierarchical import HIER_FAMILIES, parse_hier
from repro.backends.ops import OpFamily
from repro.cluster import lassen
from repro.core import Tuner
from repro.core import tuner as tuner_mod
from repro.core.comm import MCRCommunicator
from repro.core.config import CompressionConfig, MCRConfig
from repro.core.tuner import DEFAULT_OPS
from repro.sim.simulator import Simulator

BACKENDS = ["mvapich2-gdr", "nccl", "msccl"]


@pytest.fixture(scope="module")
def simulated_table():
    tuner = Tuner(lassen(), BACKENDS, mode="simulated", iterations=3, warmup=1)
    report = tuner.build_table(
        world_sizes=[16],
        message_sizes=[256, 2048, 4096, 8192, 16384, 32768],
        ops=[OpFamily.ALLGATHER],
    )
    return report.table


class TestSimulatedTableII:
    def test_small_band(self, simulated_table):
        for msg in (256, 2048):
            assert simulated_table.lookup("allgather", 16, msg) == "mvapich2-gdr"

    def test_mid_band(self, simulated_table):
        for msg in (4096, 8192):
            assert simulated_table.lookup("allgather", 16, msg) == "nccl"

    def test_large_band(self, simulated_table):
        for msg in (16384, 32768):
            assert simulated_table.lookup("allgather", 16, msg) == "msccl"


class TestSimulatedMeasurements:
    def test_simulated_exceeds_analytic_by_dispatch_margin(self):
        """End-to-end numbers include the synchronization the analytic
        path doesn't; they must be close but never smaller."""
        analytic = Tuner(lassen(), BACKENDS, mode="analytic")
        simulated = Tuner(lassen(), BACKENDS, mode="simulated", iterations=3)
        for msg in (2048, 1 << 18):
            a = analytic.measure("nccl", OpFamily.ALLREDUCE, msg, 8)
            s = simulated.measure("nccl", OpFamily.ALLREDUCE, msg, 8)
            assert s >= a * 0.95
            assert s <= a * 3.0 + 50.0

    @pytest.mark.parametrize(
        "op",
        [
            OpFamily.REDUCE_SCATTER,
            OpFamily.BROADCAST,
            OpFamily.REDUCE,
            OpFamily.GATHER,
            OpFamily.SCATTER,
        ],
    )
    def test_simulated_covers_every_default_op(self, op):
        tuner = Tuner(lassen(), ["nccl"], mode="simulated", iterations=2)
        latency = tuner.measure("nccl", op, 4096, 4)
        assert latency > 0


# -- timing-only buffers ----------------------------------------------------

SMALL_SIZES = (4096, 1 << 18)


def _reference_latency(tuner, backend, op, msg_bytes, world_size):
    """The tuner's simulated micro-benchmark written out with real
    ``ctx.zeros`` buffers (same element counts, same op sequence), so
    every collective moves data through the datapath."""
    numel = max(1, msg_bytes // 4)
    if backend.startswith("hier:"):
        spec = parse_hier(backend)
        comm_backends = list(dict.fromkeys((spec.intra, spec.inter)))
        sync_target, barrier_on = None, comm_backends[0]
    else:
        comm_backends, sync_target, barrier_on = [backend], backend, backend

    def bench(ctx):
        comm = MCRCommunicator(ctx, comm_backends, config=tuner.config)
        ws, root = ctx.world_size, ctx.rank == 0
        x = ctx.zeros(numel)
        out, big = ctx.zeros(numel * ws), ctx.zeros(numel * ws)
        small = ctx.zeros(max(1, numel // ws))
        pad = ctx.zeros(small.numel() * ws)
        post_op = {
            OpFamily.ALLREDUCE: lambda: comm.all_reduce(backend, x),
            OpFamily.ALLGATHER: lambda: comm.all_gather(backend, out, x),
            OpFamily.ALLTOALL: lambda: comm.all_to_all_single(backend, big, big),
            OpFamily.REDUCE_SCATTER: lambda: comm.reduce_scatter(backend, small, pad),
            OpFamily.BROADCAST: lambda: comm.bcast(backend, x, root=0),
            OpFamily.REDUCE: lambda: comm.reduce(backend, x, root=0),
            OpFamily.GATHER: lambda: comm.gather(
                backend, x, out if root else None, root=0
            ),
            OpFamily.SCATTER: lambda: comm.scatter(
                backend, x, big if root else None, root=0
            ),
        }[op]

        def run_op():
            post_op()
            comm.synchronize(sync_target)

        for _ in range(tuner.warmup):
            run_op()
        comm.barrier(barrier_on)
        start = ctx.now
        for _ in range(tuner.iterations):
            run_op()
        elapsed = ctx.now - start
        comm.finalize()
        return elapsed / tuner.iterations

    result = Simulator(world_size, system=tuner.system).run(bench)
    return max(result.rank_results)


def _assert_matches_reference(tuner, backend, ops, world_size):
    for op in ops:
        for msg in SMALL_SIZES:
            got = tuner.measure(backend, op, msg, world_size)
            want = _reference_latency(tuner, backend, op, msg, world_size)
            assert got == want, (backend, op, msg)  # exact, not approx


class TestTimingOnlyBuffers:
    @pytest.mark.parametrize("backend", ["nccl", "mvapich2-gdr"])
    def test_flat_latencies_equal_real_buffer_reference(self, backend):
        tuner = Tuner(lassen(), [backend], mode="simulated", iterations=2)
        _assert_matches_reference(tuner, backend, DEFAULT_OPS, 4)

    def test_hier_latencies_equal_real_buffer_reference(self):
        backend = "hier:nccl+mvapich2-gdr"
        tuner = Tuner(lassen(), [backend], mode="simulated", iterations=2)
        # ws 8 = two 4-GPU lassen nodes, so both phases run
        ops = [op for op in DEFAULT_OPS if op in HIER_FAMILIES]
        _assert_matches_reference(tuner, backend, ops, 8)

    def test_compressed_latencies_equal_real_buffer_reference(self):
        config = MCRConfig(compression=CompressionConfig(enabled=True, rate_bits=8))
        tuner = Tuner(
            lassen(), ["nccl"], config=config, mode="simulated", iterations=2
        )
        ops = [OpFamily.ALLREDUCE, OpFamily.ALLGATHER, OpFamily.REDUCE_SCATTER]
        _assert_matches_reference(tuner, "nccl", ops, 4)

    @pytest.fixture
    def datapath_calls(self, monkeypatch):
        """Count every call into a public ``repro.backends.datapath``
        function."""
        calls = []
        for name, fn in vars(datapath).items():
            if (
                inspect.isfunction(fn)
                and fn.__module__ == datapath.__name__
                and not name.startswith("_")
            ):

                def counted(*args, _fn=fn, _name=name, **kwargs):
                    calls.append(_name)
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(datapath, name, counted)
        return calls

    def test_counter_sees_real_buffer_traffic(self, datapath_calls):
        tuner = Tuner(lassen(), ["nccl"], mode="simulated", iterations=1)
        _reference_latency(tuner, "nccl", OpFamily.ALLREDUCE, 4096, 4)
        assert datapath_calls  # the patch intercepts the op table's calls

    def test_build_table_moves_no_bytes(self, datapath_calls, monkeypatch):
        buffers = []
        for op, runner in tuner_mod._SIM_OP_RUNNERS.items():

            def recording(comm, b, ctx, bufs, _runner=runner):
                buffers.extend(getattr(bufs, slot) for slot in bufs.__slots__)
                return _runner(comm, b, ctx, bufs)

            monkeypatch.setitem(tuner_mod._SIM_OP_RUNNERS, op, recording)
        tuner = Tuner(
            lassen(), ["nccl", "mvapich2-gdr", "hier:nccl+mvapich2-gdr"],
            mode="simulated", iterations=1,
        )
        tuner.build_table(world_sizes=[8], message_sizes=[1 << 20])
        assert datapath_calls == []
        assert buffers and all(t.is_virtual for t in buffers)
