"""Tensor fusion (paper §V-E): B/T semantics, correctness, cross-backend
timeout-flush overlap."""

import numpy as np
import pytest

from repro.core import MCRCommunicator
from repro.ext.fusion import FusionConfig, TensorFusion
from repro.sim import Simulator


def spmd(world, fn, backends=("nccl", "mvapich2-gdr")):
    def main(ctx):
        comm = MCRCommunicator(ctx, list(backends))
        fusion = TensorFusion(comm, FusionConfig(
            max_buffer_bytes=1024, max_wait_us=50.0, bypass_threshold=1 << 20
        ))
        out = fn(ctx, comm, fusion)
        fusion.flush_all()
        comm.finalize()
        return out

    return Simulator(world).run(main).rank_results


class TestCorrectness:
    def test_fused_values_scattered_back(self):
        def fn(ctx, comm, fusion):
            a = ctx.full(4, float(ctx.rank))
            b = ctx.full(8, float(ctx.rank * 10))
            ha = fusion.all_reduce("nccl", a)
            hb = fusion.all_reduce("nccl", b)
            fusion.flush_all()
            ha.synchronize()
            hb.synchronize()
            return (a.data.copy(), b.data.copy())

        for a, b in spmd(3, fn):
            assert np.allclose(a, 0 + 1 + 2)
            assert np.allclose(b, 0 + 10 + 20)

    def test_wait_triggers_flush(self):
        def fn(ctx, comm, fusion):
            a = ctx.full(4, 1.0)
            h = fusion.all_reduce("nccl", a)
            h.synchronize()  # bucket below B: must self-flush, not hang
            return float(a.data[0])

        assert spmd(2, fn) == [2.0, 2.0]

    def test_wait_validates_backend_name(self):
        from repro.core.exceptions import MCRError

        def fn(ctx, comm, fusion):
            h = fusion.all_reduce("nccl", ctx.ones(4))
            fusion.flush_all()
            h.wait(backend="nccl")  # the posted backend is always valid
            h2 = fusion.all_reduce("nccl", ctx.ones(4))
            fusion.flush_all()
            with pytest.raises(MCRError, match="fused handle belongs"):
                h2.wait(backend="gloo")
            return True

        assert spmd(2, fn) == [True, True]

    def test_different_dtypes_not_fused_together(self):
        from repro.tensor import int64

        def fn(ctx, comm, fusion):
            a = ctx.full(4, 1.0)
            b = ctx.tensor(np.ones(4, dtype=np.int64), dtype=int64)
            fusion.all_reduce("nccl", a)
            fusion.all_reduce("nccl", b)
            return len(fusion._buckets)

        assert spmd(2, fn)[0] == 2


class TestBufferPolicy:
    def test_full_buffer_flushes_immediately(self):
        def fn(ctx, comm, fusion):
            # 1024-byte buffer; two 512-byte tensors fill it exactly
            fusion.all_reduce("nccl", ctx.zeros(128))
            fusion.all_reduce("nccl", ctx.zeros(128))
            return (fusion.stats["full_flushes"], fusion.pending_bytes)

        flushes, pending = spmd(2, fn)[0]
        assert flushes == 1
        assert pending == 0

    def test_large_tensors_bypass(self):
        def fn(ctx, comm, fusion):
            h = fusion.all_reduce("nccl", ctx.virtual_tensor(1 << 20))
            h.synchronize()
            return fusion.stats["bypass"]

        assert spmd(2, fn)[0] == 1

    def test_timeout_T_flushes_stale_bucket(self):
        def fn(ctx, comm, fusion):
            fusion.all_reduce("nccl", ctx.zeros(8))
            ctx.sleep(100.0)  # exceed T=50us
            fusion.all_reduce("nccl", ctx.zeros(8))  # triggers lazy timeout
            fusion.flush_all()
            return fusion.stats["timeout_flushes"]

        assert spmd(2, fn)[0] == 1

    def test_step_boundary_flush_counted_separately(self):
        def fn(ctx, comm, fusion):
            fusion.all_reduce("nccl", ctx.zeros(8))
            fusion.flush_all()  # below B and no timeout: a boundary flush
            return dict(fusion.stats)

        stats = spmd(2, fn)[0]
        assert stats["boundary_flushes"] == 1
        assert stats["full_flushes"] == 0
        assert stats["timeout_flushes"] == 0

    def test_fused_tensor_count_tracked(self):
        def fn(ctx, comm, fusion):
            for _ in range(5):
                fusion.all_reduce("nccl", ctx.zeros(8))
            return fusion.stats["fused_tensors"]

        assert spmd(2, fn)[0] == 5


class TestCrossBackendOverlap:
    def test_timeout_flush_prefers_least_busy_backend(self):
        """The §V-E optimization: a below-B timeout flush routes to the
        least busy backend's streams."""

        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl", "msccl"])
            fusion = TensorFusion(
                comm,
                FusionConfig(max_buffer_bytes=1 << 30, max_wait_us=10.0),
            )
            # saturate NCCL's comm streams with a big op
            comm.all_reduce("nccl", ctx.virtual_tensor(8 << 20), async_op=True)
            fusion.all_reduce("nccl", ctx.zeros(8))
            ctx.sleep(50.0)
            fusion.all_reduce("nccl", ctx.zeros(8))  # timeout flush
            fusion.flush_all()
            comm.finalize()

        res = Simulator(2, trace=True).run(main)
        comm_labels = {r.detail for r in res.tracer.filter(rank=0, category="comm")}
        assert any("msccl" in l for l in comm_labels)  # rerouted off NCCL

    def test_boundary_flush_reroutes_and_stays_symmetric(self):
        """A step-boundary flush below B takes the same least-busy
        reroute as a timeout flush — and every rank must land on the
        same target (the first flusher's choice is shared; per-rank
        choices would post mismatched collectives and deadlock)."""

        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl", "msccl"])
            fusion = TensorFusion(
                comm,
                FusionConfig(max_buffer_bytes=1 << 30, max_wait_us=1e9),
            )
            comm.all_reduce("nccl", ctx.virtual_tensor(8 << 20), async_op=True)
            fusion.all_reduce("nccl", ctx.zeros(8))
            fusion.flush_all()
            comm.finalize()
            return dict(fusion.stats)

        res = Simulator(2, trace=True).run(main)
        comm_labels = {r.detail for r in res.tracer.filter(rank=0, category="comm")}
        assert any("msccl" in l for l in comm_labels)
        assert res.rank_results[0]["boundary_flushes"] == 1

    def test_wait_tolerates_cross_backend_reroute(self):
        """After a timeout reroute, wait(backend=...) accepts both the
        posted backend and the one the flush actually ran on."""

        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl", "msccl"])
            fusion = TensorFusion(
                comm,
                FusionConfig(max_buffer_bytes=1 << 30, max_wait_us=10.0),
            )
            comm.all_reduce("nccl", ctx.virtual_tensor(8 << 20), async_op=True)
            h = fusion.all_reduce("nccl", ctx.zeros(8))
            ctx.sleep(50.0)
            fusion.all_reduce("nccl", ctx.zeros(8))  # timeout-flushes h
            h.wait(backend="nccl")
            actual = h._inner.backend_name
            h.wait(backend=actual)
            fusion.flush_all()
            comm.finalize()
            return actual

        assert Simulator(2).run(main).rank_results[0] == "msccl"

    def test_overlap_disabled_keeps_backend(self):
        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl", "msccl"])
            fusion = TensorFusion(
                comm,
                FusionConfig(
                    max_buffer_bytes=1 << 30,
                    max_wait_us=10.0,
                    cross_backend_overlap=False,
                ),
            )
            comm.all_reduce("nccl", ctx.virtual_tensor(8 << 20), async_op=True)
            fusion.all_reduce("nccl", ctx.zeros(8))
            ctx.sleep(50.0)
            fusion.all_reduce("nccl", ctx.zeros(8))
            fusion.flush_all()
            comm.finalize()

        res = Simulator(2, trace=True).run(main)
        comm_labels = {r.detail for r in res.tracer.filter(rank=0, category="comm")}
        assert not any("msccl" in l for l in comm_labels)


class TestFusionBenefit:
    def test_fusion_beats_many_small_allreduces(self):
        """The reason fusion exists: N tiny ops cost N launches."""

        def run(fused: bool):
            def main(ctx):
                comm = MCRCommunicator(ctx, ["nccl"])
                tensors = [ctx.zeros(64) for _ in range(64)]
                if fused:
                    fusion = TensorFusion(comm, FusionConfig())
                    handles = [fusion.all_reduce("nccl", t) for t in tensors]
                    fusion.flush_all()
                    for h in handles:
                        h.synchronize()
                else:
                    handles = [
                        comm.all_reduce("nccl", t, async_op=True) for t in tensors
                    ]
                    for h in handles:
                        h.synchronize()
                comm.finalize()
                return ctx.now

            return max(Simulator(4).run(main).rank_results)

        assert run(fused=True) < run(fused=False)
