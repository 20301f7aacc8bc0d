"""Communication logging extension (paper §V-E; feeds Figs. 1 and 12)."""

import pytest

from repro.core import MCRCommunicator, MCRConfig
from repro.sim import Simulator


def run_logged(fn, world=2):
    def main(ctx):
        comm = MCRCommunicator(ctx, ["nccl", "mvapich2-gdr"], config=MCRConfig(enable_logging=True))
        fn(ctx, comm)
        comm.finalize()

    res = Simulator(world).run(main)
    return res.shared["comm_logger"]


class TestRecording:
    def test_every_rank_logs_each_collective(self):
        logger = run_logged(
            lambda ctx, comm: comm.all_reduce("nccl", ctx.zeros(64)), world=3
        )
        recs = [r for r in logger.records if r.family == "allreduce"]
        assert len(recs) == 3
        assert {r.rank for r in recs} == {0, 1, 2}

    def test_record_fields(self):
        logger = run_logged(lambda ctx, comm: comm.all_reduce("nccl", ctx.zeros(64)))
        rec = logger.records[0]
        assert rec.backend == "nccl"
        assert rec.nbytes == 256
        assert rec.end > rec.start
        assert rec.duration > 0

    def test_duration_is_transfer_not_queueing(self):
        """A late-posted op's record must not include its wait for peers."""

        def fn(ctx, comm):
            ctx.sleep(ctx.rank * 10_000.0)
            comm.all_reduce("mvapich2-gdr", ctx.virtual_tensor(1024))

        logger = run_logged(fn)
        for rec in logger.records:
            if rec.family == "allreduce":
                assert rec.duration < 1_000.0

    def test_p2p_logged_for_both_endpoints(self):
        def fn(ctx, comm):
            if ctx.rank == 0:
                comm.send("nccl", ctx.zeros(8), dst=1)
            else:
                comm.recv("nccl", ctx.zeros(8), src=0)

        logger = run_logged(fn)
        p2p = [r for r in logger.records if r.family == "p2p"]
        assert {r.rank for r in p2p} == {0, 1}

    def test_async_ops_logged_on_completion(self):
        def fn(ctx, comm):
            h = comm.all_reduce("nccl", ctx.zeros(64), async_op=True)
            h.synchronize()

        logger = run_logged(fn)
        assert any(r.async_op for r in logger.records)


class TestAggregation:
    def make_logger(self):
        def fn(ctx, comm):
            comm.all_reduce("nccl", ctx.virtual_tensor(1 << 18))
            comm.all_to_all_single(
                "mvapich2-gdr", ctx.virtual_tensor(1 << 18), ctx.virtual_tensor(1 << 18)
            )
            comm.all_to_all_single(
                "mvapich2-gdr", ctx.virtual_tensor(1 << 18), ctx.virtual_tensor(1 << 18)
            )

        return run_logged(fn, world=4)

    def test_totals_by_family(self):
        logger = self.make_logger()
        totals = logger.total_time_by_family()
        assert set(totals) >= {"allreduce", "alltoall"}
        assert all(v > 0 for v in totals.values())
        # the two alltoalls cost roughly twice one of them
        a2a = [r.duration for r in logger.records if r.family == "alltoall" and r.rank == 0]
        assert len(a2a) == 2
        assert totals["alltoall"] == pytest.approx(sum(a2a))

    def test_totals_by_backend(self):
        totals = self.make_logger().total_time_by_backend()
        assert set(totals) >= {"nccl", "mvapich2-gdr"}

    def test_per_rank_filter(self):
        logger = self.make_logger()
        rank0 = logger.total_time_by_family(rank=0)
        avg = logger.total_time_by_family()
        assert rank0.keys() == avg.keys()

    def test_op_counts(self):
        counts = self.make_logger().op_counts()
        assert counts["alltoall"] == 2 * 4  # 2 ops x 4 ranks
        assert counts["allreduce"] == 4

    def test_bytes_by_family(self):
        by_bytes = self.make_logger().bytes_by_family()
        assert by_bytes["alltoall"] == 2 * 4 * (1 << 20)

    def test_clear(self):
        logger = self.make_logger()
        logger.clear()
        assert logger.records == []
        assert logger.events == []


class TestPerRankAverages:
    def test_shared_logger_records_world_size(self):
        logger = run_logged(
            lambda ctx, comm: comm.all_reduce("nccl", ctx.zeros(16)), world=3
        )
        assert logger.world_size == 3

    def test_average_divides_by_world_size_not_observed_ranks(self):
        """Ranks that logged nothing for a family still count in the
        per-rank average; dividing by observed ranks inflated it."""
        from repro.ext.logging_ext import CommLogger

        logger = CommLogger(world_size=4)
        logger.log(0, "p2p", "nccl", 64, 0.0, 10.0, False)
        logger.log(1, "p2p", "nccl", 64, 0.0, 10.0, False)
        assert logger.total_time_by_family()["p2p"] == pytest.approx(5.0)
        assert logger.total_time_by_backend()["nccl"] == pytest.approx(5.0)

    def test_direct_construction_keeps_observed_rank_fallback(self):
        from repro.ext.logging_ext import CommLogger

        logger = CommLogger()
        logger.log(0, "p2p", "nccl", 64, 0.0, 10.0, False)
        logger.log(1, "p2p", "nccl", 64, 0.0, 10.0, False)
        assert logger.total_time_by_family()["p2p"] == pytest.approx(10.0)


class TestSingleStore:
    def test_each_op_is_stored_once(self):
        """With trace, metrics and comm logging all on, one all_reduce is
        one event per rank in the registry; the logger and tracer are
        views over those same objects."""

        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl"], config=MCRConfig(enable_logging=True))
            comm.all_reduce("nccl", ctx.zeros(64))
            comm.finalize()

        res = Simulator(2, trace=True, observe=True).run(main)
        events = res.metrics.events
        logger = res.shared["comm_logger"]
        comm_events = [e for e in events if e.kind == "comm"]
        assert sorted(e.rank for e in comm_events) == [0, 1]
        assert {e.family for e in comm_events} == {"allreduce"}
        assert any(logger.records[0] is e for e in events)
        assert len(logger.records) == len(comm_events)
        assert all(a is b for a, b in zip(logger.records, comm_events))
        traced = [e for e in events if e.kind == "trace"]
        assert traced and len(res.tracer.records) == len(traced)
        assert all(a is b for a, b in zip(res.tracer.records, traced))
