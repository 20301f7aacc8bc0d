"""Fault injection and graceful degradation.

The failure-handling contract: seeded faults are deterministic (same
seed, same trace), transient backend faults are retried and the op still
returns correct values, permanent failures quarantine the backend and
fail over to a survivor instead of deadlocking, per-op deadlines raise
:class:`CommTimeoutError` with per-rank diagnostics, and a healthy run
is bit-identical whether or not the fault machinery exists.
"""

import numpy as np
import pytest

from repro.core import (
    BackendError,
    CommTimeoutError,
    MCRCommunicator,
    MCRConfig,
)
from repro.sim import Simulator
from repro.sim.faults import (
    BackendFault,
    FaultInjector,
    FaultSpec,
    LinkFault,
    LinkSchedule,
)


def transient(backend="nccl", prob=1.0, max_consecutive=2):
    return FaultSpec(
        seed=7,
        backend_faults=(
            BackendFault(backend=backend, kind="transient", prob=prob,
                         max_consecutive=max_consecutive),
        ),
    )


def permanent(backend="nccl", at_op=3):
    return FaultSpec(
        backend_faults=(
            BackendFault(backend=backend, kind="permanent", at_op=at_op),
        ),
    )


def allreduce_job(backends, n_ops=3, dispatch=None, config=None):
    """An SPMD program of ``n_ops`` summed allreduces; returns the data."""

    def main(ctx):
        comm = MCRCommunicator(ctx, list(backends), config=config)
        x = ctx.full(16, float(ctx.rank + 1))
        for _ in range(n_ops):
            comm.all_reduce(dispatch or backends[0], x)
            comm.synchronize()
        comm.finalize()
        return x.data.copy()

    return main


class TestSpecValidation:
    def test_transient_needs_valid_prob(self):
        with pytest.raises(ValueError):
            BackendFault("nccl", "transient", prob=1.5).validate()

    def test_permanent_needs_at_op(self):
        with pytest.raises(ValueError):
            BackendFault("nccl", "permanent").validate()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            BackendFault("nccl", "intermittent").validate()

    def test_empty_link_window_rejected(self):
        with pytest.raises(ValueError):
            LinkFault(start_us=100.0, end_us=100.0).validate()

    def test_enabled_property(self):
        assert not FaultSpec().enabled
        assert transient().enabled
        assert FaultSpec(link_faults=(LinkFault(),)).enabled
        assert FaultSpec(stragglers={0: 2.0}).enabled


class TestSpecParsing:
    def test_compact_spec_round_trip(self):
        spec = FaultSpec.parse(
            "seed=7;backend=nccl:transient:prob=0.2:max=3;"
            "backend=mvapich2-gdr:permanent:at=5;"
            "link=2000:8000:1.8:period=500:duty=0.25;"
            "straggler=1:1.4;stragglers=2:1.6"
        )
        assert spec.seed == 7
        t, p = spec.backend_faults
        assert (t.backend, t.kind, t.prob, t.max_consecutive) == ("nccl", "transient", 0.2, 3)
        assert (p.backend, p.kind, p.at_op) == ("mvapich2-gdr", "permanent", 5)
        (lf,) = spec.link_faults
        assert (lf.start_us, lf.end_us, lf.factor) == (2000.0, 8000.0, 1.8)
        assert (lf.period_us, lf.duty) == (500.0, 0.25)
        assert spec.stragglers == {1: 1.4}
        assert (spec.random_stragglers, spec.straggler_scale) == (2, 1.6)

    def test_open_ended_link_window(self):
        (lf,) = FaultSpec.parse("link=1000:inf:x2.5").link_faults
        assert lf.end_us == float("inf")
        assert lf.factor == 2.5

    def test_json_spec(self):
        spec = FaultSpec.parse(
            '{"seed": 3, "backend_faults": '
            '[{"backend": "nccl", "kind": "permanent", "at_op": 2}], '
            '"stragglers": {"0": 2.0}}'
        )
        assert spec.seed == 3
        assert spec.backend_faults[0].at_op == 2
        assert spec.stragglers == {0: 2.0}

    @pytest.mark.parametrize("bad", [
        "frobnicate=1",
        "backend=nccl",
        "backend=nccl:transient:prob=2.0",
        "backend=nccl:permanent",
        "link=100:50:2.0",
        "seed",
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            FaultSpec.parse(bad)


class TestLinkFaults:
    def test_window_bounds(self):
        lf = LinkFault(start_us=1000.0, end_us=2000.0, factor=3.0)
        assert lf.factor_at(999.9) == 1.0
        assert lf.factor_at(1000.0) == 3.0
        assert lf.factor_at(1999.9) == 3.0
        assert lf.factor_at(2000.0) == 1.0

    def test_flapping_duty_cycle(self):
        lf = LinkFault(
            start_us=1000.0, end_us=2000.0, factor=2.0, period_us=100.0, duty=0.25
        )
        assert lf.factor_at(1010.0) == 2.0  # phase 0.10 < duty
        assert lf.factor_at(1030.0) == 1.0  # phase 0.30 >= duty
        assert lf.factor_at(1110.0) == 2.0  # next period, degraded again

    def test_schedule_composes_multiplicatively(self):
        sched = LinkSchedule((
            LinkFault(start_us=0.0, end_us=100.0, factor=2.0),
            LinkFault(start_us=50.0, end_us=150.0, factor=3.0),
        ))
        assert sched.factor_at(25.0) == 2.0
        assert sched.factor_at(75.0) == 6.0
        assert sched.factor_at(125.0) == 3.0
        assert sched.factor_at(200.0) == 1.0

    def test_degraded_link_slows_the_job(self):
        main = allreduce_job(["nccl"], n_ops=4)
        healthy = Simulator(4).run(main)
        degraded = Simulator(
            4, faults=FaultSpec(link_faults=(LinkFault(factor=4.0),))
        ).run(main)
        assert degraded.elapsed_us > healthy.elapsed_us
        # degradation changes timing, never data
        for h, d in zip(healthy.rank_results, degraded.rank_results):
            assert np.allclose(h, d)

    def test_stream_path_arrival_time_reflects_pre_post_sync(self):
        """Regression: on the stream path, ``sync.pre_post`` can advance
        the host clock (naive mode synchronizes the default stream
        before posting).  The arrival timestamp must be taken *after*
        that sync, or a fault window opening during the sync is missed
        and the transfer runs at healthy speed inside a degraded window.
        """
        config = MCRConfig(synchronization="naive")

        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl"], config=config)
            # a long default-stream kernel: pre_post must drain it, which
            # advances the host well past the fault window's opening edge
            ctx.launch(1000.0, label="compute")
            comm.all_reduce("nccl", ctx.virtual_tensor(262_144))
            comm.finalize()
            return ctx.now

        healthy = Simulator(2).run(main)
        degraded = Simulator(
            2,
            faults=FaultSpec(
                # opens after the op is requested but before the default-
                # stream drain completes: only the post-sync timestamp
                # lands inside it
                link_faults=(LinkFault(start_us=500.0, factor=4.0),)
            ),
        ).run(main)
        assert degraded.elapsed_us > healthy.elapsed_us


class TestStragglers:
    def test_random_stragglers_seeded(self):
        spec = FaultSpec(seed=11, random_stragglers=2, straggler_scale=1.6)
        picked = spec.straggler_map(8)
        assert len(picked) == 2
        assert all(s == 1.6 for s in picked.values())
        assert picked == spec.straggler_map(8)  # same seed, same picks
        other = FaultSpec(seed=12, random_stragglers=2, straggler_scale=1.6)
        assert picked != other.straggler_map(8) or True  # seeds may collide...
        assert FaultSpec(seed=11, random_stragglers=8).straggler_map(4).keys() <= set(range(4))

    def test_explicit_straggler_wins_over_random(self):
        spec = FaultSpec(seed=11, random_stragglers=8, straggler_scale=1.6,
                         stragglers={3: 2.5})
        assert spec.straggler_map(8)[3] == 2.5

    def test_spec_stragglers_populate_simulator(self):
        sim = Simulator(8, faults=FaultSpec(seed=11, random_stragglers=2))
        assert len(sim.stragglers) == 2

    def test_simulator_explicit_map_wins(self):
        sim = Simulator(
            8,
            stragglers={0: 2.0},
            faults=FaultSpec(stragglers={0: 1.4, 1: 1.4}),
        )
        assert sim.stragglers[0] == 2.0
        assert sim.stragglers[1] == 1.4


class TestInjectorDeterminism:
    def test_same_query_same_decision(self):
        inj = FaultInjector(transient(prob=0.5))
        a = [inj.backend_fault("comm0", "nccl", i) for i in range(50)]
        b = [inj.backend_fault("comm0", "nccl", i) for i in range(50)]
        assert a == b
        assert any(d is not None for d in a)
        assert any(d is None for d in a)

    def test_seed_changes_decisions(self):
        hits = []
        for seed in (1, 2):
            spec = transient(prob=0.5)
            spec.seed = seed
            inj = FaultInjector(spec)
            hits.append(
                [i for i in range(50) if inj.backend_fault("c", "nccl", i)]
            )
        assert hits[0] != hits[1]

    def test_p2p_never_sees_permanent(self):
        inj = FaultInjector(permanent(at_op=1))
        assert inj.backend_fault("c", "nccl", 5, p2p=False).kind == "permanent"
        assert inj.backend_fault("c", "nccl", 5, p2p=True) is None

    def test_unlisted_backend_unaffected(self):
        inj = FaultInjector(transient(backend="nccl"))
        assert inj.backend_fault("c", "msccl", 1) is None


class TestTransientFaults:
    def run(self, spec, world=4, n_ops=3, backends=("nccl", "mvapich2-gdr")):
        return Simulator(world, faults=spec).run(
            allreduce_job(list(backends), n_ops=n_ops)
        )

    def test_retried_op_completes_with_correct_values(self):
        world, n_ops = 4, 3
        res = self.run(transient(prob=1.0, max_consecutive=2), world, n_ops)
        # repeated sum-allreduce: each op multiplies the common value by world
        expected = sum(range(1, world + 1)) * world ** (n_ops - 1)
        for data in res.rank_results:
            assert np.allclose(data, expected)

    def test_retries_are_logged(self):
        res = self.run(transient(prob=1.0, max_consecutive=2))
        logger = res.shared["comm_logger"]
        counts = logger.event_counts()
        assert counts.get("retry", 0) > 0
        assert counts.get("quarantine", 0) == 0
        retry = next(e for e in logger.events if e.family == "retry")
        assert retry.backend == "nccl"
        assert "attempt" in retry.detail

    def test_retries_cost_simulated_time(self):
        healthy = self.run(FaultSpec(
            backend_faults=(BackendFault("nccl", "transient", prob=0.0),)
        ))
        faulted = self.run(transient(prob=1.0))
        assert faulted.elapsed_us > healthy.elapsed_us

    def test_same_seed_identical_event_trace(self):
        spec = transient(prob=0.5)
        trace = lambda res: [
            (e.family, e.rank, e.backend, e.start, e.detail)
            for e in res.shared["comm_logger"].events
        ]
        a = trace(self.run(spec, n_ops=10))
        b = trace(self.run(spec, n_ops=10))
        assert a == b
        other = transient(prob=0.5)
        other.seed = 8
        assert trace(self.run(other, n_ops=10)) != a

    def test_exhausted_retries_quarantine_the_backend(self):
        # every attempt fails and the fault outlasts the retry budget:
        # the collective treats the library as dead and fails over
        spec = transient(prob=1.0, max_consecutive=10)
        res = self.run(spec, n_ops=2)
        counts = res.shared["comm_logger"].event_counts()
        assert counts.get("quarantine", 0) > 0
        assert counts.get("failover", 0) > 0
        expected = sum(range(1, 5)) * 4
        for data in res.rank_results:
            assert np.allclose(data, expected)


class TestPermanentFailover:
    def test_failover_completes_not_deadlocks(self):
        world, n_ops = 4, 5
        res = Simulator(world, faults=permanent(at_op=3)).run(
            allreduce_job(["nccl", "mvapich2-gdr"], n_ops=n_ops)
        )
        expected = sum(range(1, world + 1)) * world ** (n_ops - 1)
        for data in res.rank_results:
            assert np.allclose(data, expected)
        logger = res.shared["comm_logger"]
        counts = logger.event_counts()
        # every rank quarantines nccl once, then reroutes each later op
        assert counts["quarantine"] == world
        assert counts["failover"] >= world
        q = next(e for e in logger.events if e.family == "quarantine")
        assert q.backend == "nccl"

    def test_auto_dispatch_avoids_quarantined_backend(self):
        res = Simulator(2, faults=permanent(at_op=1)).run(
            allreduce_job(["nccl", "mvapich2-gdr"], n_ops=3, dispatch="auto")
        )
        assert res.shared["comm_logger"].event_counts()["quarantine"] == 2
        for data in res.rank_results:
            assert np.allclose(data, 3 * 2 ** 2)

    def test_all_backends_failed_raises_backend_error(self):
        with pytest.raises(BackendError, match="permanently failed"):
            Simulator(2, faults=permanent(at_op=1)).run(
                allreduce_job(["nccl"], n_ops=1)
            )

    def test_p2p_transient_reroutes_without_quarantine(self):
        spec = transient(prob=1.0)
        # zero retry budget: every injected fault outlasts it, forcing the
        # reroute path deterministically
        config = MCRConfig(comm_max_retries=0)

        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl", "mvapich2-gdr"], config=config)
            x = ctx.full(8, 5.0) if ctx.rank == 0 else ctx.zeros(8)
            if ctx.rank == 0:
                comm.send("nccl", x, dst=1)
            else:
                comm.recv("nccl", x, src=0)
            comm.finalize()
            return x.data.copy()

        res = Simulator(2, faults=spec).run(main)
        for data in res.rank_results:
            assert np.allclose(data, 5.0)
        counts = res.shared["comm_logger"].event_counts()
        assert counts.get("quarantine", 0) == 0  # single-op reroute only
        assert counts.get("failover", 0) > 0


class TestDeadlines:
    def test_missing_rank_times_out_with_diagnostics(self):
        # host-synchronized backend: the synchronous wait blocks on the
        # rendezvous flag, where the deadline is enforced (stream-aware
        # sync ops gate the stream instead and time out at wait()s)
        config = MCRConfig(op_deadline_us=500.0)

        def main(ctx):
            comm = MCRCommunicator(ctx, ["mvapich2-gdr"], config=config)
            if ctx.rank == 0:
                comm.all_reduce("mvapich2-gdr", ctx.zeros(16))
            else:
                ctx.sleep(50_000.0)  # never posts
            comm.finalize()

        with pytest.raises(CommTimeoutError) as err:
            Simulator(2).run(main)
        assert err.value.rank == 0
        assert err.value.deadline_us == 500.0
        assert "never posted" in err.value.detail
        assert "ranks [1]" in err.value.detail

    def test_async_handle_deadline(self):
        config = MCRConfig(op_deadline_us=300.0)

        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl"], config=config)
            if ctx.rank == 0:
                h = comm.all_reduce("nccl", ctx.zeros(16), async_op=True)
                h.synchronize()
            else:
                ctx.sleep(50_000.0)
            comm.finalize()

        with pytest.raises(CommTimeoutError, match="never posted"):
            Simulator(2).run(main)

    def test_healthy_job_unaffected_by_deadline(self):
        world, n_ops = 4, 3
        base = allreduce_job(["nccl"], n_ops=n_ops)
        no_deadline = Simulator(world).run(base)
        with_deadline = Simulator(world).run(
            allreduce_job(["nccl"], n_ops=n_ops,
                          config=MCRConfig(op_deadline_us=1e9))
        )
        assert with_deadline.elapsed_us == no_deadline.elapsed_us
        for a, b in zip(no_deadline.rank_results, with_deadline.rank_results):
            assert np.allclose(a, b)


class TestHealthyPathUnchanged:
    def test_no_faults_bit_identical_timing(self):
        main = allreduce_job(["nccl", "mvapich2-gdr"], n_ops=4)
        plain = Simulator(4).run(main)
        gated = Simulator(4, faults=FaultSpec()).run(main)
        assert plain.elapsed_us == gated.elapsed_us
        for a, b in zip(plain.rank_results, gated.rank_results):
            assert np.array_equal(a, b)
