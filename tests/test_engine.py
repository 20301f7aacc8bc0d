"""Discrete-event engine: clock, scheduling, flags, deadlocks, errors,
baton handoffs and the resources (pipes, CPU mask) a run holds."""

import os

import pytest

from repro.sim import DeadlockError, Engine, Flag, Simulator
from repro.sim import simulator as simulator_mod
from repro.sim.errors import SimError


def run_procs(*fns, max_events=1_000_000):
    engine = Engine(max_events=max_events)
    for i, fn in enumerate(fns):
        engine.add_process(f"p{i}", lambda fn=fn, e=engine: fn(e))
    return engine.run()


class TestClock:
    def test_starts_at_zero_and_advances(self):
        times = []

        def body(e):
            times.append(e.now)
            e.sleep(10)
            times.append(e.now)

        assert run_procs(body) == 10.0
        assert times == [0.0, 10.0]

    def test_sleep_zero_keeps_time(self):
        def body(e):
            e.sleep(0)
            assert e.now == 0.0

        run_procs(body)

    def test_negative_sleep_rejected(self):
        def body(e):
            e.sleep(-1)

        with pytest.raises(SimError):
            run_procs(body)

    def test_wait_until_past_is_noop(self):
        def body(e):
            e.sleep(50)
            e.wait_until(10)
            assert e.now == 50

        run_procs(body)

    def test_interleaving_is_time_ordered(self):
        order = []

        def fast(e):
            e.sleep(5)
            order.append("fast")

        def slow(e):
            e.sleep(20)
            order.append("slow")

        run_procs(slow, fast)
        assert order == ["fast", "slow"]

    def test_fifo_tiebreak_at_equal_times(self):
        order = []

        def make(tag):
            def body(e):
                e.sleep(10)
                order.append(tag)

            return body

        run_procs(make("a"), make("b"), make("c"))
        assert order == ["a", "b", "c"]


class TestFlags:
    def test_fire_future_time_resumes_at_ready(self):
        def producer(e):
            e.sleep(10)
            flags["f"].fire(100.0)

        def consumer(e):
            e.wait_flag(flags["f"])
            assert e.now == 100.0

        engine = Engine()
        flags = {"f": engine.new_flag("f")}
        engine.add_process("prod", lambda: producer(engine))
        engine.add_process("cons", lambda: consumer(engine))
        assert engine.run() == 100.0

    def test_wait_already_fired_past(self):
        def body(e):
            f = e.new_flag()
            f.fire(0.0)
            e.sleep(5)
            e.wait_flag(f)
            assert e.now == 5.0

        run_procs(body)

    def test_double_fire_rejected(self):
        def body(e):
            f = e.new_flag()
            f.fire(1.0)
            f.fire(2.0)

        with pytest.raises(SimError):
            run_procs(body)

    def test_negative_fire_rejected(self):
        def body(e):
            e.new_flag().fire(-1.0)

        with pytest.raises(SimError):
            run_procs(body)

    def test_callbacks_invoked_once(self):
        calls = []

        def body(e):
            f = e.new_flag()
            f.callbacks.append(lambda: calls.append(1))
            f.fire(0.0)

        run_procs(body)
        assert calls == [1]

    def test_multiple_waiters_all_resume(self):
        resumed = []
        engine = Engine()
        flag = engine.new_flag("x")

        def waiter(e):
            e.wait_flag(flag)
            resumed.append(e.now)

        def firer(e):
            e.sleep(3)
            flag.fire(7.0)

        engine.add_process("w1", lambda: waiter(engine))
        engine.add_process("w2", lambda: waiter(engine))
        engine.add_process("f", lambda: firer(engine))
        engine.run()
        assert resumed == [7.0, 7.0]


class TestFailures:
    def test_deadlock_detected_with_diagnostics(self):
        def body(e):
            e.wait_flag(e.new_flag("never"), reason="stuck-on-x")

        with pytest.raises(DeadlockError) as err:
            run_procs(body, body)
        assert "stuck-on-x" in str(err.value)

    def test_user_exception_propagates(self):
        def bad(e):
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            run_procs(bad)

    def test_other_ranks_unwound_after_failure(self):
        def bad(e):
            e.sleep(1)
            raise ValueError("boom")

        def waiter(e):
            e.wait_flag(e.new_flag("never"))

        with pytest.raises(ValueError):
            run_procs(bad, waiter)  # must not hang

    def test_event_budget(self):
        def spinner(e):
            while True:
                e.sleep(1)

        with pytest.raises(SimError, match="event budget"):
            run_procs(spinner, max_events=100)

    def test_run_twice_rejected(self):
        engine = Engine()
        engine.add_process("p", lambda: None)
        engine.run()
        with pytest.raises(SimError):
            engine.run()

    def test_add_process_after_start_rejected(self):
        engine = Engine()
        engine.add_process("p", lambda: None)
        engine.run()
        with pytest.raises(SimError):
            engine.add_process("late", lambda: None)

    def test_empty_engine_runs(self):
        assert Engine().run() == 0.0


class TestHandoffs:
    """``Engine.handoffs`` counts baton passes to another thread.  The
    pinned values are those of the raw-lock baton this engine replaced,
    so a change that adds a park per op fails here on any host."""

    def test_engine_program_exact(self):
        engine = Engine()
        flag = engine.new_flag("f")

        def p0():
            engine.sleep(1)
            flag.fire(engine.now + 5)
            engine.sleep(10)

        def p1():
            engine.wait_flag(flag)
            engine.sleep(2)

        def p2():
            for _ in range(8):  # the last sleeps continue inline
                engine.sleep(3)
            # parks alone: the deadline pops p2 itself, an inline continue
            assert not engine.wait_flag_deadline(engine.new_flag("x"), engine.now + 4)

        for i, fn in enumerate((p0, p1, p2)):
            engine.add_process(f"p{i}", fn)
        assert engine.run() == 28.0
        assert engine.handoffs == 11
        assert engine.stats()["events_dispatched"] == 17

    def test_collective_program_exact(self, monkeypatch):
        from repro.cluster import lassen
        from repro.core import MCRCommunicator

        made = []

        class Recording(Engine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(simulator_mod, "Engine", Recording)

        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl", "mvapich2-gdr"])
            for backend in ("nccl", "mvapich2-gdr", "nccl"):
                comm.all_reduce(backend, ctx.virtual_tensor(1 << 16))
            comm.synchronize()
            comm.finalize()

        Simulator(4, system=lassen()).run(main)
        (engine,) = made
        assert engine.handoffs == 32
        assert engine.stats()["events_dispatched"] == 33

    def test_not_part_of_stats(self):
        # stats() feeds the metrics export, which is pinned byte-for-byte
        engine = Engine()
        engine.add_process("p", lambda: engine.sleep(1))
        engine.run()
        assert "handoffs" not in engine.stats()


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
class TestBatonPipes:
    def _runs(self):
        def sleeper(e):
            e.sleep(1)

        def stuck(e):
            e.wait_flag(e.new_flag("never"))

        def bad(e):
            e.sleep(1)
            raise ValueError("boom")

        run_procs(sleeper, sleeper)
        with pytest.raises(DeadlockError):
            run_procs(stuck, stuck)
        with pytest.raises(ValueError):
            run_procs(bad, stuck)
        never_run = Engine()
        never_run.add_process("idle", lambda: None)

    def test_every_exit_path_closes_its_pipes(self):
        self._runs()  # warm up anything opened once per process
        before = _open_fds()
        for _ in range(5):
            self._runs()
        assert _open_fds() == before

    def test_running_out_of_fds_closes_the_pipes_it_made(self):
        resource = pytest.importorskip("resource")
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        run_procs(lambda e: e.sleep(1))  # warm up
        before = _open_fds()
        engine = Engine()
        for i in range(16):  # 32 fds: only some of the pipes fit
            engine.add_process(f"p{i}", lambda: engine.sleep(1))
        # the fd limit bounds fd numbers: leave about 11 numbers free
        taken = {int(fd) for fd in os.listdir("/proc/self/fd")}
        limit = free = 0
        while free < 11:
            free += limit not in taken
            limit += 1
        resource.setrlimit(resource.RLIMIT_NOFILE, (limit, hard))
        try:
            with pytest.raises(OSError):
                engine.run()
        finally:
            resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
        assert _open_fds() == before


#: the mask before any engine ran here (pytest imports every test
#: module before it runs the first test)
_START_MASK = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None

needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity")
    or not hasattr(os, "sched_setaffinity")
    or not os.path.exists("/proc/thread-self/stat"),
    reason="needs sched_{get,set}affinity and /proc/thread-self",
)


@needs_affinity
class TestCpuPinning:
    def test_caller_mask_restored_after_success_and_failure(self):
        mask = _START_MASK
        os.sched_setaffinity(0, mask)  # in case an earlier run leaked a pin
        run_procs(lambda e: e.sleep(1), lambda e: e.sleep(2))
        assert os.sched_getaffinity(0) == mask

        def bad(e):
            raise ValueError("boom")

        with pytest.raises(ValueError):
            run_procs(bad, lambda e: e.sleep(1))
        assert os.sched_getaffinity(0) == mask

    def test_ranks_run_on_one_cpu_of_the_callers_mask(self):
        mask = _START_MASK
        os.sched_setaffinity(0, mask)
        seen = []

        def body(e):
            seen.append(os.sched_getaffinity(0))
            e.sleep(1)
            seen.append(os.sched_getaffinity(0))

        run_procs(body, body)
        assert len(seen) == 4
        assert len(seen[0]) == 1 and seen[0] <= mask
        assert all(s == seen[0] for s in seen)


class TestSimulatorFacade:
    def test_rank_results_collected(self):
        res = Simulator(3).run(lambda ctx: ctx.rank * 10)
        assert res.rank_results == [0, 10, 20]

    def test_elapsed_units(self):
        res = Simulator(1).run(lambda ctx: ctx.sleep(2500))
        assert res.elapsed_us == 2500
        assert res.elapsed_ms == 2.5
        assert res.elapsed_s == 0.0025

    def test_world_size_validated_against_system(self):
        from repro.cluster import thetagpu

        with pytest.raises(ValueError):
            Simulator(24 * 8 + 1, system=thetagpu())

    def test_args_passed_through(self):
        res = Simulator(2).run(lambda ctx, a, b=0: a + b + ctx.rank, 5, b=1)
        assert res.rank_results == [6, 7]

    def test_per_rank_rng_deterministic_and_distinct(self):
        def body(ctx):
            return float(ctx.rand(4).data[0])

        r1 = Simulator(2, seed=7).run(body).rank_results
        r2 = Simulator(2, seed=7).run(body).rank_results
        assert r1 == r2
        assert r1[0] != r1[1]


class TestEngineScalability:
    def test_256_rank_job_completes_quickly(self):
        """Guard against scheduler regressions: a 256-rank job with a few
        collectives per rank must stay interactive (the Fig-8 sweeps run
        thousands of these)."""
        import time

        from repro.cluster import lassen
        from repro.core import MCRCommunicator

        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl"])
            for _ in range(4):
                h = comm.all_reduce("nccl", ctx.virtual_tensor(1 << 20), async_op=True)
                h.wait()
            comm.finalize()

        start = time.perf_counter()
        Simulator(256, system=lassen()).run(main)
        assert time.perf_counter() - start < 30.0
