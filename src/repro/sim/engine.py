"""Cooperative-thread discrete-event engine.

Each simulated rank runs user code on a dedicated OS thread, but a baton
protocol guarantees **exactly one** thread executes at any moment, so no
user-visible locking is needed and execution is fully deterministic.
Virtual time (microseconds, float) only advances when the running thread
blocks on a future event; ties are broken FIFO by a sequence counter.

This is the classic process-interaction DES style (as in SimPy), using
threads instead of generators so that deeply nested user code — a whole
training loop calling into MCR-DL collectives — can block naturally
anywhere in its call stack, exactly like an MPI program.

The baton is one ``os.pipe()`` per process, created by :meth:`Engine.run`
and closed after the join: parking is a blocking one-byte ``os.read``,
waking is a one-byte ``os.write``.  Both release the GIL *before* the
system call, so the woken thread can take the GIL at once; a raw lock's
``release()`` wakes its waiter while the GIL is still held, which costs
extra context switches.  On a 2-vCPU Xeon a 64-thread baton ring took
2.8-4.7 us and 1.3-1.4 context switches per pipe handoff, against
7.1-8.5 us and about 4 switches for raw locks.  :attr:`Engine.handoffs`
counts the cross-thread passes exactly, so a change that adds a park
per operation is visible on any host.

Only one thread ever runs, so a second CPU only adds cross-core wake-
ups: :meth:`Engine.run` pins the calling thread to the CPU it is on
while it starts the rank threads (which inherit that one-CPU mask) and
restores the caller's mask right after.  Where ``sched_setaffinity`` or
``/proc/thread-self/stat`` is missing, it leaves the mask alone.

Two direct-handoff fast paths avoid the cross-thread round-trip entirely
when the next event belongs to the process that is already running:

* :meth:`Engine.wait_until` advances the clock inline when no other
  event is scheduled before the requested wake time (no heap churn, no
  pipe operations);
* :meth:`_Proc.park` continues inline when the popped event is its own
  (same pop order as a schedule/park round-trip, minus the baton).

Neither fast path reorders events: both fire only when the parking
process would have been popped next anyway, so simulated timestamps are
identical with and without them.
"""

from __future__ import annotations

import itertools
import os
import threading
from heapq import heappop, heappush
from typing import Callable, Optional

from repro.sim.errors import DeadlockError, SimAborted, SimError


#: the one byte written to a baton pipe to wake its process
_WAKE = b"\x00"


def _pin_to_current_cpu() -> Optional[set]:
    """Pin the calling thread to the CPU it is running on and return its
    previous mask; return None (and change nothing) where the platform
    has no ``sched_setaffinity`` or ``/proc/thread-self/stat``."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        mask = os.sched_getaffinity(0)
        if len(mask) == 1:
            return None
        with open("/proc/thread-self/stat", "rb") as fh:
            # field 39 is the CPU; the command name (field 2) may hold spaces
            cpu = int(fh.read().rsplit(b")", 1)[1].split()[36])
        if cpu in mask:
            os.sched_setaffinity(0, {cpu})
            return mask
    except (OSError, ValueError, IndexError):
        pass
    return None


class _Kill(BaseException):
    """Internal: unwinds a parked rank thread during teardown.

    Derives from BaseException so user ``except Exception`` blocks cannot
    swallow it.
    """


class Flag:
    """A one-shot completion signal with a *timestamped* fire.

    Work handles and rendezvous completions fire flags with the simulated
    time at which the underlying operation finishes (possibly in the
    future relative to the firing rank's clock); waiters resume at
    ``max(their local now, ready_time)``.
    """

    __slots__ = ("_engine", "ready_time", "_waiters", "label", "callbacks")

    def __init__(self, engine: "Engine", label: str = "flag"):
        self._engine = engine
        self.ready_time: Optional[float] = None
        self._waiters: list["_Proc"] = []
        self.label = label
        #: called synchronously at fire time with no arguments (used by
        #: deferred logging; keep callbacks free of blocking calls)
        self.callbacks: list[Callable[[], None]] = []

    @property
    def is_set(self) -> bool:
        return self.ready_time is not None

    def fire(self, ready_time: float) -> None:
        """Mark complete at ``ready_time`` and schedule all waiters."""
        if self.ready_time is not None:
            raise SimError(f"flag {self.label!r} fired twice")
        if ready_time < 0:
            raise SimError(f"flag {self.label!r} fired at negative time {ready_time}")
        self.ready_time = ready_time
        if self._waiters:
            engine = self._engine
            wake = max(ready_time, engine.now)
            for proc in self._waiters:
                engine._schedule(wake, proc)
            self._waiters.clear()
        for cb in self.callbacks:
            cb()
        self.callbacks.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Flag({self.label!r}, ready={self.ready_time})"


class _Proc:
    """One simulated process (rank or helper) backed by an OS thread.

    ``rfd``/``wfd`` are the two ends of its baton pipe (open only during
    :meth:`Engine.run`, -1 otherwise): parking is a blocking one-byte read, waking is a
    one-byte write.  A byte written during teardown may never be read;
    that is harmless because every wake after a failure raises
    :class:`_Kill`.
    """

    __slots__ = (
        "engine",
        "name",
        "fn",
        "rfd",
        "wfd",
        "thread",
        "finished",
        "blocked_on",
        "result",
        "epoch",
    )

    def __init__(self, engine: "Engine", name: str, fn: Callable[[], object]):
        self.engine = engine
        self.name = name
        self.fn = fn
        self.rfd = self.wfd = -1
        self.finished = False
        self.blocked_on: Optional[str] = None
        self.result: object = None
        #: dispatch generation; heap entries carry the epoch they were
        #: scheduled under, and entries from an older epoch are skipped
        #: (lazy cancellation — see wait_flag_deadline)
        self.epoch = 0
        self.thread = threading.Thread(target=self._body, name=f"sim-{name}", daemon=True)

    def _body(self) -> None:
        os.read(self.rfd, 1)  # parked until first dispatched
        if self.engine._failure is not None:
            return
        try:
            self.result = self.fn()
        except _Kill:
            return
        except BaseException as exc:  # propagate user errors to run()
            self.finished = True
            self.engine._fail(exc)
            return
        self.finished = True
        self.engine._proc_exited(self)

    def park(self, reason: str) -> None:
        """Hand the baton off and sleep until re-scheduled.

        Direct handoff: when the earliest scheduled event is this very
        process, ``_dispatch_next`` returns True and no pipe round-trip
        happens — execution continues inline with the clock advanced.
        """
        self.blocked_on = reason
        if not self.engine._dispatch_next(self):
            os.read(self.rfd, 1)
        self.blocked_on = None
        if self.engine._failure is not None:
            raise _Kill()


class Engine:
    """The virtual clock and scheduler.

    Not reentrant: one simulation per Engine. Time is in microseconds.
    """

    def __init__(self, max_events: int = 200_000_000):
        self.now: float = 0.0
        self._heap: list[tuple[float, int, _Proc, int]] = []
        self._seq = itertools.count()
        self._procs: list[_Proc] = []
        self._failure: Optional[BaseException] = None
        self._main_baton = threading.Event()
        self._started = False
        self._events_dispatched = 0
        self._max_events = max_events
        self._current: Optional[_Proc] = None
        #: baton passes to another thread (inline continues and teardown
        #: wakes are not counted); deterministic for a given program
        self.handoffs = 0

    def stats(self) -> dict:
        """Engine-level counters for observability exports."""
        return {
            "events_dispatched": self._events_dispatched,
            "processes": len(self._procs),
            "now_us": self.now,
        }

    # -- process management -------------------------------------------

    def add_process(self, name: str, fn: Callable[[], object]) -> None:
        if self._started:
            raise SimError("cannot add processes after run() started")
        self._procs.append(_Proc(self, name, fn))

    def run(self) -> float:
        """Run to completion; return final simulated time (microseconds)."""
        if self._started:
            raise SimError("Engine.run() called twice")
        self._started = True
        if not self._procs:
            return self.now
        try:
            for proc in self._procs:
                # two fds per rank: a 512-rank job needs ``ulimit -n`` > 1024
                proc.rfd, proc.wfd = os.pipe()
            # rank threads inherit the one-CPU mask; the caller gets its
            # own mask back as soon as they are started
            mask = _pin_to_current_cpu()
            try:
                for proc in self._procs:
                    proc.thread.start()
                    self._schedule(0.0, proc)
            finally:
                if mask is not None:
                    os.sched_setaffinity(0, mask)
            self._dispatch_next()
            self._main_baton.wait()
        except BaseException as exc:
            # e.g. out of fds or a thread that failed to start: unwind the
            # parked threads before their pipes are closed
            self._fail(exc)
            raise
        finally:
            for proc in self._procs:
                if proc.thread.ident is not None:
                    proc.thread.join(timeout=30.0)
            for proc in self._procs:
                if proc.wfd >= 0:
                    os.close(proc.rfd)
                    os.close(proc.wfd)
                    proc.rfd = proc.wfd = -1
        for proc in self._procs:
            if proc.thread.is_alive():  # pragma: no cover - defensive
                raise SimError(f"simulation thread {proc.name} failed to exit")
        if self._failure is not None:
            raise self._failure
        return self.now

    # -- scheduling core (only ever touched by the single running
    #    thread, or by main before dispatch starts) --------------------

    def _schedule(self, time: float, proc: _Proc) -> None:
        heappush(self._heap, (time, next(self._seq), proc, proc.epoch))

    def _dispatch_next(self, parking: Optional[_Proc] = None) -> bool:
        """Hand the baton to the earliest scheduled process (or finish).

        Returns True when the caller (``parking``) must *not* block: the
        popped event was its own (direct handoff — continue inline) or the
        simulation is tearing down (the caller re-checks ``_failure`` and
        raises).  Returns False after waking another process.
        """
        if self._failure is not None:
            # teardown already in progress; wake main.
            self._main_baton.set()
            return True
        self._events_dispatched += 1
        if self._events_dispatched > self._max_events:
            self._fail(SimError(f"event budget exceeded ({self._max_events})"))
            return True
        while self._heap:
            time, _, proc, epoch = heappop(self._heap)
            if epoch != proc.epoch:
                # stale entry: the process was already woken through a
                # different event (e.g. a flag fired before its deadline
                # timer, or vice versa) — skip it.
                continue
            if time > self.now:
                self.now = time
            self._current = proc
            proc.epoch += 1
            if proc is parking:
                return True
            self.handoffs += 1
            os.write(proc.wfd, _WAKE)
            return False
        live = [p for p in self._procs if not p.finished]
        if not live:
            self._main_baton.set()
            return False
        self._fail(DeadlockError({p.name: p.blocked_on or "?" for p in live}))
        return True

    def _proc_exited(self, proc: _Proc) -> None:
        self._dispatch_next()

    def _fail(self, exc: BaseException) -> None:
        """Abort the simulation: record the error, unwind every thread."""
        if self._failure is None:
            self._failure = exc
        for proc in self._procs:
            # parked threads wake, see _failure, and raise _Kill
            if not proc.finished and proc.wfd >= 0:
                os.write(proc.wfd, _WAKE)
        self._main_baton.set()

    # -- blocking primitives (called from rank threads) -----------------

    def current_proc(self) -> _Proc:
        proc = self._current
        if proc is None:  # pragma: no cover - defensive
            raise SimError("no process is running")
        return proc

    def wait_until(self, time: float, reason: str = "timer") -> None:
        """Block the calling process until virtual ``time``."""
        proc = self._current
        if proc is None:  # pragma: no cover - defensive
            raise SimError("no process is running")
        if time <= self.now:
            return
        heap = self._heap
        if not heap or time < heap[0][0]:
            # direct handoff to self: no other event can run before
            # ``time``, so a schedule/park round-trip would pop this very
            # process — advance the clock inline instead.  The event
            # budget is still charged so runaway single-process loops are
            # caught exactly as before.
            self._events_dispatched += 1
            if self._events_dispatched > self._max_events:
                self._fail(SimError(f"event budget exceeded ({self._max_events})"))
                raise _Kill()
            self.now = time
            return
        self._schedule(time, proc)
        proc.park(reason)

    def sleep(self, duration: float, reason: str = "sleep") -> None:
        if duration < 0:
            raise SimError(f"negative sleep {duration}")
        self.wait_until(self.now + duration, reason)

    def wait_flag(self, flag: Flag, reason: Optional[str] = None) -> None:
        """Block until ``flag`` fires; resume at its ready_time."""
        ready = flag.ready_time
        if ready is not None:
            # already fired: either a pure time advance or a no-op
            if ready > self.now:
                self.wait_until(ready, reason or flag.label)
            return
        proc = self.current_proc()
        flag._waiters.append(proc)
        proc.park(reason or flag.label)

    def wait_flag_deadline(
        self, flag: Flag, deadline: float, reason: Optional[str] = None
    ) -> bool:
        """Block until ``flag`` fires or virtual ``deadline`` passes.

        Returns True when the flag completed at or before ``deadline``
        (the caller resumes at the usual wake time); returns False on
        timeout (the caller resumes at ``deadline`` and is no longer
        registered as a waiter, so a later fire cannot wake it).

        Implemented with *two* heap entries — the deadline timer and the
        eventual flag wake — relying on epoch-based lazy cancellation in
        :meth:`_dispatch_next` to discard whichever loses the race.
        """
        ready = flag.ready_time
        if ready is not None:
            if ready <= deadline:
                if ready > self.now:
                    self.wait_until(ready, reason or flag.label)
                return True
            if deadline > self.now:
                self.wait_until(deadline, reason or flag.label)
            return False
        if deadline <= self.now:
            return False
        proc = self.current_proc()
        flag._waiters.append(proc)
        self._schedule(deadline, proc)
        proc.park(reason or flag.label)
        ready = flag.ready_time
        if ready is not None and ready <= deadline:
            return True
        # timed out (or the flag fired past the deadline): deregister so
        # a later fire cannot deliver a spurious wake into an unrelated
        # park of this process.
        try:
            flag._waiters.remove(proc)
        except ValueError:
            pass
        return False

    def new_flag(self, label: str = "flag") -> Flag:
        return Flag(self, label)
