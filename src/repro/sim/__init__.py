"""Discrete-event simulation substrate.

This package replaces the CUDA runtime and the physical cluster with a
deterministic discrete-event simulation:

* :class:`~repro.sim.engine.Engine` — virtual clock + cooperative rank
  threads (exactly one runs at a time, like an MPI job under a
  deterministic scheduler).
* :class:`~repro.sim.streams.GPU` / :class:`~repro.sim.streams.Stream` /
  :class:`~repro.sim.streams.CudaEvent` — the stream/event ordering
  semantics MCR-DL's synchronization design (paper §V-C/V-D, Fig. 4/5)
  is built on.
* :class:`~repro.sim.simulator.Simulator` — SPMD entry point: runs the
  same user function on every rank, returns per-rank results plus the
  simulated elapsed time and an optional timeline trace.

Deadlocks are *real* here: if every rank is blocked and no timed event
is pending, the engine raises :class:`~repro.sim.errors.DeadlockError`
with per-rank diagnostics.
"""

from repro.sim.errors import SimError, DeadlockError, SimAborted
from repro.sim.engine import Engine, Flag
from repro.sim.streams import GPU, Stream, CudaEvent
from repro.sim.process import RankContext
from repro.sim.trace import Tracer
from repro.sim.simulator import Simulator, SimResult
from repro.sim.faults import (
    BackendFault,
    FaultInjector,
    FaultSpec,
    LinkFault,
    LinkSchedule,
)

__all__ = [
    "BackendFault",
    "FaultInjector",
    "FaultSpec",
    "LinkFault",
    "LinkSchedule",
    "SimError",
    "DeadlockError",
    "SimAborted",
    "Engine",
    "Flag",
    "GPU",
    "Stream",
    "CudaEvent",
    "RankContext",
    "Tracer",
    "Simulator",
    "SimResult",
]
