"""The unified observability event schema and its single store.

The paper's communication-logging extension (§V-E) and its
compute-vs-communication breakdowns (Figures 1 and 12) presuppose one
coherent view of what every rank, stream, and backend did.  Every
producer records one :class:`ObsEvent` into one list: the
:class:`MetricsRegistry`'s ``events`` when the job has a registry.  The
:class:`~repro.ext.logging_ext.CommLogger` and the
:class:`~repro.sim.trace.Tracer` are :class:`EventView` read views over
that list, and the registry's counters and histograms are derived from
it on read.

Design constraints (enforced by ``scripts/perfgate.py``):

* **zero cost when off** — no registry is installed unless the caller
  opts in (``Simulator(observe=...)`` / ``Trainer(metrics=True)``), and
  every producer guards its emission behind a single ``is None`` check;
* **zero simulated-time cost when on** — observers only *record*; they
  never sleep, never advance the virtual clock, and never change a
  dispatch decision.  Instrumented runs produce byte-identical simulated
  timings (the perf gate bounds any drift at 5%, mirroring the paper's
  C3 overhead budget; the actual overhead is exactly zero).
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Optional

#: ``step`` value for events recorded outside any marked training step
UNATTRIBUTED_STEP = -1


@dataclass(slots=True)
class ObsEvent:
    """One observed interval or point event, in the unified schema.

    Every producer (comm logger, tracer, fault injector, fusion engine,
    tuner) tags its events with the same coordinate system so exporters
    can join them: ``(rank, stream, backend, op family, bytes, step)``.

    ``kind`` selects the producer namespace:

    * ``"comm"``   — one completed communication op (family = op family,
      ``detail`` = dispatch decision: ``explicit``/``auto``/``reroute``);
    * ``"trace"``  — one kernel/comm interval from the tracer
      (family = tracer category, ``detail`` = label);
    * ``"fault"``  — one fault-handling action at ``start`` (family =
      retry/failover/quarantine, or ``injected.<kind>`` from the
      injector);
    * ``"plan"``   — dispatch-plan-cache outcome counts of one
      communicator (``detail`` = hit/miss/invalidate, count in
      ``nbytes``);
    * ``"fusion"`` — one fusion-buffer flush (family = trigger:
      full/timeout/boundary);
    * ``"tuning"`` — one tuning-suite sample (start..end = latency);
    * ``"adapt"``  — one adaptive-dispatch action (family =
      drift/explore/retune/probation, ``detail`` = transition).
    """

    kind: str
    rank: int
    stream: str
    backend: str
    family: str
    nbytes: int
    step: int
    start: float
    end: float
    detail: str = ""
    #: hierarchical decomposition phase for ``kind="comm"`` events:
    #: ``"intra"`` / ``"inter"`` / ``""`` (flat dispatch)
    phase: str = ""
    #: ``kind="comm"`` only: the op was posted non-blocking
    async_op: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_us(spans: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total, cur_start, cur_end = 0.0, 0.0, None
    for start, end in sorted(spans):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


@dataclass(slots=True)
class StepMarker:
    """One training step's window on one rank."""

    rank: int
    step: int
    start: float
    end: Optional[float] = None


class LogHistogram:
    """Log2-bucketed histogram for latencies / sizes.

    Bucket ``e`` counts values in ``(2**(e-1), 2**e]``; values at or
    below 1 land in bucket 0.  Exact mean is kept alongside (``sum`` /
    ``count``), and :meth:`percentile` returns the conservative bucket
    upper bound.
    """

    __slots__ = ("counts", "count", "sum", "min", "max")

    def __init__(self) -> None:
        self.counts: dict[int, int] = defaultdict(int)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def record(self, value: float) -> None:
        e = 0 if value <= 1.0 else math.ceil(math.log2(value))
        self.counts[e] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Upper bound of the bucket containing the p-th percentile.

        ``p=0`` returns the exact tracked minimum: the bucket upper bound
        of the lowest occupied bucket can exceed the true minimum, which
        would make p0 report a value *above* an observed sample.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile {p} not in [0, 100]")
        if not self.count:
            return 0.0
        if p == 0.0:
            return self.min
        target = p / 100.0 * self.count
        seen = 0
        edges = sorted(self.counts)
        for e in edges[:-1]:
            seen += self.counts[e]
            if seen >= target:
                return float(2**e)
        # everything past the second-to-last edge lands in the top bucket;
        # returning it unconditionally avoids an unreachable float-slack
        # fallback after the loop
        return float(2 ** edges[-1])

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": {f"le_2^{e}": self.counts[e] for e in sorted(self.counts)},
        }


class EventView:
    """Read access to one job's slice of a shared event list.

    The slice starts where the list ended when the view was built, and
    after :meth:`close` (called by the Simulator at job end) it stops
    where the list ended then — so the views of several runs that share
    one registry each see only their own run.  Without a registry the
    view owns a private list.
    """

    def __init__(self, registry: Optional["MetricsRegistry"] = None) -> None:
        self._registry = registry
        self._events: list[ObsEvent] = [] if registry is None else registry.events
        self._base = len(self._events)
        self._stop: Optional[int] = None

    def close(self) -> None:
        self._stop = len(self._events)

    def _own(self) -> list[ObsEvent]:
        return self._events[self._base:self._stop]

    def _step(self, rank: int) -> int:
        registry = self._registry
        return UNATTRIBUTED_STEP if registry is None else registry.current_step(rank)


class MetricsRegistry:
    """Job-wide observability: the event store, gauges, and per-rank
    training-step attribution.  Counters and histograms are derived
    from ``events`` on every read.

    One registry is shared by every rank of a simulated job (installed
    into the shared state dict under the ``"obs"`` key by
    :class:`repro.sim.Simulator`); single-threaded execution of the
    discrete-event engine makes it safe without locks.
    """

    def __init__(self) -> None:
        self.gauges: dict[str, float] = {}
        #: the single event store; every producer appends here
        self.events: list[ObsEvent] = []
        #: completed (and in-flight) training-step windows
        self.steps: list[StepMarker] = []
        self._current_step: dict[int, int] = {}
        self._open_steps: dict[int, StepMarker] = {}

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    # -- step attribution -------------------------------------------------

    def begin_step(self, rank: int, step: int, now: float) -> None:
        """Open step ``step`` on ``rank``; subsequent events posted by
        that rank are attributed to it (at *post* time — a non-blocking
        op completing during step N+1 still belongs to the step that
        issued it)."""
        self._current_step[rank] = step
        marker = StepMarker(rank=rank, step=step, start=now)
        self._open_steps[rank] = marker
        self.steps.append(marker)

    def end_step(self, rank: int, now: float) -> None:
        """Close the open step window on ``rank``.  The rank's *current*
        step is intentionally left in place so trailing work (fusion
        flushes, barriers, deferred completions posted between steps) is
        attributed to the step that caused it."""
        marker = self._open_steps.pop(rank, None)
        if marker is not None:
            marker.end = now

    def current_step(self, rank: int) -> int:
        return self._current_step.get(rank, UNATTRIBUTED_STEP)

    # -- the store --------------------------------------------------------

    def observe(self, event: ObsEvent) -> None:
        self.events.append(event)

    def _derive(self) -> tuple[dict[str, float], dict[str, LogHistogram]]:
        """Counters and histograms over every stored event, in order."""
        counters: dict[str, float] = defaultdict(float)
        histograms: dict[str, LogHistogram] = {}

        def hist(name: str) -> LogHistogram:
            h = histograms.get(name)
            if h is None:
                h = histograms[name] = LogHistogram()
            return h

        for event in self.events:
            kind = event.kind
            if kind == "comm":
                fam = event.family
                dur = event.duration
                counters[f"comm.ops.{fam}"] += 1
                counters[f"comm.bytes.{fam}"] += event.nbytes
                counters[f"comm.time_us.{fam}"] += dur
                counters[f"comm.time_us.backend.{event.backend}"] += dur
                counters[f"comm.dispatch.{event.detail or 'explicit'}"] += 1
                if event.phase:
                    counters[f"comm.time_us.phase.{event.phase}"] += dur
                hist(f"comm.latency_us.{fam}").record(dur)
                hist(f"comm.nbytes.{fam}").record(event.nbytes)
            elif kind == "trace":
                # a work total: overlapping intervals are summed, not merged
                counters[f"trace.sum_us.{event.family}"] += event.duration
            elif kind == "plan":
                counters[f"comm.plan.{event.detail}"] += event.nbytes
            elif kind == "fault":
                counters[f"fault.{event.family}"] += 1
            elif kind == "adapt":
                counters[f"tuning.adapt.{event.family}"] += 1
            elif kind == "fusion":
                counters[f"fusion.{event.family}"] += 1
                counters["fusion.bytes"] += event.nbytes
            elif kind == "tuning":
                if event.family == "sweep_cache":
                    # one aggregated event per run and outcome, count in nbytes
                    counters[f"tuning.cache.{event.detail}"] += event.nbytes
                    continue
                counters["tuning.samples"] += 1
                hist(f"tuning.latency_us.{event.family}").record(event.duration)
        return counters, histograms

    @property
    def counters(self) -> dict[str, float]:
        return self._derive()[0]

    @property
    def histograms(self) -> dict[str, LogHistogram]:
        return self._derive()[1]

    # -- aggregation ------------------------------------------------------

    def comm_totals_by_family(self) -> dict[str, dict]:
        """Job-wide (summed over ranks) ops/bytes/time per op family."""
        out: dict[str, dict] = {}
        for event in self.events:
            if event.kind != "comm":
                continue
            cell = out.setdefault(
                event.family, {"ops": 0, "bytes": 0, "time_us": 0.0}
            )
            cell["ops"] += 1
            cell["bytes"] += event.nbytes
            cell["time_us"] += event.duration
        return out

    def per_step_comm(self) -> dict[int, dict]:
        """Per-step communication breakdown (summed over ranks).

        Returns ``{step: {"ops", "bytes", "time_us", "families":
        {family: time_us}}}``; ``UNATTRIBUTED_STEP`` collects everything
        posted outside a marked step.
        """
        out: dict[int, dict] = {}
        for event in self.events:
            if event.kind != "comm":
                continue
            cell = out.setdefault(
                event.step,
                {"ops": 0, "bytes": 0, "time_us": 0.0, "families": defaultdict(float)},
            )
            cell["ops"] += 1
            cell["bytes"] += event.nbytes
            cell["time_us"] += event.duration
            cell["families"][event.family] += event.duration
        for cell in out.values():
            cell["families"] = dict(cell["families"])
        return out

    def fault_counts(self) -> dict[str, int]:
        return dict(Counter(e.family for e in self.events if e.kind == "fault"))

    def snapshot(self) -> dict:
        """Plain-dict view of every derived metric (JSON-serializable)."""
        counters, histograms = self._derive()
        return {
            "counters": dict(counters),
            "gauges": dict(self.gauges),
            "histograms": {k: h.to_dict() for k, h in histograms.items()},
        }
