"""Communication logging (paper §V-E).

Every MCR-DL operation is recorded with its family, backend, wire size,
and completion interval.  The paper uses exactly this extension to
generate the communication breakdowns of Figure 1 and Figure 12.

The log stores nothing of its own: it appends ``kind="comm"`` and
``kind="fault"`` :class:`~repro.obs.metrics.ObsEvent` entries to the
job's event store and reads them back (see
:class:`~repro.obs.metrics.EventView`).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import TYPE_CHECKING, Optional

from repro.obs.metrics import EventView, MetricsRegistry, ObsEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.process import RankContext


class CommLogger(EventView):
    """Job-wide communication log (shared across all ranks).

    ``records`` are the job's ``kind="comm"`` events; ``events`` are its
    retry/failover/quarantine ``kind="fault"`` events (the injector's
    ``injected.*`` events belong to the registry, not to this log).
    """

    def __init__(
        self,
        world_size: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(registry)
        #: job world size; per-job averages divide by it, not by however
        #: many ranks happened to appear in the filtered records
        self.world_size = world_size

    @classmethod
    def shared(cls, ctx: "RankContext") -> "CommLogger":
        """The per-job logger instance, created on first use."""
        logger = ctx.shared.get("comm_logger")
        if logger is None:
            logger = ctx.shared["comm_logger"] = cls(
                ctx.world_size, ctx.shared.get("obs")
            )
        return logger

    @property
    def records(self) -> list[ObsEvent]:
        return [e for e in self._own() if e.kind == "comm"]

    @property
    def events(self) -> list[ObsEvent]:
        return [
            e for e in self._own()
            if e.kind == "fault" and not e.family.startswith("injected.")
        ]

    def log(
        self,
        rank: int,
        family: str,
        backend: str,
        nbytes: int,
        start: float,
        end: float,
        async_op: bool,
        step: int = -1,
        dispatch: str = "explicit",
        stream: str = "",
        phase: str = "",
    ) -> None:
        self._events.append(
            ObsEvent(
                "comm", rank, stream, backend, family, nbytes, step,
                start, end, dispatch, phase, async_op,
            )
        )

    # -- fault events (retry / failover / quarantine) -----------------------

    def log_event(
        self, kind: str, rank: int, backend: str, time_us: float, detail: str = ""
    ) -> None:
        self._events.append(
            ObsEvent(
                "fault", rank, "", backend, kind, 0, self._step(rank),
                time_us, time_us, detail,
            )
        )

    def event_counts(self) -> dict[str, int]:
        return dict(Counter(e.family for e in self.events))

    # -- aggregation (Figures 1 & 12) ---------------------------------------

    def _per_rank_divisor(self, observed: set) -> int:
        # divide by the true world size: ranks that logged nothing for a
        # given family/backend still count in a per-rank average (dividing
        # by observed ranks only inflates the result).  Loggers built
        # without a world size (direct construction) keep the observed-
        # rank behavior.
        if self.world_size is not None:
            return self.world_size
        return len(observed)

    def _total_time_by(self, attr: str, rank: Optional[int]) -> dict[str, float]:
        sums: dict[str, float] = defaultdict(float)
        ranks = set()
        for r in self.records:
            if rank is not None and r.rank != rank:
                continue
            sums[getattr(r, attr)] += r.duration
            ranks.add(r.rank)
        if rank is None and ranks:
            divisor = self._per_rank_divisor(ranks)
            return {k: v / divisor for k, v in sums.items()}
        return dict(sums)

    def total_time_by_family(self, rank: Optional[int] = None) -> dict[str, float]:
        """Summed durations per op family (one rank, or per-rank average
        over the whole job)."""
        return self._total_time_by("family", rank)

    def total_time_by_backend(self, rank: Optional[int] = None) -> dict[str, float]:
        return self._total_time_by("backend", rank)

    def op_counts(self) -> dict[str, int]:
        return dict(Counter(r.family for r in self.records))

    def bytes_by_family(self) -> dict[str, int]:
        sums: dict[str, int] = defaultdict(int)
        for r in self.records:
            sums[r.family] += r.nbytes
        return dict(sums)

    def clear(self) -> None:
        """Drop this job's comm and fault events (the trainer calls this
        at the warmup/measure boundary).  Filters the shared list in
        place: the job's Tracer reads the same list."""
        kept = [e for e in self._own() if e.kind not in ("comm", "fault")]
        self._events[self._base:self._stop] = kept
        if self._stop is not None:
            self._stop = self._base + len(kept)
