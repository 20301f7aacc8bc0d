"""Deterministic fault injection for the discrete-event simulation.

Production runtimes must stay correct when a backend, link, or rank
misbehaves — not only when everything is healthy.  This module is the
*injection* side of MCR-DL's graceful-degradation story: a seeded
:class:`FaultSpec` describes stragglers, degraded/flapping links, and
per-backend transient or permanent failures; a :class:`FaultInjector`
turns the spec into deterministic per-operation decisions that the
communicator consults at dispatch time (see ``repro.core.comm``).

Determinism and deadlock-freedom
--------------------------------

Every decision is a pure function of ``(seed, communicator id, backend,
per-backend operation index)``, so the same seed always produces the
same fault trace, and — crucially — every rank of an SPMD program
observes the *same* fault at the *same* logical operation.  That
symmetry is what keeps degraded-mode dispatch deadlock-free (paper
§V-D): when a backend fails permanently, all ranks quarantine it at the
same collective and fail over to the same survivor.

Two deliberate scoping rules preserve the symmetry:

* **permanent** failures trigger on the per-backend *collective* index
  (every rank of a communicator posts the same Nth collective);
* point-to-point operations only see **transient** faults, decided on a
  per-directed-channel index shared by the matched sender/receiver pair.

Link degradation is time-windowed (the duration multiplier is applied
by the single rank that resolves each transfer, so per-rank clock skew
cannot split the decision).
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np

from repro.obs.metrics import ObsEvent

#: domain-separation constants for the seeded decision streams
_BACKEND_STREAM = 0xFA01
_STRAGGLER_STREAM = 0x57A6


def _crc(text: str) -> int:
    """Stable 32-bit hash for seeding (``hash()`` is salted per process)."""
    return zlib.crc32(text.encode("utf-8"))


# ----------------------------------------------------------------------
# spec
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BackendFault:
    """Failure mode of one communication backend.

    ``kind="transient"``: each operation independently faults with
    probability ``prob``; a faulted op fails between 1 and
    ``max_consecutive`` consecutive dispatch attempts before clearing
    (the runtime retries with exponential backoff).

    ``kind="permanent"``: the backend fails hard at its ``at_op``-th
    collective (1-based) and every one after.  ``until_op`` bounds the
    outage: indices at/after it are healthy again, so probation probes
    (see :mod:`repro.core.adaptive`) can observe the recovery and
    un-quarantine the backend.  The runtime quarantines it and fails
    over to a surviving backend either way.
    """

    backend: str
    kind: str  # "transient" | "permanent"
    prob: float = 0.0
    max_consecutive: int = 2
    at_op: Optional[int] = None
    until_op: Optional[int] = None

    def validate(self) -> None:
        if self.kind not in ("transient", "permanent"):
            raise ValueError(f"bad backend fault kind {self.kind!r}")
        if self.kind == "transient":
            if not 0.0 <= self.prob <= 1.0:
                raise ValueError(f"transient fault prob {self.prob} not in [0, 1]")
            if self.max_consecutive < 1:
                raise ValueError("max_consecutive must be >= 1")
        else:
            if self.at_op is None or self.at_op < 1:
                raise ValueError("permanent fault needs at_op >= 1")
            if self.until_op is not None and self.until_op <= self.at_op:
                raise ValueError("permanent fault until_op must be > at_op")


@dataclass(frozen=True)
class LinkFault:
    """A fabric degradation window.

    While active, every transfer's simulated duration is multiplied by
    ``factor`` (>1 = slower).  ``period_us`` > 0 makes the link *flap*:
    within the window it is degraded for the first ``duty`` fraction of
    each period and healthy for the rest.  A non-empty ``backend``
    scopes the window to transfers dispatched through that backend's
    fabric lane (e.g. only NVLink/IB paths driven by ``nccl``), which is
    how a degradation can *reorder* backends instead of slowing all of
    them uniformly; the default ``""`` degrades every backend.
    """

    start_us: float = 0.0
    end_us: float = float("inf")
    factor: float = 2.0
    period_us: float = 0.0
    duty: float = 0.5
    backend: str = ""

    def validate(self) -> None:
        if self.factor <= 0:
            raise ValueError(f"link fault factor must be positive, got {self.factor}")
        if self.end_us <= self.start_us:
            raise ValueError("link fault window is empty")
        if self.period_us < 0:
            raise ValueError("link fault period must be >= 0")
        if not 0.0 < self.duty <= 1.0:
            raise ValueError("link fault duty must be in (0, 1]")

    def factor_at(self, t_us: float, backend: str = "") -> float:
        if self.backend and self.backend != backend:
            return 1.0
        if not self.start_us <= t_us < self.end_us:
            return 1.0
        if self.period_us > 0:
            phase = ((t_us - self.start_us) % self.period_us) / self.period_us
            if phase >= self.duty:
                return 1.0
        return self.factor


class LinkSchedule:
    """Composed duration multiplier over a set of link fault windows."""

    __slots__ = ("faults",)

    def __init__(self, faults: "tuple[LinkFault, ...]"):
        self.faults = tuple(faults)

    def factor_at(self, t_us: float, backend: str = "") -> float:
        factor = 1.0
        for f in self.faults:
            factor *= f.factor_at(t_us, backend)
        return factor


@dataclass
class FaultSpec:
    """Declarative, seeded description of everything that goes wrong."""

    seed: int = 0
    backend_faults: "tuple[BackendFault, ...]" = ()
    link_faults: "tuple[LinkFault, ...]" = ()
    #: explicit {rank: compute slowdown factor} stragglers
    stragglers: dict = field(default_factory=dict)
    #: additionally pick this many random ranks (seeded) as stragglers
    random_stragglers: int = 0
    straggler_scale: float = 1.5

    @property
    def enabled(self) -> bool:
        return bool(
            self.backend_faults
            or self.link_faults
            or self.stragglers
            or self.random_stragglers
        )

    def validate(self) -> None:
        for bf in self.backend_faults:
            bf.validate()
        for lf in self.link_faults:
            lf.validate()
        for rank, scale in self.stragglers.items():
            if scale <= 0:
                raise ValueError(f"straggler scale for rank {rank} must be positive")
        if self.random_stragglers < 0:
            raise ValueError("random_stragglers must be >= 0")
        if self.straggler_scale <= 0:
            raise ValueError("straggler_scale must be positive")

    def straggler_map(self, world_size: int) -> dict:
        """Resolve explicit + seeded-random stragglers for one job."""
        out = {int(r): float(s) for r, s in self.stragglers.items()}
        if self.random_stragglers:
            rng = np.random.default_rng((self.seed, _STRAGGLER_STREAM))
            count = min(self.random_stragglers, world_size)
            for rank in rng.choice(world_size, size=count, replace=False):
                out.setdefault(int(rank), self.straggler_scale)
        return {r: s for r, s in out.items() if 0 <= r < world_size}

    # -- parsing (the CLI --faults spec) --------------------------------

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse a compact fault spec.

        Semicolon-separated clauses::

            seed=7
            backend=nccl:transient:prob=0.2[:max=3]
            backend=mvapich2-gdr:permanent:at=5[:until=50]
            link=START:END:FACTOR[:period=P][:duty=D][:backend=NAME]
                                                        (END may be 'inf')
            straggler=RANK:SCALE
            stragglers=COUNT:SCALE                      (seeded random picks)

        A string starting with ``{`` is parsed as JSON with the same
        field names as the dataclasses.
        """
        text = text.strip()
        if text.startswith("{"):
            return cls._from_json(json.loads(text))
        seed = 0
        backend_faults: list[BackendFault] = []
        link_faults: list[LinkFault] = []
        stragglers: dict = {}
        random_stragglers = 0
        straggler_scale = 1.5
        for clause in filter(None, (c.strip() for c in text.split(";"))):
            key, _, value = clause.partition("=")
            key = key.strip().lower()
            if not value:
                raise ValueError(f"bad fault clause {clause!r}")
            if key == "seed":
                seed = int(value)
            elif key == "backend":
                backend_faults.append(cls._parse_backend(value))
            elif key == "link":
                link_faults.append(cls._parse_link(value))
            elif key == "straggler":
                rank_s, _, scale_s = value.partition(":")
                stragglers[int(rank_s)] = float(scale_s or 1.5)
            elif key == "stragglers":
                count_s, _, scale_s = value.partition(":")
                random_stragglers = int(count_s)
                if scale_s:
                    straggler_scale = float(scale_s)
            else:
                raise ValueError(f"unknown fault clause {key!r} in {clause!r}")
        spec = cls(
            seed=seed,
            backend_faults=tuple(backend_faults),
            link_faults=tuple(link_faults),
            stragglers=stragglers,
            random_stragglers=random_stragglers,
            straggler_scale=straggler_scale,
        )
        spec.validate()
        return spec

    @staticmethod
    def _parse_backend(value: str) -> BackendFault:
        parts = value.split(":")
        if len(parts) < 2:
            raise ValueError(f"bad backend fault {value!r} (need NAME:KIND)")
        name, kind, *opts = parts
        prob, max_consecutive, at_op, until_op = 0.0, 2, None, None
        for opt in opts:
            okey, _, oval = opt.partition("=")
            if okey == "prob":
                prob = float(oval)
            elif okey == "at":
                at_op = int(oval)
            elif okey == "until":
                until_op = int(oval)
            elif okey == "max":
                max_consecutive = int(oval)
            else:
                raise ValueError(f"unknown backend fault option {opt!r}")
        return BackendFault(
            backend=name, kind=kind, prob=prob,
            max_consecutive=max_consecutive, at_op=at_op, until_op=until_op,
        )

    @staticmethod
    def _parse_link(value: str) -> LinkFault:
        parts = value.split(":")
        if len(parts) < 3:
            raise ValueError(f"bad link fault {value!r} (need START:END:FACTOR)")
        start, end, factor = parts[0], parts[1], parts[2]
        kwargs = {
            "start_us": float(start),
            "end_us": float("inf") if end in ("inf", "") else float(end),
            "factor": float(factor.lstrip("x")),
        }
        for opt in parts[3:]:
            okey, _, oval = opt.partition("=")
            if okey == "period":
                kwargs["period_us"] = float(oval)
            elif okey == "duty":
                kwargs["duty"] = float(oval)
            elif okey == "backend":
                from repro.backends.base import canonical_name

                kwargs["backend"] = canonical_name(oval)
            else:
                raise ValueError(f"unknown link fault option {opt!r}")
        return LinkFault(**kwargs)

    @classmethod
    def _from_json(cls, data: dict) -> "FaultSpec":
        spec = cls(
            seed=int(data.get("seed", 0)),
            backend_faults=tuple(
                BackendFault(**bf) for bf in data.get("backend_faults", ())
            ),
            link_faults=tuple(LinkFault(**lf) for lf in data.get("link_faults", ())),
            stragglers={int(r): float(s) for r, s in data.get("stragglers", {}).items()},
            random_stragglers=int(data.get("random_stragglers", 0)),
            straggler_scale=float(data.get("straggler_scale", 1.5)),
        )
        spec.validate()
        return spec


# ----------------------------------------------------------------------
# injector
# ----------------------------------------------------------------------


class FaultDecision(NamedTuple):
    """One operation's injected failure."""

    kind: str  # "transient" | "permanent"
    #: transient only: dispatch attempts that fail before the op clears
    fail_attempts: int


class FaultInjector:
    """Turns a :class:`FaultSpec` into deterministic per-op decisions.

    One injector is shared by every rank of a job (installed into the
    simulation's shared state by :class:`repro.sim.Simulator`); it is
    stateless with respect to callers, so identical queries from
    different ranks always agree.
    """

    def __init__(self, spec: FaultSpec):
        spec.validate()
        self.spec = spec
        from repro.backends.base import canonical_name

        self._by_backend: dict[str, list[BackendFault]] = {}
        for bf in spec.backend_faults:
            self._by_backend.setdefault(canonical_name(bf.backend), []).append(bf)
        self.link_schedule: Optional[LinkSchedule] = (
            LinkSchedule(
                tuple(
                    replace(lf, backend=canonical_name(lf.backend))
                    if lf.backend
                    else lf
                    for lf in spec.link_faults
                )
            )
            if spec.link_faults
            else None
        )
        #: optional :class:`repro.obs.MetricsRegistry` (installed by the
        #: Simulator); injected decisions are reported into the unified
        #: event schema.  Recording never changes a decision.
        self.observer = None

    def backend_fault(
        self,
        comm_id: str,
        backend: str,
        op_index: int,
        p2p: bool = False,
        rank: int = -1,
        now: float = 0.0,
    ) -> Optional[FaultDecision]:
        """The fault (if any) injected into one dispatch.

        ``op_index`` is the caller's per-(communicator, backend) counter:
        the collective index for collectives, the per-directed-channel
        index for point-to-point — both symmetric across the ranks that
        must agree (see module docstring).  ``rank`` and ``now`` are
        observability tags only (who asked, at what simulated time).
        """
        decision = self._decide(comm_id, backend, op_index, p2p)
        if decision is not None and self.observer is not None:
            self.observer.observe(
                ObsEvent(
                    kind="fault",
                    rank=rank,
                    stream="",
                    backend=backend,
                    family=f"injected.{decision.kind}",
                    nbytes=0,
                    step=self.observer.current_step(rank),
                    start=now,
                    end=now,
                    detail=f"{comm_id}#{op_index}",
                )
            )
        return decision

    def _decide(
        self, comm_id: str, backend: str, op_index: int, p2p: bool
    ) -> Optional[FaultDecision]:
        specs = self._by_backend.get(backend)
        if not specs:
            return None
        if not p2p:
            for bf in specs:
                if (
                    bf.kind == "permanent"
                    and op_index >= bf.at_op
                    and (bf.until_op is None or op_index < bf.until_op)
                ):
                    return FaultDecision("permanent", 0)
        for bf in specs:
            if bf.kind == "transient" and bf.prob > 0.0:
                rng = np.random.default_rng(
                    (self.spec.seed, _BACKEND_STREAM, _crc(comm_id), _crc(backend), op_index)
                )
                if rng.random() < bf.prob:
                    attempts = 1
                    if bf.max_consecutive > 1:
                        attempts = 1 + int(rng.integers(0, bf.max_consecutive))
                    return FaultDecision("transient", attempts)
        return None
