"""Tensor fusion (paper §V-E).

Combines many small tensors into one bandwidth-optimal buffer before
communicating — the optimization Horovod and PyTorch DDP build into
their allreduce paths, implemented here once on top of MCR-DL so it
applies to every backend.

Two parameters (paper §V-E): the maximum fusion-buffer size ``B`` and
the maximum wait time ``T`` for the buffer to fill.  MCR-DL's extra
trick: when a buffer times out *below* ``B`` (so it will not saturate
bandwidth anyway), the flush is routed to the least-busy backend's
communication streams, overlapping it with other backends' fusion
traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.backends.ops import ReduceOp
from repro.core.exceptions import MCRError
from repro.core.protocols import CommCore
from repro.obs.metrics import ObsEvent
from repro.tensor import SimTensor
from repro.tensor.tensor import cat

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.handles import WorkHandle


@dataclass
class FusionConfig:
    """Tensor-fusion parameters."""

    #: maximum fusion buffer size B, bytes
    max_buffer_bytes: int = 4 * 1024 * 1024
    #: maximum wait T for the buffer to fill, µs (enforced lazily: checked
    #: on each subsequent post and at explicit flush points)
    max_wait_us: float = 50.0
    #: tensors at or above this size bypass fusion entirely, bytes
    bypass_threshold: int = 1024 * 1024
    #: route timeout flushes to the least-busy backend (§V-E optimization)
    cross_backend_overlap: bool = True


class FusedHandle:
    """Per-tensor handle for a (possibly not yet flushed) fused op."""

    def __init__(self, fusion: "TensorFusion", bucket_key: tuple):
        self._fusion = fusion
        self._bucket_key = bucket_key
        self._inner: Optional["WorkHandle"] = None

    def _bind(self, inner: "WorkHandle") -> None:
        self._inner = inner

    def _ensure_flushed(self) -> None:
        if self._inner is None:
            self._fusion.flush(self._bucket_key)
        if self._inner is None:  # pragma: no cover - defensive
            raise MCRError("fusion flush did not bind a work handle")

    def wait(self, backend: Optional[str] = None) -> None:
        self._ensure_flushed()
        if backend is not None:
            # validate like WorkHandle.wait, but tolerate the §V-E
            # cross-backend reroute: a timeout/boundary flush may run on
            # a different backend than the one the tensor was posted to,
            # so both the posted name and the actual one are accepted
            from repro.backends.base import canonical_name

            requested = canonical_name(backend)
            posted = canonical_name(self._bucket_key[0])
            actual = self._inner.backend_name
            if requested not in (posted, actual):
                raise MCRError(
                    f"fused handle belongs to backend {posted!r} "
                    f"(flushed on {actual!r}), wait called with {backend!r}"
                )
        self._inner.wait()

    def synchronize(self) -> None:
        self._ensure_flushed()
        self._inner.synchronize()

    def is_completed(self) -> bool:
        return self._inner is not None and self._inner.is_completed()


class _Bucket:
    """Pending small tensors for one (backend, reduce op, dtype)."""

    __slots__ = ("tensors", "handles", "first_post_us", "nbytes")

    def __init__(self) -> None:
        self.tensors: list[SimTensor] = []
        self.handles: list[FusedHandle] = []
        self.first_post_us: Optional[float] = None
        self.nbytes = 0


class TensorFusion:
    """Fusion engine for allreduce traffic over one communicator."""

    def __init__(self, comm: CommCore, config: Optional[FusionConfig] = None):
        self.comm = comm
        self.config = config or FusionConfig()
        self._buckets: dict[tuple, _Bucket] = {}
        # per-bucket flush sequence numbers: SPMD ranks flush the same
        # buckets in the same order, so (key, seq) identifies "the same
        # flush" across ranks for route coordination
        self._flush_seq: dict[tuple, int] = {}
        #: statistics: flushes by trigger kind (full = bucket reached B;
        #: timeout = T expired; boundary = explicit flush below B, e.g.
        #: at a step boundary)
        self.stats = {
            "full_flushes": 0,
            "timeout_flushes": 0,
            "boundary_flushes": 0,
            "bypass": 0,
            "fused_tensors": 0,
        }

    # -- public API -----------------------------------------------------------

    def all_reduce(
        self, backend: str, tensor: SimTensor, op: ReduceOp = ReduceOp.SUM
    ) -> "FusedHandle | WorkHandle":
        """Post a (possibly fused) allreduce; always returns a handle."""
        if tensor.nbytes() >= self.config.bypass_threshold:
            self.stats["bypass"] += 1
            return self.comm.all_reduce(backend, tensor, op=op, async_op=True)

        key = (backend, op.value, tensor.dtype.name)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = _Bucket()
        elif (
            bucket.first_post_us is not None
            and self.comm.ctx.now - bucket.first_post_us > self.config.max_wait_us
        ):
            # lazy timeout: T expired before this post, flush the old batch
            self.flush(key, timeout=True)
            bucket = self._buckets[key] = _Bucket()

        if bucket.first_post_us is None:
            bucket.first_post_us = self.comm.ctx.now
        handle = FusedHandle(self, key)
        bucket.tensors.append(tensor)
        bucket.handles.append(handle)
        bucket.nbytes += tensor.nbytes()
        self.stats["fused_tensors"] += 1

        if bucket.nbytes >= self.config.max_buffer_bytes:
            self.flush(key)
        return handle

    def flush(self, key: Optional[tuple] = None, timeout: bool = False) -> None:
        """Flush one bucket (or all) as fused collectives."""
        keys = [key] if key is not None else list(self._buckets)
        for k in keys:
            bucket = self._buckets.pop(k, None)
            if bucket is None or not bucket.tensors:
                continue
            self._flush_bucket(k, bucket, timeout)

    def flush_all(self) -> None:
        """Flush every pending bucket (call at step boundaries)."""
        self.flush(None)

    # -- internals -------------------------------------------------------------

    def _flush_bucket(self, key: tuple, bucket: _Bucket, timeout: bool) -> None:
        backend, op_value, _dtype = key
        op = ReduceOp(op_value)
        seq = self._flush_seq.get(key, 0)
        self._flush_seq[key] = seq + 1
        below_b = bucket.nbytes < self.config.max_buffer_bytes
        if timeout:
            trigger = "timeout"
            self.stats["timeout_flushes"] += 1
        elif below_b:
            # explicit flush (step boundary) of a bucket that never
            # filled: not a full flush — same character as a timeout
            trigger = "boundary"
            self.stats["boundary_flushes"] += 1
        else:
            trigger = "full"
            self.stats["full_flushes"] += 1
        if (
            (timeout or below_b)
            and self.config.cross_backend_overlap
            and len(self.comm.backends) > 1
        ):
            # a below-B flush will not saturate bandwidth: overlap it with
            # other backends' fusion buffers on the least busy one (§V-E).
            # Stream occupancy is rank-local and ranks reach this point at
            # different virtual times, so the choice must be coordinated:
            # the first rank to flush (key, seq) decides from its own load
            # and publishes the route; the other ranks follow it.
            backend = self._route_flush(key, seq)

        obs = self.comm._obs
        if obs is not None:
            rank = self.comm.ctx.rank
            now = self.comm.ctx.now
            obs.observe(
                ObsEvent(
                    kind="fusion",
                    rank=rank,
                    stream="",
                    backend=backend,
                    family=trigger,
                    nbytes=bucket.nbytes,
                    step=obs.current_step(rank),
                    start=now,
                    end=now,
                    detail=f"{len(bucket.tensors)} tensors",
                )
            )
        tensors = bucket.tensors
        fused_tensor = cat(tensors)
        inner = self.comm.all_reduce(backend, fused_tensor, op=op, async_op=True)

        if not fused_tensor.is_virtual:
            # scatter reduced values back into the original tensors when
            # the fused op completes (virtual tensors carry no data)
            fused = fused_tensor.view_flat()
            views = [t.view_flat() for t in tensors]
            sizes = [v.size for v in views]

            def copy_back() -> None:
                offset = 0
                for view, size in zip(views, sizes):
                    view[:] = fused[offset : offset + size]
                    offset += size

            if inner.flag.is_set:
                copy_back()
            else:
                inner.flag.callbacks.append(copy_back)
        for handle in bucket.handles:
            handle._bind(inner)

    def _route_flush(self, key: tuple, seq: int) -> str:
        """Symmetric backend choice for one below-B flush.

        First-flusher-decides (the coordinator pattern Horovod uses for
        fusion ordering): the route table lives in the communicator's
        cross-rank shared state, entries are dropped once every group
        rank has read them.
        """
        routes = self.comm._shared.setdefault("fusion_routes", {})
        entry = routes.get((key, seq))
        if entry is None:
            choice = self.comm.sync.least_busy_backend(
                list(self.comm.backends), self.comm._outstanding
            )
            routes[(key, seq)] = [choice, 1]
            return choice
        entry[1] += 1
        if entry[1] >= len(self.comm.group_ranks):
            del routes[(key, seq)]
        return entry[0]

    @property
    def pending_bytes(self) -> int:
        return sum(b.nbytes for b in self._buckets.values())
