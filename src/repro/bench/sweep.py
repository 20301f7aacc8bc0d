"""Parallel, incremental sweep execution engine.

Every expensive offline surface of this reproduction — the tuning suite
(paper §V-F, C5), the Fig. 2/7 micro-benchmark sweeps, and the
perf-regression scenario runs — has the same shape: a grid of
independent cells, each a pure function of picklable coordinates, whose
results must be merged back *in the exact serial order* so tables,
reports, and baselines stay byte-identical no matter how the work was
scheduled.  This module factors that shape out once:

* :func:`run_sweep` executes a list of work units either serially
  (``jobs=1``, the default — determinism tests and perfgate baselines
  never see a subprocess) or shared between the caller and
  ``multiprocessing`` **spawn** helper processes, all claiming cells from
  one shared counter.  Results are merged by unit index, so the output
  list is identical to the serial one regardless of completion order or
  which process ran which cell.
* :class:`SweepCache` is a content-addressed on-disk cache: one JSON
  file per cell, named by the SHA-256 of the cell's full key.  A key
  hashes *everything the measurement depends on* — the system spec, the
  backend's calibration constants, the measured-path ``MCRConfig``
  fields, the mode/iterations/warmup, the cell coordinates, and a
  schema version — so editing a calibration constant invalidates
  exactly the cells it affects and nothing else.
* Cache hit/miss counts are reported through the obs
  :class:`~repro.obs.metrics.MetricsRegistry` as ``kind="tuning"``
  events (``family="sweep_cache"``).

Workers and contexts must be **top-level picklables**: each spawned
helper re-imports their modules and receives the context and the pending
units once, when it starts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import multiprocessing.connection
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from repro.obs.metrics import ObsEvent

#: bump when the engine or any measured-path semantics change in a way
#: that silently alters cached values (part of every cache key)
SWEEP_SCHEMA_VERSION = 1

#: sentinel distinguishing "cache miss" from a legitimately-None result
_MISS = object()

#: conventional cache location (used by the CLI and gitignored)
DEFAULT_CACHE_DIR = ".sweep_cache"


# ----------------------------------------------------------------------
# stable hashing / fingerprints
# ----------------------------------------------------------------------


def _canonical(obj: Any) -> Any:
    """Reduce an object to a JSON-stable structure for hashing."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


def stable_hash(obj: Any) -> str:
    """SHA-256 of the canonical JSON encoding of ``obj``."""
    payload = json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def system_fingerprint(system) -> dict:
    """Everything a :class:`~repro.cluster.topology.SystemSpec` feeds
    into a cost model or a simulated run."""
    fabric = system.fabric
    return {
        "name": system.name,
        "node": _canonical(system.node),
        "inter_link": _canonical(system.inter_link),
        "max_nodes": system.max_nodes,
        "fabric_contention": system.fabric_contention,
        "cross_path_interference": system.cross_path_interference,
        "fabric": _canonical(vars(fabric)) if fabric is not None else None,
    }


def calibration_fingerprint(backend_name: str) -> dict:
    """One backend's calibration constants and cost-relevant properties.

    Editing any of these (a multiplier, the call overhead, a capability
    flag that changes staging or emulation) must invalidate exactly the
    cached cells measured on that backend.
    """
    from repro.backends import calibration
    from repro.backends.base import backend_class

    if backend_name[:5].lower() == "hier:":
        # composite target: its cost is a pure function of the two
        # constituents' calibrations, so fingerprint those
        from repro.backends.hierarchical import parse_hier

        spec = parse_hier(backend_name)
        return {
            "composite": "hier",
            "intra": calibration_fingerprint(spec.intra),
            "inter": calibration_fingerprint(spec.inter),
        }
    cls = backend_class(backend_name)
    return {
        "class": cls.__name__,
        "tuning": _canonical(cls.tuning),
        "properties": _canonical(cls.properties),
        # shared constants every backend's cost goes through
        "reduce_gamma": calibration.REDUCE_GAMMA_US_PER_BYTE,
        "vector_overhead_us": calibration.VECTOR_VARIANT_OVERHEAD_US,
        "nonblocking_overhead_us": calibration.NONBLOCKING_OVERHEAD_US,
    }


def config_fingerprint(config) -> dict:
    """The :class:`~repro.core.config.MCRConfig` fields on the measured
    path.  ``enable_logging`` is excluded — observers record, they never
    change a timing — everything else can move a measurement."""
    fields = _canonical(config)
    fields.pop("enable_logging", None)
    return fields


# ----------------------------------------------------------------------
# on-disk cache
# ----------------------------------------------------------------------


class SweepCache:
    """Content-addressed on-disk cache of sweep-cell results.

    One JSON file per cell under ``root``, named ``<sha256>.json`` and
    holding ``{"schema", "cell", "value"}``.  The human-readable
    ``cell`` payload is stored purely for inspection/debugging; the hash
    in the filename is the authoritative key.  Values must be
    JSON-serializable; floats round-trip exactly (``repr`` encoding), so
    a warm-cache sweep reproduces cold results byte-identically.
    """

    def __init__(self, root: "str | Path"):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key_hash: str) -> Path:
        return self.root / f"{key_hash}.json"

    def get(self, key_hash: str) -> Any:
        """The cached value, or the module-level ``_MISS`` sentinel."""
        try:
            payload = json.loads(self._path(key_hash).read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            return _MISS
        if payload.get("schema") != SWEEP_SCHEMA_VERSION:
            return _MISS
        return payload["value"]

    def put(self, key_hash: str, cell: Any, value: Any) -> None:
        """Store atomically (write-then-rename) so concurrent sweeps
        sharing a cache directory never read a torn file."""
        path = self._path(key_hash)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(
            json.dumps(
                {
                    "schema": SWEEP_SCHEMA_VERSION,
                    "cell": _canonical(cell),
                    "value": value,
                },
                sort_keys=True,
            )
        )
        os.replace(tmp, path)

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------


@dataclass
class SweepStats:
    """What one :func:`run_sweep` call did."""

    units: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    computed: int = 0
    jobs: int = 1

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class SweepOutcome:
    """Results (in serial unit order) plus execution statistics."""

    results: list
    stats: SweepStats


def _claim(counter) -> int:
    """The next position in the shared work list (may be past its end)."""
    with counter.get_lock():
        position = counter.value
        counter.value = position + 1
    return position


def _helper(worker: Callable, context: Any, todo: list, counter, conn) -> None:
    """Spawned helper: claim, compute and send ``(index, value)`` until
    the work list runs out; a raising cell is sent as ``(None, exc)``."""
    try:
        while (position := _claim(counter)) < len(todo):
            index, unit = todo[position]
            conn.send((index, worker(context, unit)))
    except Exception as exc:
        conn.send((None, exc))


def _share(
    worker: Callable, context: Any, todo: list, results: list, helpers: int
) -> None:
    """Compute every ``(index, unit)`` of ``todo`` into ``results`` on
    this process plus ``helpers`` spawned processes.

    All of them claim cells from one shared counter, so a grid that is
    done before the helpers have started runs entirely in the caller.
    Helpers still running once every result is in are terminated.
    """
    ctx = multiprocessing.get_context("spawn")
    counter = ctx.Value("q", 0)
    running: dict = {}
    try:
        for _ in range(helpers):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_helper, args=(worker, context, todo, counter, send), daemon=True
            )
            proc.start()
            send.close()  # EOF on ``recv`` now means the helper exited
            running[recv] = proc
        missing = len(todo)
        while (position := _claim(counter)) < len(todo):
            index, unit = todo[position]
            results[index] = worker(context, unit)
            missing -= 1
        while missing:
            if not running:
                raise RuntimeError(
                    f"sweep helper exited with {missing} claimed cell(s) unfinished"
                )
            for recv in multiprocessing.connection.wait(list(running)):
                try:
                    index, value = recv.recv()
                except EOFError:
                    running.pop(recv).join()
                    recv.close()
                    continue
                if index is None:
                    raise value
                results[index] = value
                missing -= 1
    finally:
        for recv, proc in running.items():
            proc.terminate()
            proc.join()
            recv.close()


def _observe_cache_counts(metrics, hits: int, misses: int) -> None:
    """Report cache effectiveness as ``kind="tuning"`` obs events."""
    if metrics is None:
        return
    for detail, count in (("hit", hits), ("miss", misses)):
        metrics.observe(
            ObsEvent(
                kind="tuning",
                rank=-1,
                stream="",
                backend="",
                family="sweep_cache",
                nbytes=count,
                step=-1,
                start=0.0,
                end=0.0,
                detail=detail,
            )
        )


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_sweep(
    worker: Callable[[Any, Any], Any],
    units: Sequence[Any],
    *,
    context: Any = None,
    jobs: int = 1,
    cache: Optional[SweepCache] = None,
    keys: Optional[Sequence[str]] = None,
    metrics=None,
) -> SweepOutcome:
    """Execute ``worker(context, unit)`` for every unit, in order.

    ``jobs=1`` (the default) runs serially in-process — no
    subprocesses, bit-for-bit the historical code path.  ``jobs > 1``
    shares the unserved units between this process and up to
    ``jobs - 1`` spawned helpers, at most :func:`usable_cpus` processes
    in all (one usable CPU means in-process).  A cell that raises
    re-raises here; a helper that dies mid-cell raises ``RuntimeError``.
    The merge is by unit index, so the returned ``results`` list is
    identical to the serial one regardless of scheduling.
    ``stats.jobs`` records the requested ``jobs``.

    With ``cache`` (and matching per-unit ``keys`` hashes), cached cells
    are served without recomputation and fresh results are written back.
    Hit/miss counts are reported to ``metrics`` (a
    :class:`~repro.obs.metrics.MetricsRegistry`) when provided.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if cache is not None:
        if keys is None or len(keys) != len(units):
            raise ValueError("cache requires one key hash per unit")
    units = list(units)
    stats = SweepStats(units=len(units), jobs=jobs)
    results: list[Any] = [None] * len(units)
    pending: list[int] = []
    if cache is not None:
        for i in range(len(units)):
            value = cache.get(keys[i])
            if value is _MISS:
                pending.append(i)
            else:
                results[i] = value
                stats.cache_hits += 1
        stats.cache_misses = len(pending)
    else:
        pending = list(range(len(units)))

    stats.computed = len(pending)
    if pending:
        # more workers than usable CPUs only adds spawn start-up cost
        workers = min(jobs, len(pending), usable_cpus())
        if multiprocessing.current_process().daemon:
            # helpers are daemonic and may not spawn children; a nested
            # sweep (e.g. a scenario fan-out running a parallel tuning
            # sweep) degrades to serial instead of crashing
            workers = 1
        if workers <= 1:
            for i in pending:
                results[i] = worker(context, units[i])
        else:
            todo = [(i, units[i]) for i in pending]
            _share(worker, context, todo, results, workers - 1)
        if cache is not None:
            for i in pending:
                cache.put(keys[i], units[i], results[i])

    _observe_cache_counts(metrics, stats.cache_hits, stats.cache_misses)
    return SweepOutcome(results=results, stats=stats)
