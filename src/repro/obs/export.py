"""Exporters for the unified observability store.

* **Chrome/Perfetto trace** — the Tracer's per-stream intervals plus, when
  a :class:`~repro.obs.metrics.MetricsRegistry` is supplied, training-step
  markers (one dedicated "steps" thread per rank) and cumulative
  per-family byte counter tracks (``"C"`` events), as one plain JSON
  array of trace events.
* **metrics JSON** — the registry snapshot plus per-family and per-step
  communication totals.
* **loaders/breakdowns** — the reverse direction for the ``repro trace``
  subcommand: load a saved trace (array or ``{"traceEvents": ...}``
  envelope) back into records and aggregate per-rank / per-category /
  per-step tables.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.obs.metrics import MetricsRegistry, UNATTRIBUTED_STEP, union_us

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.trace import Tracer

#: tid of the per-rank "steps" thread in exported traces.  High enough
#: to never collide with real stream tids (streams are numbered densely
#: from 0 per rank).
STEP_THREAD_ID = 1000

#: thread name marking the step track; the loader uses it to tell step
#: markers apart from ordinary intervals
STEP_THREAD_NAME = "steps"


# ----------------------------------------------------------------------
# chrome trace
# ----------------------------------------------------------------------


def step_marker_events(registry: MetricsRegistry) -> list[dict]:
    """Step windows as ``"X"`` events on a dedicated thread per rank."""
    events: list[dict] = []
    named: set[int] = set()
    for marker in registry.steps:
        if marker.end is None:
            continue
        if marker.rank not in named:
            named.add(marker.rank)
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": marker.rank,
                    "tid": STEP_THREAD_ID,
                    "args": {"name": STEP_THREAD_NAME},
                }
            )
        events.append(
            {
                "ph": "X",
                "name": f"step {marker.step}",
                "cat": "step",
                "pid": marker.rank,
                "tid": STEP_THREAD_ID,
                "ts": marker.start,
                "dur": marker.end - marker.start,
                "args": {"step": marker.step},
            }
        )
    return events


def counter_track_events(registry: MetricsRegistry) -> list[dict]:
    """Cumulative communicated bytes per op family as ``"C"`` counter
    events, one track per rank, sampled at each comm op's completion."""
    events: list[dict] = []
    running: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    ordered = sorted(
        (e for e in registry.events if e.kind == "comm"), key=lambda e: e.end
    )
    for event in ordered:
        series = running[event.rank]
        series[event.family] += event.nbytes
        events.append(
            {
                "ph": "C",
                "name": "comm bytes",
                "pid": event.rank,
                "ts": event.end,
                "args": dict(series),
            }
        )
    return events


def interval_events(tracer: "Tracer") -> list[dict]:
    """The tracer's intervals: one process per rank, one thread per
    stream, complete ("X") events in microseconds."""
    events: list[dict] = []
    thread_ids: dict[tuple[int, str], int] = {}
    per_rank: dict[int, int] = defaultdict(int)
    for record in tracer.records:
        key = (record.rank, record.stream)
        tid = thread_ids.get(key)
        if tid is None:
            tid = thread_ids[key] = per_rank[record.rank]
            per_rank[record.rank] += 1
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": record.rank,
                    "tid": tid,
                    "args": {"name": record.stream},
                }
            )
        events.append(
            {
                "ph": "X",
                "name": record.detail,
                "cat": record.family,
                "pid": record.rank,
                "tid": tid,
                "ts": record.start,
                "dur": record.duration,
            }
        )
    return events


def chrome_trace_events(
    tracer: Optional["Tracer"], registry: Optional[MetricsRegistry] = None
) -> list[dict]:
    """The full exported event list (load in chrome://tracing or
    Perfetto): tracer intervals, then step markers and counter tracks
    (the latter two only when a registry is given)."""
    events = interval_events(tracer) if tracer is not None else []
    if registry is not None:
        events += step_marker_events(registry)
        events += counter_track_events(registry)
    return events


def save_chrome_trace(
    path,
    tracer: Optional["Tracer"],
    registry: Optional[MetricsRegistry] = None,
) -> None:
    Path(path).write_text(json.dumps(chrome_trace_events(tracer, registry)))


def load_chrome_trace(path) -> list[dict]:
    """Load a saved trace; accepts both the plain array this package
    writes and the ``{"traceEvents": [...]}`` envelope other tools emit."""
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict):
        data = data.get("traceEvents", [])
    if not isinstance(data, list):
        raise ValueError(f"{path}: not a chrome trace (expected array of events)")
    return data


# ----------------------------------------------------------------------
# metrics JSON
# ----------------------------------------------------------------------


def metrics_to_json(
    registry: MetricsRegistry, world_size: Optional[int] = None
) -> dict:
    """The metrics-dump payload for ``repro train --metrics``."""
    return {
        "schema": "repro.obs.metrics/v1",
        "world_size": world_size,
        "metrics": registry.snapshot(),
        "comm_totals_by_family": registry.comm_totals_by_family(),
        "per_step_comm": {
            str(step): cell for step, cell in sorted(registry.per_step_comm().items())
        },
        "fault_counts": registry.fault_counts(),
        "steps": [
            {"rank": m.rank, "step": m.step, "start": m.start, "end": m.end}
            for m in registry.steps
        ],
    }


def save_metrics(
    path, registry: MetricsRegistry, world_size: Optional[int] = None
) -> None:
    Path(path).write_text(
        json.dumps(metrics_to_json(registry, world_size), indent=2, sort_keys=True)
    )


# ----------------------------------------------------------------------
# trace breakdowns (the `repro trace` subcommand)
# ----------------------------------------------------------------------


def trace_breakdown(events: list[dict]) -> dict:
    """Aggregate a loaded chrome trace into renderable tables.

    Returns::

        {
          "ranks": sorted rank ids,
          "categories": {category: {"events": n, "sum_us": s, "busy_us": u}},
          "per_rank": {rank: {category: sum_us}},
          "steps": [{"rank", "step", "start", "dur"}...],
          "per_step": {step: {"dur_us": max window over ranks, "ranks": n}},
          "span_us": trace end - trace start,
        }
    """
    ranks: set[int] = set()
    categories: dict[str, dict] = {}
    cat_spans: dict[str, list[tuple[float, float]]] = defaultdict(list)
    per_rank: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    steps: list[dict] = []
    t_min, t_max = None, None
    for event in events:
        if event.get("ph") != "X":
            continue
        ts = float(event.get("ts", 0.0))
        dur = float(event.get("dur", 0.0))
        t_min = ts if t_min is None else min(t_min, ts)
        t_max = ts + dur if t_max is None else max(t_max, ts + dur)
        pid = int(event.get("pid", 0))
        cat = event.get("cat", "")
        if cat == "step":
            step_no = event.get("args", {}).get("step")
            if step_no is None:  # fall back to the "step N" name
                try:
                    step_no = int(str(event.get("name", "")).split()[-1])
                except (ValueError, IndexError):
                    step_no = UNATTRIBUTED_STEP
            steps.append({"rank": pid, "step": int(step_no), "start": ts, "dur": dur})
            continue
        ranks.add(pid)
        cell = categories.setdefault(cat, {"events": 0, "sum_us": 0.0})
        cell["events"] += 1
        cell["sum_us"] += dur
        cat_spans[cat].append((ts, ts + dur))
        per_rank[pid][cat] += dur
    for cat, cell in categories.items():
        cell["busy_us"] = union_us(cat_spans[cat])

    per_step: dict[int, dict] = {}
    for marker in steps:
        cell = per_step.setdefault(marker["step"], {"dur_us": 0.0, "ranks": 0})
        cell["dur_us"] = max(cell["dur_us"], marker["dur"])
        cell["ranks"] += 1
    return {
        "ranks": sorted(ranks),
        "categories": categories,
        "per_rank": {r: dict(c) for r, c in sorted(per_rank.items())},
        "steps": steps,
        "per_step": per_step,
        "span_us": (t_max - t_min) if t_min is not None else 0.0,
    }
