"""Serialize a registry to Chrome ``trace_event`` JSON and back.

The writer accepts either a filesystem path or an open text file and
has a matching loader, so the round trip is testable without touching
external tooling.  The format follows the ``trace_event`` spec's
complete-event (``"ph": "X"``) form: load the file at ``chrome://tracing``
or https://ui.perfetto.dev to see the span hierarchy of a run.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from repro.instrument.registry import (
    WORKER_LANE_BASE,
    NullRegistry,
    Registry,
    SpanEvent,
)

__all__ = [
    "write_chrome_trace",
    "load_chrome_trace",
    "spans_nest",
]


@contextmanager
def _open_text(dest, mode: str) -> Iterator:
    """Yield a text file for a path-or-file destination."""
    if isinstance(dest, (str, Path)):
        with open(dest, mode, encoding="utf-8") as fh:
            yield fh
    else:
        yield dest


# ----------------------------------------------------------------------
# Chrome trace_event
# ----------------------------------------------------------------------
def write_chrome_trace(registry: Registry | NullRegistry, dest) -> int:
    """Chrome ``trace_event`` JSON (complete events, microsecond units).

    Each simulated rank gets its own process lane: span events carry
    ``pid = rank`` (thread id inside the lane) and every lane is labelled
    with a ``process_name`` metadata event, so a multi-rank run reads as
    a rank-by-rank timeline in the viewer.  Counters are attached as
    ``"ph": "C"`` counter events at the end of the trace so they show up
    as tracks.  Returns the number of trace events written (metadata
    excluded).
    """
    events = registry.events
    trace = [
        {
            "name": ev.name,
            "cat": "repro",
            "ph": "X",
            "ts": ev.start * 1e6,
            "dur": ev.duration * 1e6,
            "pid": ev.rank,
            "tid": ev.thread,
            "args": {"path": ev.path},
        }
        for ev in events
    ]
    t_end = max((ev.end for ev in events), default=0.0)
    for name, value in sorted(registry.counters.items()):
        trace.append(
            {
                "name": name,
                "cat": "repro",
                "ph": "C",
                "ts": t_end * 1e6,
                "pid": 0,
                "args": {"value": value},
            }
        )
    n_spans_counters = len(trace)
    # executor worker lanes live at pid >= WORKER_LANE_BASE and are
    # labelled as workers, not ranks
    for rank in sorted({ev.rank for ev in events}):
        label = (
            f"worker {rank - WORKER_LANE_BASE}"
            if rank >= WORKER_LANE_BASE
            else f"rank {rank}"
        )
        trace.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": rank,
                "args": {"name": label},
            }
        )
    with _open_text(dest, "w") as fh:
        json.dump({"traceEvents": trace, "displayTimeUnit": "ms"}, fh)
    return n_spans_counters


def load_chrome_trace(src) -> dict:
    """Inverse of :func:`write_chrome_trace`.

    Returns ``{"spans": [SpanEvent...], "counters": {...}}``; span paths
    are recovered from the ``args.path`` attachment.
    """
    with _open_text(src, "r") as fh:
        payload = json.load(fh)
    spans: list[SpanEvent] = []
    counters: dict[str, float] = {}
    for ev in payload["traceEvents"]:
        if ev["ph"] == "X":
            start = ev["ts"] / 1e6
            spans.append(
                SpanEvent(
                    name=ev["name"],
                    path=ev["args"]["path"],
                    start=start,
                    end=start + ev["dur"] / 1e6,
                    thread=ev["tid"],
                    rank=ev.get("pid", 0),
                )
            )
        elif ev["ph"] == "C":
            counters[ev["name"]] = ev["args"]["value"]
    return {"spans": spans, "counters": counters}


def spans_nest(spans: list[SpanEvent]) -> bool:
    """Check the parenthesis property: child spans lie inside parents.

    For every span whose ``path`` names a parent, some event with the
    parent path must enclose it in time on the same thread.  Used by the
    round-trip tests to confirm exported traces preserve the hierarchy.
    """
    eps = 1e-12
    by_path: dict[tuple[int, str], list[SpanEvent]] = {}
    for ev in spans:
        by_path.setdefault((ev.thread, ev.path), []).append(ev)
    for ev in spans:
        if "/" not in ev.path:
            continue
        parent_path = ev.path.rsplit("/", 1)[0]
        parents = by_path.get((ev.thread, parent_path), [])
        if not any(
            p.start <= ev.start + eps and ev.end <= p.end + eps
            for p in parents
        ):
            return False
    return True
