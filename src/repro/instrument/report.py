"""Reporting surface: the ``--profile`` view and BENCH_*.json records.

Both are projections of a run's span events and counters (see
:mod:`repro.instrument.registry`).  ``run --profile`` prints the same
critical-path view ``report <run>`` prints from the ledgered trace —
per-path self time, whose rows plus ``(other)`` sum to the step total —
followed by the measured-vs-model time split of Section III of the paper
(the 16-ranks / 4-threads operating point spends 80% in the PP kernel,
10% in the tree walk, 5% in the FFT, 5% elsewhere — the attribution
behind Table II) and the pair list efficiency.

Span name → Table II bucket
---------------------------
====================================================  ===========
span name(s)                                          model bucket
====================================================  ===========
``pp.kernel``, ``pp.batch``                           kernel
``tree.build``, ``tree.walk``                         walk
``fft.forward``, ``fft.inverse``, ``poisson.filter``,  fft
``fft.pencil.forward``, ``fft.pencil.inverse``
any other span (CIC, stream/kick, driver self time)   other
====================================================  ===========

A path's self time goes to the bucket of its nearest named span, itself
or an ancestor (the pencil FFT's transposes count as ``fft``).  The
shares are of the summed self time of every path of the run's own
timeline, the step total.  On a threaded run the span that dispatched
executor worker lanes holds their busy time as its wait: its self time
is shared out over the buckets as the lanes' own self time is, so the
domain solves' kernel and walk show as such and no second is counted
twice.

Python-vs-BG/Q caveat: the *fractions* are comparable in structure, not
in value — a NumPy PP kernel is far slower relative to FFTW-class FFTs
than hand-scheduled QPX, so expect the measured kernel share to exceed
80% at paper-like sub-cycling.  The split exists to make exactly that
kind of statement quantitative.
"""

from __future__ import annotations

import bisect
import json
import os
from pathlib import Path

from repro.instrument.perfcount import list_efficiency_line
from repro.instrument.registry import (
    PATH_SEP,
    NullRegistry,
    Registry,
    SpanEvent,
    name_self_times,
    path_self_times,
    without_worker_lanes,
)

__all__ = [
    "TABLE2_BUCKETS",
    "bucket_seconds",
    "render_profile",
    "write_bench_record",
]

#: span name -> the paper's Table II bucket (unnamed spans are "other")
TABLE2_BUCKETS = {
    "pp.kernel": "kernel",
    "pp.batch": "kernel",
    "tree.build": "walk",
    "tree.walk": "walk",
    "fft.forward": "fft",
    "fft.inverse": "fft",
    "poisson.filter": "fft",
    "fft.pencil.forward": "fft",
    "fft.pencil.inverse": "fft",
}


def bucket_seconds(events: list[SpanEvent]) -> dict[str, float]:
    """Self time per Table II bucket (``kernel``/``walk``/``fft``/``other``).

    Each path's self time goes to the bucket of its nearest span named
    in :data:`TABLE2_BUCKETS`, itself or an ancestor; so the buckets sum
    to the self time of every path off the worker lanes.  The self time
    of a path that dispatched worker lanes (the innermost span enclosing
    a lane's span) is split over the buckets in the proportions of the
    lanes' own buckets.
    """
    timeline = without_worker_lanes(events)
    selfs = path_self_times(timeline)
    out = _buckets(selfs)
    if len(timeline) == len(events):
        return out
    on_timeline = set(map(id, timeline))
    lanes = [ev for ev in events if id(ev) not in on_timeline]
    share = _buckets(path_self_times(lanes))
    busy = sum(share.values())
    if busy <= 0:
        return out
    for path in _dispatchers(timeline, lanes):
        wait = selfs[path]["self_s"]
        out[_bucket(path)] -= wait
        for bucket, seconds in share.items():
            out[bucket] += wait * seconds / busy
    return out


def _bucket(path: str) -> str:
    return next((TABLE2_BUCKETS[n] for n in reversed(path.split(PATH_SEP))
                 if n in TABLE2_BUCKETS), "other")


def _buckets(selfs: dict[str, dict]) -> dict[str, float]:
    out = {"kernel": 0.0, "walk": 0.0, "fft": 0.0, "other": 0.0}
    for path, entry in selfs.items():
        out[_bucket(path)] += entry["self_s"]
    return out


def _dispatchers(timeline: list[SpanEvent],
                 lanes: list[SpanEvent]) -> set[str]:
    """Paths of the innermost timeline spans enclosing a lane span.

    Timeline spans nest, so going back from the last one to start before
    a lane span, the first that ends after it is the innermost."""
    spans = sorted(timeline, key=lambda ev: ev.start)
    starts = [ev.start for ev in spans]
    out = set()
    for lane in lanes:
        k = bisect.bisect_right(starts, lane.start)
        while k > 0:
            k -= 1
            if spans[k].end >= lane.end:
                out.add(spans[k].path)
                break
    return out


def _fmt_count(value: float) -> str:
    if value == int(value) and abs(value) < 1e6:
        return str(int(value))
    return f"{value:.3e}"


def render_profile(registry: Registry | NullRegistry) -> str:
    """The ``--profile`` view: the ``report <run>`` self-time table, the
    measured-vs-model Table II split and the list-efficiency line."""
    from repro.instrument.analysis import analyze_spans, render_analysis
    from repro.machine.paper_data import FULLCODE_TIME_SPLIT

    events, counters = registry.events, registry.counters
    lines = [render_analysis(analyze_spans(events)), ""]
    buckets = bucket_seconds(events)
    total = sum(buckets.values())
    lines.append("paper Table II attribution (Section III time split) "
                 "vs this run's self time:")
    for bucket, model in FULLCODE_TIME_SPLIT.items():
        measured = buckets[bucket] / total if total > 0 else 0.0
        lines.append(
            f"  {bucket:7s} measured {100 * measured:5.1f}%   "
            f"model/paper {100 * model:5.1f}%"
        )
    comm_bytes = counters.get("comm.bytes", 0)
    if comm_bytes:
        lines.append(
            f"  comm    {_fmt_count(comm_bytes)} bytes in "
            f"{_fmt_count(counters.get('comm.messages', 0))} messages"
        )
    listed = list_efficiency_line(counters)
    if listed:
        lines.append(f"  {listed}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# machine-readable benchmark records
# ----------------------------------------------------------------------
def write_bench_record(
    name: str,
    payload: dict,
    directory: str | Path | None = None,
    events: list[SpanEvent] | None = None,
    counters: dict | None = None,
) -> Path:
    """Write a ``BENCH_<name>.json`` record and return its path.

    Parameters
    ----------
    name:
        Record stem; non-filename characters are replaced with ``_``.
    payload:
        Arbitrary JSON-serializable measurement data.
    directory:
        Destination (created if missing); defaults to the
        ``REPRO_BENCH_DIR`` environment variable, then
        ``benchmarks/records``.
    events, counters:
        If given, a run's span events and counters: the per-name totals
        (``{name: {calls, seconds}}``) and the counters are embedded
        under ``"instrument"``.
    """
    if directory is None:
        directory = os.environ.get("REPRO_BENCH_DIR", "benchmarks/records")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    safe = "".join(c if c.isalnum() or c in "-._" else "_" for c in name)
    path = directory / f"BENCH_{safe}.json"
    record = {"name": name, "payload": payload}
    if events is not None or counters is not None:
        record["instrument"] = {
            "sections": {
                k: {"calls": v["calls"], "seconds": v["total_s"]}
                for k, v in name_self_times(events or []).items()
            },
            "counters": dict(counters or {}),
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
