"""Per-rank telemetry: gauges, imbalance factors, and live run streams.

The instrumentation registry (PR 1) aggregates process-global spans and
counters; this module adds the *rank* dimension the paper's scaling
story actually lives in (Sec. 4, Figs. 7-8: particle overloading keeps
the per-rank work balanced, and the 2-D pencil FFT keeps per-rank
message volume bounded).  Three pieces:

* **per-rank gauges** — named per-step, per-rank samples (particles per
  rank, ghost fraction, PP interactions per rank, tree depth, bytes on
  the wire) collected by the simulation driver and the solvers, reduced
  to the paper-style ``max/mean`` *imbalance factor* each step;
* **step events** — one :class:`StepTelemetry` per simulation step
  (scale factor, wall time, gauges, imbalance factors, physics
  residuals, health alerts), the unit the run monitor renders;
* **run streams** — an append-only JSONL file (:class:`RunStream`):
  a manifest line (config hash, package versions, RNG seed), one
  telemetry line per step flushed immediately so ``python -m repro
  monitor`` can tail a *live* run, and an end line with the final health
  verdict.

A collector belongs to one run: the driver reads its own
``sim.telemetry`` (``None`` unless the run sets one), so disabled
telemetry costs a single attribute test and no allocations on the
stepping hot path, and two simulations in one process never share one.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

__all__ = [
    "StepTelemetry",
    "Telemetry",
    "RunStream",
    "StreamFollower",
    "read_stream",
    "imbalance_factor",
    "sparkline",
    "run_manifest",
]


def imbalance_factor(values: Iterable[float]) -> float:
    """The paper-style load-imbalance measure: ``max / mean``.

    1.0 means perfect balance; the factor is what the overloading
    discussion (Sec. 4) keeps near unity.  Empty input returns 0.0, an
    all-zero sample returns 1.0 (no work anywhere is balanced work).
    """
    vals = [float(v) for v in values]
    if not vals:
        return 0.0
    mean = sum(vals) / len(vals)
    if mean == 0.0:
        return 1.0
    return max(vals) / mean


@dataclass(frozen=True)
class StepTelemetry:
    """Everything telemetry knows about one completed simulation step."""

    index: int
    a: float
    wall_time: float
    gauges: dict
    imbalance: dict
    residuals: dict
    alerts: tuple
    #: achieved-throughput summary of the step (``gflops``, ``pair_ns``,
    #: ``ai`` — see :func:`repro.instrument.perfcount.step_perf`); empty
    #: when the registry was disabled or the step charged no work
    perf: dict = field(default_factory=dict)

    @property
    def z(self) -> float:
        return 1.0 / self.a - 1.0 if self.a > 0 else float("inf")

    def to_dict(self) -> dict:
        out = {
            "step": self.index,
            "a": self.a,
            "z": self.z,
            "wall_time": self.wall_time,
            "gauges": {
                name: {str(r): v for r, v in ranks.items()}
                for name, ranks in self.gauges.items()
            },
            "imbalance": dict(self.imbalance),
            "residuals": dict(self.residuals),
            "alerts": list(self.alerts),
        }
        if self.perf:
            out["perf"] = dict(self.perf)
        return out


class RunStream:
    """Append-only JSONL stream of one run, flushed line by line.

    The first line is the manifest (when given), then one
    ``kind: "telemetry"`` line per step, then a ``kind: "end"`` line —
    each flushed as written, so a concurrent ``python -m repro monitor
    --follow`` sees steps as they complete.
    """

    def __init__(self, path, manifest: dict | None = None) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w", encoding="utf-8")
        self._lock = threading.Lock()
        self.closed = False
        if manifest is not None:
            self.append({"kind": "manifest", **manifest})

    def append(self, record: Mapping) -> None:
        """Write one JSON line and flush it."""
        rec = dict(record)
        rec.setdefault("kind", "telemetry")
        with self._lock:
            if self.closed:
                raise ValueError(f"stream {self.path} is closed")
            self._fh.write(json.dumps(rec) + "\n")
            self._fh.flush()

    def close(self, end: Mapping | None = None) -> None:
        """Optionally write the ``kind: "end"`` record, then close."""
        if self.closed:
            return
        if end is not None:
            self.append({**dict(end), "kind": "end"})
        with self._lock:
            self.closed = True
            self._fh.close()

    def __enter__(self) -> "RunStream":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class StreamFollower:
    """Incremental tail-buffering reader of a *live* telemetry stream.

    ``python -m repro monitor --follow`` used to re-read and re-parse
    the whole file every poll, and a line caught mid-flush was dropped
    for that frame.  The follower instead remembers its byte offset,
    reads only what the writer appended, and **buffers a partial trailing
    line** until its newline arrives — a record is parsed exactly once,
    and never while half-written.  A *complete* line that still fails to
    parse (actual corruption, not an in-flight flush) is counted in
    ``parse_errors`` and skipped rather than raised, so a monitor
    survives a torn write.

    The follower also folds records into a running ``read_stream``-shaped
    view (:attr:`data`), so render code is identical for one-shot and
    follow modes.  Truncation (the file shrank — e.g. a rerun recreated
    it) resets the follower to the new beginning.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._offset = 0
        self._tail = b""
        self.parse_errors = 0
        self.data: dict = {"manifest": None, "steps": [], "end": None}

    def poll(self) -> list[dict]:
        """Consume newly completed records; returns the new ones in order."""
        try:
            size = self.path.stat().st_size
        except OSError:
            return []
        if size < self._offset:
            # the file was truncated/recreated under us: start over
            self._offset = 0
            self._tail = b""
            self.parse_errors = 0
            self.data = {"manifest": None, "steps": [], "end": None}
        if size == self._offset:
            return []
        with open(self.path, "rb") as fh:
            fh.seek(self._offset)
            chunk = fh.read()
        self._offset += len(chunk)
        buf = self._tail + chunk
        lines = buf.split(b"\n")
        self._tail = lines.pop()  # b"" after a clean flush
        records: list[dict] = []
        for raw in lines:
            raw = raw.strip()
            if not raw:
                continue
            try:
                rec = json.loads(raw.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                self.parse_errors += 1
                continue
            records.append(rec)
            kind = rec.get("kind")
            if kind == "manifest":
                self.data["manifest"] = rec
            elif kind == "end":
                self.data["end"] = rec
            elif kind == "telemetry":
                self.data["steps"].append(rec)
        return records

    @property
    def finished(self) -> bool:
        """True once the stream's ``end`` record has been consumed."""
        return self.data["end"] is not None


def read_stream(path) -> dict:
    """Parse a whole stream: ``{"manifest": ..., "steps": [...], "end": ...}``.

    One :meth:`StreamFollower.poll`: ``manifest`` and ``end`` are
    ``None`` when the stream does not (yet) contain them; ``steps``
    holds the telemetry records in order; a line still being written
    is not read.
    """
    follower = StreamFollower(path)
    follower.poll()
    return follower.data


#: unicode block ramp used by :func:`sparkline`
_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def sparkline(values: Iterable[float], width: int = 32) -> str:
    """Render a sequence as a unicode sparkline, downsampled to ``width``.

    A constant sequence renders at the lowest level; non-finite values
    render as spaces.
    """
    vals = [float(v) for v in values]
    if not vals:
        return ""
    if len(vals) > width:
        # average adjacent windows down to `width` samples
        out = []
        for i in range(width):
            lo = i * len(vals) // width
            hi = max((i + 1) * len(vals) // width, lo + 1)
            out.append(sum(vals[lo:hi]) / (hi - lo))
        vals = out
    finite = [v for v in vals if v == v and abs(v) != float("inf")]
    if not finite:
        return " " * len(vals)
    vmin, vmax = min(finite), max(finite)
    span = vmax - vmin
    chars = []
    for v in vals:
        if v != v or abs(v) == float("inf"):
            chars.append(" ")
        elif span == 0:
            chars.append(_SPARK_CHARS[0])
        else:
            idx = int((v - vmin) / span * (len(_SPARK_CHARS) - 1))
            chars.append(_SPARK_CHARS[idx])
    return "".join(chars)


def run_manifest(config=None, extra: Mapping | None = None) -> dict:
    """Provenance header for a run stream.

    Records the package versions, the full configuration (plus its
    stable hash — see :meth:`repro.config.SimulationConfig.config_hash`)
    and the RNG seed, so a telemetry file identifies the run it came
    from without any side channel.
    """
    import importlib.metadata
    import platform

    import numpy

    import repro

    manifest: dict = {
        "repro_version": repro.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "created_unix": time.time(),
    }
    # the installed version from package metadata: importing scipy
    # would load its modules into every run that writes a manifest
    try:
        manifest["scipy"] = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        manifest["scipy"] = None
    from repro.instrument.store import IDENTITY, git_revision

    manifest["git_rev"] = git_revision()
    if config is not None:
        manifest["config"] = config.to_dict()
        manifest["config_hash"] = config.config_hash()
        manifest["seed"] = config.seed
        manifest["n_steps"] = config.n_steps
        manifest["n_particles"] = config.n_particles
        # the other ledger identity columns are config attributes of
        # the same name, in the ledger's column order
        manifest.update((key, getattr(config, key))
                        for key in IDENTITY if key not in manifest)
    if extra:
        manifest.update(dict(extra))
    return manifest


class Telemetry:
    """Live per-rank telemetry collector.

    Parameters
    ----------
    stream:
        Optional :class:`RunStream`; every recorded step is appended to
        it immediately (the live-monitoring path).

    Usage
    -----
    Producers (the simulation driver, the overloaded short-range path)
    call :meth:`gauge` / :meth:`add_gauge` with per-rank samples while a
    step runs; the driver then calls :meth:`record_step`, which snapshots
    the pending gauges into a :class:`StepTelemetry`, computes the
    ``max/mean`` imbalance factor per gauge, and clears the slate for the
    next step.
    """

    def __init__(self, stream: RunStream | None = None) -> None:
        self.stream = stream
        self._lock = threading.Lock()
        self._pending: dict[str, dict[int, float]] = {}
        self._steps: list[StepTelemetry] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def gauge(self, name: str, rank: int, value: float) -> None:
        """Set gauge ``name`` for ``rank`` (overwrites within the step)."""
        with self._lock:
            self._pending.setdefault(name, {})[int(rank)] = float(value)

    def add_gauge(self, name: str, rank: int, value: float) -> None:
        """Accumulate into gauge ``name`` for ``rank`` within the step."""
        with self._lock:
            table = self._pending.setdefault(name, {})
            table[int(rank)] = table.get(int(rank), 0.0) + float(value)

    def record_step(
        self,
        index: int,
        a: float,
        wall_time: float,
        residuals: Mapping[str, float] | None = None,
        alerts: Iterable[Mapping] | None = None,
        perf: Mapping | None = None,
    ) -> StepTelemetry:
        """Close out one step: snapshot gauges, compute imbalance, emit."""
        with self._lock:
            gauges = {
                name: dict(ranks) for name, ranks in self._pending.items()
            }
            self._pending.clear()
        step = StepTelemetry(
            index=int(index),
            a=float(a),
            wall_time=float(wall_time),
            gauges=gauges,
            imbalance={
                name: imbalance_factor(ranks.values())
                for name, ranks in gauges.items()
            },
            residuals=dict(residuals) if residuals else {},
            alerts=tuple(dict(al) for al in alerts) if alerts else (),
            perf=dict(perf) if perf else {},
        )
        with self._lock:
            self._steps.append(step)
        if self.stream is not None:
            self.stream.append(step.to_dict())
        return step

    def finish(self, **extra) -> None:
        """Write the stream's ``end`` record (wall totals, alert counts)."""
        if self.stream is None or self.stream.closed:
            return
        steps = self.steps
        self.stream.close(
            end={
                "steps": len(steps),
                "wall_time": sum(s.wall_time for s in steps),
                "alerts": sum(len(s.alerts) for s in steps),
                **extra,
            }
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def steps(self) -> list[StepTelemetry]:
        with self._lock:
            return list(self._steps)

    def peek_imbalance(self) -> dict[str, float]:
        """Imbalance factors of the gauges pending in the current step.

        Lets the driver feed the health monitor's ``imbalance`` check
        *before* :meth:`record_step` snapshots (and clears) the gauges.
        """
        with self._lock:
            return {
                name: imbalance_factor(ranks.values())
                for name, ranks in self._pending.items()
            }
