"""The span-timer / counter registry: the one timing record of a run.

See :mod:`repro.instrument` for the design overview.  A live registry
holds exactly two things, its :class:`SpanEvent` list and its counters;
every time figure (per-path self time, per-name totals, the roofline
phases, a step's perf block) is a projection of the events computed when
it is asked for (:func:`path_self_times`, :func:`name_self_times`), so a
reloaded trace reproduces it.  Everything here is pure stdlib — the
instrumented science modules must be importable without dragging in any
heavy dependency, and the registry itself must be cheap enough to leave
compiled into every hot path.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

__all__ = [
    "SpanEvent",
    "FakeClock",
    "Registry",
    "NullRegistry",
    "WORKER_LANE_BASE",
    "without_worker_lanes",
    "path_self_times",
    "name_self_times",
    "get_registry",
    "set_registry",
    "enable",
    "disable",
    "use",
    "span",
    "count",
    "timed",
]

#: hierarchy separator in span paths (section names themselves use dots,
#: e.g. ``cic.deposit``, so paths read ``step/longrange/cic.deposit``)
PATH_SEP = "/"

#: Chrome-trace lane offset: executor worker lanes live at ``pid >= 1000``
#: so they never collide with simulated-rank lanes (``pid = rank``)
WORKER_LANE_BASE = 1000


@dataclass(frozen=True, slots=True)
class SpanEvent:
    """One completed timed section.

    ``path`` encodes the nesting at the time the span was entered
    (``step/longrange/fft.forward``); ``name`` is the leaf label used for
    aggregation across call sites.  ``rank`` attributes the span to a
    simulated rank (0 for process-global sections); the Chrome-trace
    exporter renders distinct ranks as distinct process lanes.
    """

    name: str
    path: str
    start: float
    end: float
    thread: int
    rank: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class FakeClock:
    """Deterministic injectable clock for tests and doctests.

    Calling the instance returns the current fake time; ``advance`` moves
    it forward.  Spans timed against a FakeClock have exactly reproducible
    durations.

    Examples
    --------
    >>> clock = FakeClock()
    >>> reg = Registry(clock=clock)
    >>> with reg.span("outer"):
    ...     clock.advance(1.5)
    ...     with reg.span("inner"):
    ...         clock.advance(0.5)
    >>> totals = name_self_times(reg.events)
    >>> totals["outer"]["total_s"], totals["outer"]["self_s"]
    (2.0, 1.5)
    """

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise ValueError(f"cannot advance a clock backwards: {dt}")
        self.now += float(dt)


class _SpanHandle:
    """Context manager for one live span (allocated only when enabled)."""

    __slots__ = ("_registry", "name", "path", "start", "rank")

    def __init__(self, registry: "Registry", name: str, rank: int = 0) -> None:
        self._registry = registry
        self.name = name
        self.path = ""
        self.start = 0.0
        self.rank = rank

    def __enter__(self) -> "_SpanHandle":
        reg = self._registry
        stack = reg._stack()
        parent = stack[-1].path if stack else ""
        self.path = parent + PATH_SEP + self.name if parent else self.name
        stack.append(self)
        self.start = reg.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        reg = self._registry
        end = reg.clock()
        stack = reg._stack()
        if not stack or stack[-1] is not self:
            raise RuntimeError(
                f"span {self.name!r} exited out of order "
                f"(open: {[s.name for s in stack]})"
            )
        stack.pop()
        reg._record(self, end)
        return False


class _NullSpan:
    """Shared no-op context manager: zero allocations when disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullRegistry:
    """Disabled instrumentation: every operation is a no-op.

    ``span`` hands back one shared context-manager instance and ``count``
    returns immediately — no locks, no allocations, no clock reads — so
    leaving instrumentation calls compiled into the hot paths costs a few
    attribute lookups per call and nothing else.
    """

    enabled = False

    def span(self, name: str, rank: int = 0) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, value: float = 1) -> None:
        return None

    @property
    def events(self) -> list[SpanEvent]:
        return []

    @property
    def counters(self) -> dict[str, float]:
        return {}


class Registry:
    """Live instrumentation registry: span events and counters.

    Every completed span is kept; nothing is aggregated on the way in.
    A profiled step opens a few dozen spans (36 for a 32^3 treepm step,
    58 for a 24^3 2x2x1 thread@2 one) at about 215 bytes per slotted
    :class:`SpanEvent` with its path string, so a long profiled run's
    record stays near 10 KB per step without a cap.

    Parameters
    ----------
    clock:
        Zero-argument callable returning monotonically increasing seconds;
        ``time.perf_counter`` by default, a :class:`FakeClock` in tests.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self._events: list[SpanEvent] = []
        self._counters: dict[str, float] = {}

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _stack(self) -> list[_SpanHandle]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _record(self, handle: _SpanHandle, end: float) -> None:
        event = SpanEvent(
            name=handle.name,
            path=handle.path,
            start=handle.start,
            end=end,
            thread=threading.get_ident(),
            rank=handle.rank,
        )
        with self._lock:
            self._events.append(event)

    # ------------------------------------------------------------------
    # recording API
    # ------------------------------------------------------------------
    def span(self, name: str, rank: int = 0) -> _SpanHandle:
        """Context manager timing ``name``, nested under the open span.

        ``rank`` tags the resulting event with a simulated-rank lane for
        per-rank trace visualization.
        """
        return _SpanHandle(self, name, rank)

    def record(self, name: str, start: float, end: float) -> None:
        """A finished span ``name``, ``start`` to ``end`` on this clock,
        under the thread's open span: phases a compiled call timed."""
        handle = _SpanHandle(self, name)
        stack = self._stack()
        handle.path = stack[-1].path + PATH_SEP + name if stack else name
        handle.start = start
        self._record(handle, end)

    def count(self, name: str, value: float = 1) -> None:
        """Accumulate ``value`` into counter ``name``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def events(self) -> list[SpanEvent]:
        with self._lock:
            return list(self._events)

    @property
    def counters(self) -> dict[str, float]:
        with self._lock:
            return dict(self._counters)

    def mark(self) -> tuple[int, dict[str, float]]:
        """Open a window: the event count so far and a counters copy."""
        with self._lock:
            return len(self._events), dict(self._counters)

    def since(
        self, mark: tuple[int, dict[str, float]]
    ) -> tuple[list[SpanEvent], dict[str, float]]:
        """Events recorded and counter deltas charged since ``mark``.

        Costs the window's events, not the run's: one step's record.
        """
        n_events, before = mark
        with self._lock:
            events = self._events[n_events:]
            deltas = {
                k: v - before.get(k, 0)
                for k, v in self._counters.items()
                if v != before.get(k, 0)
            }
        return events, deltas

    def reset(self) -> None:
        """Drop all events and counters."""
        with self._lock:
            self._events.clear()
            self._counters.clear()


# ----------------------------------------------------------------------
# projections of the event list
# ----------------------------------------------------------------------
def path_self_times(spans: list[SpanEvent]) -> dict[str, dict]:
    """Per-path totals with self time: ``{path: {total_s, self_s, calls}}``.

    Self time is a path's total minus the totals of its *direct* child
    paths (one more ``/`` segment).  The span stack guarantees children
    lie inside their parent in time, so the subtraction is exact without
    interval arithmetic — re-parsed traces preserve paths, so the same
    computation works on exported artifacts.
    """
    totals: dict[str, list] = {}  # path -> [calls, seconds]
    for ev in spans:
        entry = totals.get(ev.path)
        if entry is None:
            totals[ev.path] = [1, ev.duration]
        else:
            entry[0] += 1
            entry[1] += ev.duration
    out = {
        path: {"total_s": sec, "self_s": sec, "calls": calls}
        for path, (calls, sec) in totals.items()
    }
    for path, entry in totals.items():
        if PATH_SEP not in path:
            continue
        parent = path.rsplit(PATH_SEP, 1)[0]
        if parent in out:
            out[parent]["self_s"] -= entry[1]
    for entry in out.values():
        # float cancellation can leave a tiny negative residue
        if entry["self_s"] < 0 and entry["self_s"] > -1e-9:
            entry["self_s"] = 0.0
    return out


def without_worker_lanes(spans: list[SpanEvent]) -> list[SpanEvent]:
    """The spans of the run's own timeline: a span on an executor worker
    lane (``rank >= WORKER_LANE_BASE``) and every span nested in one
    are dropped.

    The span that dispatched the work already holds those seconds as
    its wait for the workers, so self-time rows that counted the lanes
    too would count that time twice and no longer sum to ``step``.  The
    lanes are what :func:`repro.instrument.analysis.lane_stats` reports.
    """
    roots = {(ev.thread, ev.path) for ev in spans
             if ev.rank >= WORKER_LANE_BASE}
    if not roots:
        return list(spans)

    def on_lane(ev: SpanEvent) -> bool:
        path = ev.path
        while True:
            if (ev.thread, path) in roots:
                return True
            if PATH_SEP not in path:
                return False
            path = path.rsplit(PATH_SEP, 1)[0]

    return [ev for ev in spans if not on_lane(ev)]


def name_self_times(spans: list[SpanEvent]) -> dict[str, dict]:
    """Self/total time aggregated by leaf name across call sites."""
    out: dict[str, dict] = {}
    for path, entry in path_self_times(spans).items():
        name = path.rsplit(PATH_SEP, 1)[-1]
        agg = out.setdefault(
            name, {"total_s": 0.0, "self_s": 0.0, "calls": 0}
        )
        agg["total_s"] += entry["total_s"]
        agg["self_s"] += entry["self_s"]
        agg["calls"] += entry["calls"]
    return out


# ----------------------------------------------------------------------
# process-global active registry
# ----------------------------------------------------------------------
_active: Registry | NullRegistry = NullRegistry()


def get_registry() -> Registry | NullRegistry:
    """The currently active registry (the shared no-op by default)."""
    return _active


def set_registry(registry: Registry | NullRegistry) -> Registry | NullRegistry:
    """Install ``registry`` as the active one; returns it."""
    global _active
    _active = registry
    return _active


def enable(clock: Callable[[], float] = time.perf_counter) -> Registry:
    """Install and return a fresh live :class:`Registry`."""
    reg = Registry(clock=clock)
    set_registry(reg)
    return reg


def disable() -> NullRegistry:
    """Restore the no-op registry; returns it."""
    null = NullRegistry()
    set_registry(null)
    return null


@contextmanager
def use(registry: Registry | NullRegistry) -> Iterator[Registry | NullRegistry]:
    """Temporarily install ``registry`` (tests; restores the previous one)."""
    previous = _active
    set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


def span(name: str, rank: int = 0):
    """Time a section against the active registry (module-level sugar)."""
    return _active.span(name, rank)


def count(name: str, value: float = 1) -> None:
    """Accumulate into a counter of the active registry."""
    _active.count(name, value)


def timed(name: str):
    """Decorator: run the wrapped callable inside ``span(name)``.

    The active registry is resolved per call, so decorated functions
    respect :func:`enable` / :func:`disable` at runtime.
    """

    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with _active.span(name):
                return fn(*args, **kwargs)

        return wrapper

    return decorator

