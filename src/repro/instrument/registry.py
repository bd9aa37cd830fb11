"""The span-timer / counter registry.

See :mod:`repro.instrument` for the design overview.  Everything here is
pure stdlib — the instrumented science modules must be importable without
dragging in any heavy dependency, and the registry itself must be cheap
enough to leave compiled into every hot path.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

__all__ = [
    "SpanEvent",
    "StepRecord",
    "FakeClock",
    "Registry",
    "NullRegistry",
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


@dataclass(frozen=True)
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

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "path": self.path,
            "start": self.start,
            "end": self.end,
            "thread": self.thread,
            "rank": self.rank,
        }


@dataclass(frozen=True)
class StepRecord:
    """Per-step aggregation: section times and counter deltas.

    One record per ``HACCSimulation.step`` — the unit from which the
    paper's time-per-substep-per-particle columns are computed.
    """

    index: int
    wall_time: float
    sections: dict[str, float]
    calls: dict[str, int]
    counters: dict[str, float]

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "wall_time": self.wall_time,
            "sections": dict(self.sections),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
        }


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
    >>> reg.section_seconds("outer"), reg.section_seconds("inner")
    (2.0, 0.5)
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

    @contextmanager
    def step(self, index: int) -> Iterator[None]:
        yield None

    # -- introspection mirrors of Registry (all empty) -----------------
    @property
    def events(self) -> list[SpanEvent]:
        return []

    @property
    def counters(self) -> dict[str, float]:
        return {}

    @property
    def steps(self) -> list[StepRecord]:
        return []

    def section_totals(self) -> dict[str, dict]:
        return {}

    def section_seconds(self, name: str) -> float:
        return 0.0

    def counter(self, name: str) -> float:
        return 0.0

    def reset(self) -> None:
        return None

    def summary(self) -> dict:
        return {"enabled": False, "sections": {}, "counters": {}, "steps": []}


class Registry:
    """Live instrumentation registry.

    Parameters
    ----------
    clock:
        Zero-argument callable returning monotonically increasing seconds;
        ``time.perf_counter`` by default, a :class:`FakeClock` in tests.
    max_events:
        Cap on retained :class:`SpanEvent` objects (aggregation continues
        past the cap; ``dropped_events`` counts the overflow).  Bounds the
        memory of long runs with per-leaf PP spans.
    """

    enabled = True

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        max_events: int = 200_000,
    ) -> None:
        if max_events < 0:
            raise ValueError(f"max_events must be >= 0: {max_events}")
        self.clock = clock
        self.max_events = int(max_events)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._events: list[SpanEvent] = []
        self.dropped_events = 0
        #: per leaf name: [calls, total seconds]
        self._sections: dict[str, list] = {}
        #: per full path: [calls, total seconds]
        self._paths: dict[str, list] = {}
        self._counters: dict[str, float] = {}
        self._steps: list[StepRecord] = []

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
        duration = end - handle.start
        with self._lock:
            if len(self._events) < self.max_events:
                self._events.append(
                    SpanEvent(
                        name=handle.name,
                        path=handle.path,
                        start=handle.start,
                        end=end,
                        thread=threading.get_ident(),
                        rank=handle.rank,
                    )
                )
            else:
                self.dropped_events += 1
            for key, table in (
                (handle.name, self._sections),
                (handle.path, self._paths),
            ):
                entry = table.get(key)
                if entry is None:
                    table[key] = [1, duration]
                else:
                    entry[0] += 1
                    entry[1] += duration

    # ------------------------------------------------------------------
    # recording API
    # ------------------------------------------------------------------
    def span(self, name: str, rank: int = 0) -> _SpanHandle:
        """Context manager timing ``name``, nested under the open span.

        ``rank`` tags the resulting event with a simulated-rank lane for
        per-rank trace visualization; aggregation ignores it.
        """
        return _SpanHandle(self, name, rank)

    def count(self, name: str, value: float = 1) -> None:
        """Accumulate ``value`` into counter ``name``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    @contextmanager
    def step(self, index: int) -> Iterator[None]:
        """Bracket one simulation step; appends a :class:`StepRecord`."""
        with self._lock:
            sec0 = {k: v[1] for k, v in self._sections.items()}
            calls0 = {k: v[0] for k, v in self._sections.items()}
            ctr0 = dict(self._counters)
        t0 = self.clock()
        try:
            yield None
        finally:
            wall = self.clock() - t0
            with self._lock:
                sections = {
                    k: v[1] - sec0.get(k, 0.0)
                    for k, v in self._sections.items()
                    if v[1] - sec0.get(k, 0.0) > 0.0
                }
                calls = {
                    k: v[0] - calls0.get(k, 0)
                    for k, v in self._sections.items()
                    if v[0] - calls0.get(k, 0) > 0
                }
                counters = {
                    k: v - ctr0.get(k, 0)
                    for k, v in self._counters.items()
                    if v != ctr0.get(k, 0)
                }
                self._steps.append(
                    StepRecord(
                        index=index,
                        wall_time=wall,
                        sections=sections,
                        calls=calls,
                        counters=counters,
                    )
                )

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

    @property
    def steps(self) -> list[StepRecord]:
        with self._lock:
            return list(self._steps)

    def section_totals(self) -> dict[str, dict]:
        """Aggregates by leaf name: ``{name: {calls, seconds}}``."""
        with self._lock:
            return {
                k: {"calls": v[0], "seconds": v[1]}
                for k, v in self._sections.items()
            }

    def path_totals(self) -> dict[str, dict]:
        """Aggregates by full nesting path."""
        with self._lock:
            return {
                k: {"calls": v[0], "seconds": v[1]}
                for k, v in self._paths.items()
            }

    def section_seconds(self, name: str) -> float:
        with self._lock:
            entry = self._sections.get(name)
            return entry[1] if entry else 0.0

    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0)

    def reset(self) -> None:
        """Drop all events, aggregates, counters and step records."""
        with self._lock:
            self._events.clear()
            self._sections.clear()
            self._paths.clear()
            self._counters.clear()
            self._steps.clear()
            self.dropped_events = 0

    def summary(self) -> dict:
        """Plain-dict snapshot for logs and BENCH records."""
        return {
            "enabled": True,
            "sections": self.section_totals(),
            "counters": self.counters,
            "steps": [s.to_dict() for s in self.steps],
            "dropped_events": self.dropped_events,
        }


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


def enable(
    clock: Callable[[], float] = time.perf_counter,
    max_events: int = 200_000,
) -> Registry:
    """Install and return a fresh live :class:`Registry`."""
    reg = Registry(clock=clock, max_events=max_events)
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

