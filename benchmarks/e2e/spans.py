"""In-memory spans for the traced run: ``(name, start, end, parent)``.

The tracer lives in the benchmark, not in the program: the traced child
wraps the public callables of the simulation it built (``wrap``) and
brackets its own direct calls (``span``).  Times are integer nanoseconds
from an injectable clock, so a budget's rows add up to its wall exactly
and the self-test can drive the arithmetic from a fake clock.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

__all__ = ["Tracer", "budget_rows", "self_times"]


class Tracer:
    """Records nested spans in call order; single-threaded by design
    (only the child's driver thread opens spans)."""

    def __init__(self, clock_ns=time.perf_counter_ns) -> None:
        self._clock = clock_ns
        #: ``[name, start_ns, end_ns, parent_index_or_None]`` per span
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, self._clock(), None, parent])
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.spans[index][2] = self._clock()

    def wrap(self, obj, attr: str, name: str) -> None:
        """Replace ``obj.attr`` with a version that runs inside a span."""
        inner = getattr(obj, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(obj, attr, traced)


def self_times(spans: list) -> list[int]:
    """Self time of each span: its duration minus its direct children's."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def budget_rows(spans: list, wall_ns: int, exclude: str = "harness.probes"):
    """The closed wall-clock budget of one traced child.

    Returns ``(budget_wall_ns, rows)``.  ``rows`` is a list of
    ``(depth, name, ns)``: every top-level span in call order, each
    followed by its children (same-name siblings summed) and a
    ``<layer>.self`` remainder, and a final ``unattributed`` row that
    holds whatever of the process wall no top-level span covers
    (interpreter start, teardown, gaps).  Top-level spans named
    ``exclude`` — the layer probes — are left out of the table and their
    time is taken off the wall, so the depth-0 rows always sum to
    ``budget_wall_ns`` exactly.
    """
    children: dict[int, list[int]] = {}
    for i, (_, _, _, parent) in enumerate(spans):
        if parent is not None:
            children.setdefault(parent, []).append(i)

    def dur(group: list[int]) -> int:
        return sum(spans[i][2] - spans[i][1] for i in group)

    rows: list[tuple[int, str, int]] = []

    def emit(group: list[int], depth: int) -> None:
        """One row for same-name siblings, then their children by name."""
        rows.append((depth, spans[group[0]][0], dur(group)))
        by_name: dict[str, list[int]] = {}
        for i in group:
            for k in children.get(i, []):
                by_name.setdefault(spans[k][0], []).append(k)
        if not by_name:
            return
        for kids in by_name.values():
            emit(kids, depth + 1)
        rows.append(
            (depth + 1, "self",
             dur(group) - sum(dur(kids) for kids in by_name.values()))
        )

    budget_wall = wall_ns
    covered = 0
    for i, (name, _, _, parent) in enumerate(spans):
        if parent is not None:
            continue
        if name == exclude:
            budget_wall -= dur([i])
            continue
        emit([i], 0)
        covered += dur([i])
    rows.append((0, "unattributed", budget_wall - covered))
    return budget_wall, rows
