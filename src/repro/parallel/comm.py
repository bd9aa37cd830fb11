"""In-process simulated MPI communicator with byte-accurate accounting.

Design
------
Rank-local state is held by the *caller* (one NumPy array per rank).
Overloading keeps the short-range solve rank-local, so a run's only
particle traffic is the FFT transposes, through ``alltoallv`` over
*lists indexed by rank*, and the overload exchange, whose route writes
every rank's receive buffer in place and which records its messages
with ``charge``, as ``alltoallv`` does.  Because every rank's
contribution is passed in a single call, the collective is executed
atomically and deterministically; there is no interleaving to get
wrong, yet the data movement (who sends how many bytes to whom) is
exactly what an MPI implementation would perform, and it is recorded in
:class:`CommStats` for the machine model.

Sub-communicators created with :meth:`~SimulatedComm.split` share the
parent's statistics object, mirroring how MPI communicators share the
underlying network.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.instrument import get_registry

__all__ = ["CommStats", "SimulatedComm"]


@dataclass
class CommStats:
    """Cumulative communication traffic recorded by a communicator tree.

    Parameters
    ----------
    n_ranks:
        Size of the ``n_ranks x n_ranks`` byte matrix indexed by
        *global* rank ids (``byte_matrix[src, dst]``) — the per-rank
        communication volume behind the paper's pencil-FFT transpose
        accounting (Figs. 7-8) and the driver's ``comm_bytes`` gauge.
    """

    n_ranks: int
    messages: int = 0
    bytes: int = 0
    by_tag: dict = field(default_factory=lambda: defaultdict(lambda: [0, 0]))

    def __post_init__(self) -> None:
        if self.n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1: {self.n_ranks}")
        self.byte_matrix = np.zeros((self.n_ranks, self.n_ranks), np.int64)

    def record(self, tag: str, pairs: Sequence[tuple[int, int, int]]) -> None:
        """Add the messages ``pairs`` under phase ``tag``.

        Each pair is ``(src_global_rank, dst_global_rank, n_bytes)``.
        Traffic is mirrored into the active instrument registry (no-op
        by default) as ``comm.messages`` / ``comm.bytes`` totals plus a
        per-tag ``comm.bytes[<tag>]`` breakdown, so profiled runs report
        message volume — notably the FFT transpose volume — alongside
        the section timers.
        """
        n_bytes = 0
        for src, dst, size in pairs:
            self.byte_matrix[src, dst] += size
            n_bytes += size
        self.messages += len(pairs)
        self.bytes += n_bytes
        entry = self.by_tag[tag]
        entry[0] += len(pairs)
        entry[1] += n_bytes
        reg = get_registry()
        if reg.enabled:
            reg.count("comm.messages", len(pairs))
            reg.count("comm.bytes", n_bytes)
            reg.count(f"comm.bytes[{tag}]", n_bytes)

    def tag_bytes(self, tag: str) -> int:
        """Bytes recorded under ``tag`` (0 if the tag never appeared)."""
        return self.by_tag[tag][1] if tag in self.by_tag else 0

    def rank_send_bytes(self) -> np.ndarray:
        """Bytes sent per global rank (matrix row sums)."""
        return self.byte_matrix.sum(axis=1)


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o) for o in obj)
    raise TypeError(f"cannot measure message size for type {type(obj)!r}")


class SimulatedComm:
    """A communicator over ``size`` simulated ranks.

    Parameters
    ----------
    size:
        Number of ranks.
    stats:
        Optional shared :class:`CommStats`; by default a fresh one is made.
    members:
        Global rank ids of the members (used by sub-communicators so that
        traffic can still be attributed to global ranks).

    Examples
    --------
    >>> comm = SimulatedComm(2)
    >>> out = comm.alltoallv([[np.zeros(1), np.ones(2)],
    ...                       [np.zeros(3), np.ones(4)]], tag="demo")
    >>> [len(b) for b in out[0]], [len(b) for b in out[1]]
    ([1, 3], [2, 4])
    """

    def __init__(
        self,
        size: int,
        stats: CommStats | None = None,
        members: Sequence[int] | None = None,
    ) -> None:
        if size < 1:
            raise ValueError(f"communicator size must be >= 1, got {size}")
        self.size = int(size)
        self.stats = stats if stats is not None else CommStats(n_ranks=size)
        self.members = (
            tuple(range(size)) if members is None else tuple(members)
        )
        if len(self.members) != self.size:
            raise ValueError("members must have exactly `size` entries")
        if max(self.members) >= self.stats.n_ranks:
            raise ValueError(
                f"member rank {max(self.members)} exceeds the stats matrix "
                f"size {self.stats.n_ranks}"
            )

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimulatedComm(size={self.size})"

    def alltoallv(
        self, sendbufs: Sequence[Sequence], tag: str = "alltoallv"
    ) -> list[list]:
        """Variable-size all-to-all.

        ``sendbufs[i][j]`` is the payload rank ``i`` sends to rank ``j``
        (a NumPy array or a tuple of them, possibly empty, or ``None``).
        Returns ``recv`` with ``recv[j][i] = sendbufs[i][j]``.
        Self-messages (``i == j``) are delivered but not charged to the
        network, matching MPI implementations that short-circuit self
        sends through memcpy.
        """
        n = self.size
        if len(sendbufs) != n:
            raise ValueError(
                f"expected {n} send rows, got {len(sendbufs)}"
            )
        sizes = np.zeros((n, n), dtype=np.int64)
        recv: list[list] = [[None] * n for _ in range(n)]
        for i, row in enumerate(sendbufs):
            if len(row) != n:
                raise ValueError(
                    f"send row {i} has {len(row)} entries, expected {n}"
                )
            for j, payload in enumerate(row):
                recv[j][i] = payload
                if payload is not None:
                    sizes[i, j] = _nbytes(payload)
        self.charge(sizes, tag)
        return recv

    def charge(self, sizes: np.ndarray, tag: str) -> None:
        """Record an all-to-all of ``sizes[i, j]`` bytes from member
        ``i`` to member ``j``; self-messages and empty ones are free."""
        members = self.members
        self.stats.record(tag, [
            (members[i], members[j], int(sizes[i, j]))
            for i in range(self.size) for j in range(self.size)
            if i != j and sizes[i, j]
        ])

    def split(self, colors: Sequence[int]) -> list["SimulatedComm"]:
        """Partition ranks into sub-communicators by color (MPI_Comm_split).

        Returns one communicator per distinct color, ordered by color; all
        children share this communicator's :class:`CommStats`.
        """
        if len(colors) != self.size:
            raise ValueError(
                f"expected {self.size} colors, got {len(colors)}"
            )
        groups: dict[int, list[int]] = defaultdict(list)
        for rank, color in enumerate(colors):
            groups[int(color)].append(rank)
        return [
            SimulatedComm(
                len(ranks),
                stats=self.stats,
                members=tuple(self.members[r] for r in ranks),
            )
            for _, ranks in sorted(groups.items())
        ]
