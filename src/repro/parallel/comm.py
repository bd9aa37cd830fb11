"""In-process simulated MPI communicator with byte-accurate accounting.

Design
------
Rank-local state is held by the *caller* (one NumPy array per rank);
:class:`SimulatedComm` implements the bulk-synchronous collectives the HACC
algorithms need — ``alltoallv``, ``exchange`` (sparse point-to-point
batches), ``allreduce``, ``allgather`` — operating on *lists indexed by
rank*.  Because every rank's contribution is passed in a single call, the
collective is executed atomically and deterministically; there is no
interleaving to get wrong, yet the data movement (who sends how many bytes
to whom) is exactly what an MPI implementation would perform, and it is
recorded in :class:`CommStats` for the machine model.

Sub-communicators created with :meth:`split` share the parent's statistics
object, mirroring how MPI communicators share the underlying network.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.instrument import get_registry

__all__ = ["CommStats", "SimulatedComm"]


#: log2 message-size histogram buckets: bucket ``b`` holds messages whose
#: byte count has ``bit_length() == b``, i.e. sizes in ``[2^(b-1), 2^b)``
HISTOGRAM_BUCKETS = 48


@dataclass
class CommStats:
    """Cumulative communication traffic recorded by a communicator tree.

    Parameters
    ----------
    n_ranks:
        When given, per-pair traffic (the point-to-point collectives:
        ``alltoallv`` and ``exchange``) is additionally accumulated into
        ``n_ranks x n_ranks`` message/byte matrices indexed by *global*
        rank ids — the per-rank communication volume behind the paper's
        pencil-FFT transpose accounting (Figs. 7-8).  Tree-modelled
        collectives (allreduce/allgather/barrier) have no physical
        (src, dst) pairs and appear only in the aggregate counters.
    """

    messages: int = 0
    bytes: int = 0
    by_tag: dict = field(default_factory=lambda: defaultdict(lambda: [0, 0]))
    n_ranks: int | None = None

    def __post_init__(self) -> None:
        self.msg_matrix: np.ndarray | None = None
        self.byte_matrix: np.ndarray | None = None
        if self.n_ranks is not None:
            if self.n_ranks < 1:
                raise ValueError(f"n_ranks must be >= 1: {self.n_ranks}")
            self.msg_matrix = np.zeros(
                (self.n_ranks, self.n_ranks), dtype=np.int64
            )
            self.byte_matrix = np.zeros(
                (self.n_ranks, self.n_ranks), dtype=np.int64
            )
        #: per-tag log2 message-size histograms (lazily created)
        self.by_tag_hist: dict[str, np.ndarray] = {}

    @property
    def matrix_enabled(self) -> bool:
        return self.byte_matrix is not None

    def record(
        self,
        n_messages: int,
        n_bytes: int,
        tag: str,
        pairs: Iterable[tuple[int, int, int]] | None = None,
    ) -> None:
        """Add ``n_messages`` totalling ``n_bytes`` under phase ``tag``.

        ``pairs`` optionally itemizes the same traffic as
        ``(src_global_rank, dst_global_rank, n_bytes)`` triples; when
        present they feed the rank-pair matrices and the per-tag
        message-size histogram.  Traffic is mirrored into the active
        instrument registry (no-op by default) as ``comm.messages`` /
        ``comm.bytes`` totals plus a per-tag ``comm.bytes[<tag>]``
        breakdown, so profiled runs report message volume — notably the
        FFT transpose volume — alongside the section timers.
        """
        self.messages += int(n_messages)
        self.bytes += int(n_bytes)
        entry = self.by_tag[tag]
        entry[0] += int(n_messages)
        entry[1] += int(n_bytes)
        if pairs:
            hist = self.by_tag_hist.get(tag)
            if hist is None:
                hist = np.zeros(HISTOGRAM_BUCKETS, dtype=np.int64)
                self.by_tag_hist[tag] = hist
            mm, bm = self.msg_matrix, self.byte_matrix
            for src, dst, size in pairs:
                hist[min(int(size).bit_length(), HISTOGRAM_BUCKETS - 1)] += 1
                if bm is not None:
                    mm[src, dst] += 1
                    bm[src, dst] += size
        reg = get_registry()
        if reg.enabled:
            reg.count("comm.messages", int(n_messages))
            reg.count("comm.bytes", int(n_bytes))
            reg.count(f"comm.bytes[{tag}]", int(n_bytes))

    def reset(self) -> None:
        """Zero all counters, matrices and histograms."""
        self.messages = 0
        self.bytes = 0
        self.by_tag.clear()
        self.by_tag_hist.clear()
        if self.msg_matrix is not None:
            self.msg_matrix[:] = 0
            self.byte_matrix[:] = 0

    def tag_bytes(self, tag: str) -> int:
        """Bytes recorded under ``tag`` (0 if the tag never appeared)."""
        return self.by_tag[tag][1] if tag in self.by_tag else 0

    def tag_messages(self, tag: str) -> int:
        """Messages recorded under ``tag`` (0 if the tag never appeared)."""
        return self.by_tag[tag][0] if tag in self.by_tag else 0

    def tag_histogram(self, tag: str) -> np.ndarray:
        """Log2 message-size histogram for ``tag`` (zeros if absent).

        Bucket ``b`` counts messages with ``size.bit_length() == b``,
        i.e. sizes in ``[2^(b-1), 2^b)`` bytes.
        """
        hist = self.by_tag_hist.get(tag)
        if hist is None:
            return np.zeros(HISTOGRAM_BUCKETS, dtype=np.int64)
        return hist.copy()

    def rank_send_bytes(self) -> np.ndarray:
        """Bytes sent per global rank (matrix row sums)."""
        if self.byte_matrix is None:
            raise RuntimeError(
                "rank matrices disabled; construct CommStats(n_ranks=...)"
            )
        return self.byte_matrix.sum(axis=1)

    def rank_recv_bytes(self) -> np.ndarray:
        """Bytes received per global rank (matrix column sums)."""
        if self.byte_matrix is None:
            raise RuntimeError(
                "rank matrices disabled; construct CommStats(n_ranks=...)"
            )
        return self.byte_matrix.sum(axis=0)

    def summary(self) -> dict:
        """Plain-dict snapshot, convenient for logging and benchmarks.

        Per-tag entries carry explicit ``messages`` *and* ``bytes``
        counts (plus the size histogram when per-pair traffic was
        recorded); rank totals appear when the matrices are enabled.
        """
        out = {
            "messages": self.messages,
            "bytes": self.bytes,
            "by_tag": {
                k: {"messages": v[0], "bytes": v[1]}
                for k, v in self.by_tag.items()
            },
        }
        for tag, hist in self.by_tag_hist.items():
            out["by_tag"][tag]["size_histogram"] = {
                int(b): int(c) for b, c in enumerate(hist) if c
            }
        if self.byte_matrix is not None:
            out["rank_send_bytes"] = self.rank_send_bytes().tolist()
            out["rank_recv_bytes"] = self.rank_recv_bytes().tolist()
        return out


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, (int, float, complex, np.generic)):
        return np.asarray(obj).nbytes
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
        if self.stats.matrix_enabled and max(self.members) >= self.stats.n_ranks:
            raise ValueError(
                f"member rank {max(self.members)} exceeds the stats matrix "
                f"size {self.stats.n_ranks}"
            )

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimulatedComm(size={self.size})"

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def alltoallv(
        self, sendbufs: Sequence[Sequence], tag: str = "alltoallv"
    ) -> list[list]:
        """Variable-size all-to-all.

        ``sendbufs[i][j]`` is the payload rank ``i`` sends to rank ``j``
        (any NumPy array, possibly empty).  Returns ``recv`` with
        ``recv[j][i] = sendbufs[i][j]``.  Self-messages (``i == j``) are
        delivered but not charged to the network, matching MPI
        implementations that short-circuit self sends through memcpy.
        """
        n = self.size
        if len(sendbufs) != n:
            raise ValueError(
                f"expected {n} send rows, got {len(sendbufs)}"
            )
        msgs = 0
        nbytes = 0
        pairs: list[tuple[int, int, int]] = []
        members = self.members
        recv: list[list] = [[None] * n for _ in range(n)]
        for i, row in enumerate(sendbufs):
            if len(row) != n:
                raise ValueError(
                    f"send row {i} has {len(row)} entries, expected {n}"
                )
            for j, payload in enumerate(row):
                recv[j][i] = payload
                if i != j and payload is not None:
                    size = _nbytes(payload)
                    if size:
                        msgs += 1
                        nbytes += size
                        pairs.append((members[i], members[j], size))
        self.stats.record(msgs, nbytes, tag, pairs=pairs)
        return recv

    def exchange(
        self, sends: Mapping[tuple[int, int], np.ndarray], tag: str = "exchange"
    ) -> dict[tuple[int, int], np.ndarray]:
        """Sparse batched point-to-point exchange.

        ``sends[(src, dst)]`` is delivered to ``dst``; the result maps the
        same keys (so receivers look up by ``(src, dst)``).  This is the
        particle-overloading communication pattern: each rank talks only to
        its 26 spatial neighbors.
        """
        msgs = 0
        nbytes = 0
        pairs: list[tuple[int, int, int]] = []
        members = self.members
        for (src, dst), payload in sends.items():
            self._check_rank(src)
            self._check_rank(dst)
            if src != dst and payload is not None:
                size = _nbytes(payload)
                if size:
                    msgs += 1
                    nbytes += size
                    pairs.append((members[src], members[dst], size))
        self.stats.record(msgs, nbytes, tag, pairs=pairs)
        return dict(sends)

    def allreduce(
        self, values: Sequence, op: Callable = sum, tag: str = "allreduce"
    ):
        """Reduce one value per rank with ``op`` and broadcast the result.

        ``op`` receives the list of per-rank values.  Traffic is charged as
        a binary-tree reduction + broadcast: ``2 (size-1)`` messages.
        """
        if len(values) != self.size:
            raise ValueError(
                f"expected {self.size} values, got {len(values)}"
            )
        result = op(list(values))
        per_msg = _nbytes(values[0]) if self.size else 0
        self.stats.record(2 * (self.size - 1), 2 * (self.size - 1) * per_msg, tag)
        return result

    def allgather(self, values: Sequence, tag: str = "allgather") -> list:
        """Gather one value from every rank to all ranks.

        Traffic model: recursive doubling, each rank ends up receiving
        ``size - 1`` remote contributions.
        """
        if len(values) != self.size:
            raise ValueError(
                f"expected {self.size} values, got {len(values)}"
            )
        nbytes = sum(_nbytes(v) for v in values)
        self.stats.record(
            self.size * (self.size - 1),
            (self.size - 1) * nbytes,
            tag,
        )
        return list(values)

    def barrier(self, tag: str = "barrier") -> None:
        """Synchronization point; charged as a tree barrier."""
        self.stats.record(2 * (self.size - 1), 0, tag)

    # ------------------------------------------------------------------
    # topology helpers
    # ------------------------------------------------------------------
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

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise ValueError(
                f"rank {rank} out of range for communicator of size {self.size}"
            )
