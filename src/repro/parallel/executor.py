"""Rank executor: run the simulated rank fleet concurrently.

The paper's evaluation is built on hybrid parallelism — MPI ranks across
nodes plus OpenMP threads within a node (Section IV, Fig. 5).  In this
reproduction the ranks are simulated in one process, but the *structure*
is the same: between bulk-synchronous :class:`~repro.parallel.comm.
SimulatedComm` collectives, each rank's short-range solve is independent
work.  The :class:`RankExecutor` maps that work onto one of two
interchangeable backends:

``serial``
    An ordered in-thread loop.  The default, and the reference the
    thread backend must match bit-for-bit.
``thread``
    A persistent :class:`~concurrent.futures.ThreadPoolExecutor`.  The
    compiled pair kernel releases the GIL, so rank solves genuinely
    overlap (the analogue of the paper's OpenMP threads within a node,
    which thread the short-range force kernel, Fig. 5).  The long-range
    PM solve stays serial, as in the paper's measured runs.

Determinism contract: the executor changes **where** tasks run, never
**what** they compute or the order results are consumed.  Each task is
one rank's whole solve and ``map`` returns results in payload order:
the caller reduces the floating-point results (the acceleration
scatter, telemetry gauges) in that fixed order, while a task charges
its integer work counters where it runs, exact in any order.  So every
``(backend, workers)`` pair gives the bits and the counts of serial at
``workers=1`` (tests pin both), and a failing task is a
:class:`WorkerError` naming its rank on every backend.  Collectives
stay atomic: the executor joins all ranks before any
:class:`SimulatedComm` call, exactly the bulk-synchronous structure of
the paper's code.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

from repro.instrument.registry import WORKER_LANE_BASE, get_registry

__all__ = [
    "EXECUTOR_BACKENDS",
    "WORKER_LANE_BASE",
    "WorkerError",
    "RankExecutor",
]

#: the interchangeable execution backends, in "distance from serial" order
EXECUTOR_BACKENDS = ("serial", "thread")


class WorkerError(RuntimeError):
    """A task raised inside the executor.

    Carries the simulated ``rank`` of the failing task (the first failure
    in payload order, so which rank is reported is deterministic even
    when several fail concurrently) and chains the original exception.
    """

    def __init__(self, rank: int, original: BaseException) -> None:
        super().__init__(
            f"rank {rank} task failed: "
            f"{type(original).__name__}: {original}"
        )
        self.rank = int(rank)
        self.original = original


class RankExecutor:
    """Dispatch independent rank-local tasks onto a worker backend.

    Parameters
    ----------
    backend:
        ``"serial"`` or ``"thread"``.
    workers:
        Worker count (must be >= 1): how many threads the thread
        backend runs tasks on.  It never changes a result.

    Notes
    -----
    The thread pool is created lazily on first dispatch and persists
    until :meth:`close` — per-step dispatch reuses warm workers and warm
    NumPy buffers.  The executor is also a context manager.
    """

    def __init__(self, backend: str = "serial", workers: int = 1) -> None:
        if backend not in EXECUTOR_BACKENDS:
            raise ValueError(
                f"backend must be one of {EXECUTOR_BACKENDS}, "
                f"got {backend!r}"
            )
        if workers < 1:
            raise ValueError(f"workers must be >= 1: {workers}")
        self.backend = backend
        self.workers = int(workers)
        self._threads: ThreadPoolExecutor | None = None
        self._lanes: dict[int, int] = {}  # thread ident -> lane
        self._lane_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    @classmethod
    def from_config(cls, config) -> "RankExecutor":
        """Build from ``config.executor`` / ``config.workers``."""
        return cls(
            backend=getattr(config, "executor", "serial"),
            workers=getattr(config, "workers", 1),
        )

    @property
    def _threaded(self) -> bool:
        return self.backend == "thread" and self.workers > 1

    # ------------------------------------------------------------------
    # lanes
    # ------------------------------------------------------------------
    def _lane(self, key: int) -> int:
        """Stable worker-lane id for a thread ident."""
        with self._lane_lock:
            lane = self._lanes.get(key)
            if lane is None:
                lane = WORKER_LANE_BASE + len(self._lanes)
                self._lanes[key] = lane
            return lane

    def _on_lane(self, label: str, fn: Callable):
        """Run ``fn()`` under a span on the calling thread's worker lane."""
        reg = get_registry()
        if reg.enabled:
            with reg.span(label, rank=self._lane(threading.get_ident())):
                return fn()
        return fn()

    # ------------------------------------------------------------------
    # dispatch bookkeeping
    # ------------------------------------------------------------------
    def _charge_dispatch(self, n_tasks: int, n_envelopes: int,
                         seconds: float) -> None:
        """Record dispatch overhead honestly on the parent registry."""
        reg = get_registry()
        if reg.enabled:
            reg.count("executor.dispatches", 1)
            reg.count("executor.tasks", n_tasks)
            reg.count("executor.envelopes", n_envelopes)
            reg.count("executor.dispatch_s", seconds)

    def _chunk_bounds(self, n: int) -> list[tuple[int, int]]:
        """Contiguous chunk boundaries for an ``n``-payload dispatch.

        One chunk per worker when payloads outnumber workers (per-dispatch
        cost scales with workers, not domains), one payload per chunk
        otherwise.  Chunks are a pure scheduling decision — results are
        flattened back to payload order, so values are identical to
        per-payload dispatch.
        """
        k = min(self.workers, n)
        bounds = [n * i // k for i in range(k + 1)]
        return [(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def map(
        self,
        fn: Callable,
        payloads: Sequence,
        *,
        ranks: Sequence[int] | None = None,
        label: str = "executor.task",
    ) -> list:
        """Run ``fn(payload)`` for every payload; results in input order.

        ``ranks`` names the simulated rank behind each payload for error
        attribution and defaults to the payload index.  The first failing
        task *in payload order* is re-raised as :class:`WorkerError`.
        """
        payloads = list(payloads)
        if ranks is None:
            ranks = range(len(payloads))
        ranks = [int(r) for r in ranks]
        if len(ranks) != len(payloads):
            raise ValueError(
                f"{len(ranks)} ranks for {len(payloads)} payloads"
            )
        if not payloads:
            return []
        if self._threaded:
            return self._map_thread(fn, payloads, ranks, label)
        return self._map_serial(fn, payloads, ranks)

    # -- serial ---------------------------------------------------------
    @staticmethod
    def _map_serial(fn, payloads, ranks) -> list:
        out = []
        for rank, payload in zip(ranks, payloads):
            try:
                out.append(fn(payload))
            except WorkerError:
                raise
            except Exception as exc:
                raise WorkerError(rank, exc) from exc
        return out

    # -- thread ---------------------------------------------------------
    def _ensure_threads(self) -> ThreadPoolExecutor:
        if self._threads is None:
            if self._closed:
                raise RuntimeError("executor is closed")
            self._threads = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-exec",
            )
        return self._threads

    def _map_thread(self, fn, payloads, ranks, label) -> list:
        pool = self._ensure_threads()
        t0 = time.perf_counter()
        chunks = self._chunk_bounds(len(payloads))

        def run_chunk(chunk_payloads):
            results = []
            for payload in chunk_payloads:
                try:
                    results.append((True, fn(payload)))
                except Exception as exc:
                    results.append((False, exc))
            return results

        futures = [
            pool.submit(
                self._on_lane, label,
                lambda part=payloads[a:b]: run_chunk(part),
            )
            for a, b in chunks
        ]
        self._charge_dispatch(
            len(payloads), len(chunks), time.perf_counter() - t0
        )
        out, failure = [], None
        for (a, b), fut in zip(chunks, futures):
            for rank, (ok, value) in zip(ranks[a:b], fut.result()):
                if not ok and failure is None:
                    failure = (rank, value)
                out.append(value if ok else None)
        if failure is not None:
            rank, exc = failure
            if isinstance(exc, WorkerError):
                raise exc
            raise WorkerError(rank, exc) from exc
        return out

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the thread pool down (idempotent)."""
        self._closed = True
        if self._threads is not None:
            self._threads.shutdown(wait=True)
            self._threads = None

    def __enter__(self) -> "RankExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RankExecutor(backend={self.backend!r}, "
            f"workers={self.workers})"
        )
