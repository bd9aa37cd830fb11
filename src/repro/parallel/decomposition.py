"""Regular (non-cubic) 3-D block domain decomposition.

HACC decomposes the periodic box into a ``gx x gy x gz`` grid of
rectangular rank domains (Section II; Table II lists geometries such as
``192x128x64``).  This module provides the geometry: rank <-> block
mapping, block bounds, particle-to-rank assignment, and
:func:`balanced_dims`, which picks a balanced factorization of a rank
count the way the paper's run configurations do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DomainDecomposition", "balanced_dims"]


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        while n % f == 0:
            out.append(f)
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def balanced_dims(n_ranks: int, ndim: int = 3) -> tuple[int, ...]:
    """Factor ``n_ranks`` into ``ndim`` near-equal dimensions.

    Greedy: assign prime factors (largest first) to the currently smallest
    dimension.  ``balanced_dims(2048)`` gives (16, 16, 8) — compare the
    paper's 16x16x8-style geometries.
    """
    if n_ranks < 1:
        raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
    dims = [1] * ndim
    for p in sorted(_prime_factors(n_ranks), reverse=True):
        dims[int(np.argmin(dims))] *= p
    return tuple(sorted(dims, reverse=True))


@dataclass(frozen=True)
class DomainDecomposition:
    """Geometry of a 3-D block decomposition of a periodic box.

    Parameters
    ----------
    box_size:
        Periodic box side length (Mpc/h).
    dims:
        Rank grid ``(gx, gy, gz)``.

    Examples
    --------
    >>> d = DomainDecomposition(100.0, (2, 2, 1))
    >>> d.n_ranks
    4
    >>> d.rank_of_coords((1, 0, 0))
    2
    """

    box_size: float
    dims: tuple[int, int, int]

    def __post_init__(self) -> None:
        if self.box_size <= 0:
            raise ValueError(f"box_size must be positive: {self.box_size}")
        if len(self.dims) != 3 or any(d < 1 for d in self.dims):
            raise ValueError(f"dims must be three positive ints: {self.dims}")

    # ------------------------------------------------------------------
    @property
    def n_ranks(self) -> int:
        return self.dims[0] * self.dims[1] * self.dims[2]

    @property
    def widths(self) -> tuple[float, float, float]:
        """Per-axis rank-domain widths (Mpc/h)."""
        return tuple(self.box_size / d for d in self.dims)  # type: ignore[return-value]

    def coords_of_rank(self, rank: int) -> tuple[int, int, int]:
        """Block coordinates (ix, iy, iz) for a linear rank id."""
        gx, gy, gz = self.dims
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range (0..{self.n_ranks - 1})")
        iz = rank % gz
        iy = (rank // gz) % gy
        ix = rank // (gy * gz)
        return ix, iy, iz

    def rank_of_coords(self, coords) -> int:
        """Linear rank id for block coordinates (periodic wrap applied)."""
        return int(self.rank_of_cells(np.array([[int(c) for c in coords]]))[0])

    def rank_of_cells(self, cells: np.ndarray) -> np.ndarray:
        """Linear rank ids for an ``(n, 3)`` int array of block coordinates
        (periodic wrap applied)."""
        _, gy, gz = self.dims
        c = np.mod(cells, self.dims)
        return (c[:, 0] * gy + c[:, 1]) * gz + c[:, 2]

    def bounds(self, rank: int) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) corner coordinates of a rank's domain, Mpc/h."""
        coords = np.asarray(self.coords_of_rank(rank), dtype=np.float64)
        w = np.asarray(self.widths)
        lo = coords * w
        return lo, lo + w

    # ------------------------------------------------------------------
    def assign(self, positions: np.ndarray) -> np.ndarray:
        """Home rank id for each particle position (positions wrapped)."""
        pos = np.mod(np.asarray(positions, dtype=np.float64), self.box_size)
        dims = np.asarray(self.dims)
        cell = np.floor(pos / self.box_size * dims).astype(np.int64)
        # guard against pos == box_size after round-off
        np.clip(cell, 0, dims - 1, out=cell)
        return self.rank_of_cells(cell)

    # ------------------------------------------------------------------
    def overload_volume_factor(self, depth: float) -> float:
        """Ratio of overloaded to owned volume, ``prod (w_i + 2 d) / w_i``.

        This is the paper's ~10% memory-overhead estimate for production
        geometries, and the quantity that blows up in the strong-scaling
        'abuse' regime of Table III.
        """
        if depth < 0:
            raise ValueError(f"depth must be non-negative: {depth}")
        factor = 1.0
        for w in self.widths:
            if 2 * depth >= w:
                raise ValueError(
                    f"overload depth {depth} too large for domain width {w}"
                )
            factor *= (w + 2.0 * depth) / w
        return factor
