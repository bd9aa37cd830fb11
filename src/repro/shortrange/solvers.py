"""Short-range solver backends: PPTreePM, P3M and a direct reference.

All backends evaluate the same fitted short-range kernel
(:class:`repro.shortrange.kernel.ShortRangeKernel`) and therefore agree to
machine precision on small systems — that algorithm-independence is the
paper's cross-validation strategy ("the availability of multiple
algorithms within the HACC framework allows us to carry out careful error
analyses").

Backends operate on a *particle cloud without periodicity*: in the
multi-rank configuration the cloud is an overloaded domain whose passive
replicas provide the boundary sources; in single-rank (whole box) mode
:func:`periodic_ghosts` appends shifted images of particles near the box
faces.  In both cases only the first ``n_targets`` particles receive
forces.

Every solver charges its pair work once, on the thread that did it, and
keeps the last call's ``(streamed, inside)`` counts as ``last_pairs``.
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod

import numpy as np

from repro.instrument import get_registry
from repro.instrument.perfcount import charge_pairs
from repro.shortrange.batch import (
    BatchedPairEngine,
    InteractionBatch,
    tighten_ranges,
)
from repro.shortrange.kernel import ShortRangeKernel

__all__ = [
    "periodic_ghosts",
    "DirectShortRange",
    "TreePMShortRange",
    "P3MShortRange",
    "build_solver",
]


def periodic_ghosts(
    positions: np.ndarray,
    masses: np.ndarray,
    box_size: float,
    rcut: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Append periodic image particles within ``rcut`` of the box faces.

    Returns the augmented ``(positions, masses)``; the originals occupy
    the first N rows.  This plays the role particle overloading plays
    across rank boundaries, for the single-rank whole-box configuration.
    """
    if box_size <= 0:
        raise ValueError(f"box_size must be positive: {box_size}")
    if not 0 < rcut < box_size / 2:
        raise ValueError(
            f"rcut must lie in (0, box/2): rcut={rcut}, box={box_size}"
        )
    # preserve the caller's precision: an f32 run keeps f32 ghosts
    dt = np.asarray(positions).dtype
    if dt not in (np.float32, np.float64):
        dt = np.dtype(np.float64)
    pos = np.mod(np.asarray(positions, dtype=dt), dt.type(box_size))
    m = np.asarray(masses, dtype=dt)
    # shift -1 needs pos near the high face, +1 near the low face; each
    # offset's rows are the AND of its one to three face masks, offset
    # by offset (``ox, oy, oz`` order) and ascending within one, so a
    # corner image is emitted exactly once
    faces = [(pos[:, a] >= box_size - rcut, None, pos[:, a] < rcut)
             for a in range(3)]
    shift = dt.type(box_size)
    pos_parts, m_parts = [pos], [m]
    for off in np.ndindex(3, 3, 3):
        masks = [faces[a][o] for a, o in enumerate(off) if o != 1]
        if not masks:
            continue
        rows = np.flatnonzero(functools.reduce(np.logical_and, masks))
        # the shift in the positions' dtype: +-box is exact in float32
        pos_parts.append(pos[rows] + (np.array(off, dtype=dt) - 1) * shift)
        m_parts.append(m[rows])
    return np.concatenate(pos_parts, axis=0), np.concatenate(m_parts)


def build_solver(
    backend: str,
    kernel: ShortRangeKernel,
    *,
    leaf_size: int = 128,
    kernel_backend: str | None = None,
) -> "ShortRangeSolver":
    """Construct the short-range backend named by ``backend``.

    The single construction switch shared by the simulation driver and
    its executor threads, so every thread builds the same solver for
    the same configuration around the one shared kernel.
    ``kernel_backend`` selects the inner-loop implementation (numpy/c
    seam); ``None`` keeps the deterministic NumPy reference.
    """
    if backend == "treepm":
        return TreePMShortRange(
            kernel, leaf_size=leaf_size, kernel_backend=kernel_backend
        )
    if backend == "p3m":
        return P3MShortRange(kernel, kernel_backend=kernel_backend)
    if backend == "direct":
        return DirectShortRange(kernel)
    raise ValueError(f"unknown short-range backend {backend!r}")


class ShortRangeSolver(ABC):
    """Interface: short-range accelerations on the first N particles."""

    def __init__(self, kernel: ShortRangeKernel) -> None:
        self.kernel = kernel

    @property
    def last_pairs(self) -> tuple[int, int]:
        """``(streamed, inside)`` pairs of the last call, off the engine."""
        return self.engine.last_pairs

    @abstractmethod
    def accelerations_cloud(
        self,
        positions: np.ndarray,
        masses: np.ndarray,
        n_targets: int,
    ) -> np.ndarray:
        """Forces on ``positions[:n_targets]`` from the whole cloud."""

    def accelerations(
        self,
        positions: np.ndarray,
        masses: np.ndarray | None = None,
        box_size: float | None = None,
    ) -> np.ndarray:
        """Short-range accelerations, periodic if ``box_size`` is given.

        Unit normalization: returns
        ``-sum_j m_j f_SR(s_ij) (x_i - x_j)``; the driver scales by
        ``pair_force_normalization`` and the cosmological prefactor.
        """
        dt = np.dtype(self.kernel.dtype)
        pos = np.asarray(positions, dtype=dt)
        n = pos.shape[0]
        m = (
            np.ones(n, dtype=dt)
            if masses is None
            else np.asarray(masses, dtype=dt)
        )
        if box_size is not None:
            cloud_pos, cloud_m = periodic_ghosts(
                pos, m, box_size, self.kernel.rcut
            )
        else:
            cloud_pos, cloud_m = pos, m
        return self.accelerations_cloud(cloud_pos, cloud_m, n)


class DirectShortRange(ShortRangeSolver):
    """O(N^2) direct summation — the correctness reference.

    Feasible to a few thousand particles; every other backend is tested
    against it, so it calls the kernel directly rather than the batched
    engine.  The kernel evaluates the masked force on every pair, so
    all streamed pairs count as inside.
    """

    last_pairs = (0, 0)  # set per call: no engine to read it from

    def accelerations_cloud(self, positions, masses, n_targets):
        acc = self.kernel.accumulate(positions[:n_targets], positions, masses)
        n = acc.shape[0] * positions.shape[0]
        self.last_pairs = (n, n)
        charge_pairs(n, n, np.dtype(self.kernel.dtype).itemsize)
        return acc


class TreePMShortRange(ShortRangeSolver):
    """The BG/Q backend: RCB tree + shared-leaf interaction lists.

    Every leaf's list is packed into one
    :class:`~repro.shortrange.batch.InteractionBatch` and streamed
    through the pair loop — the paper's list-then-stream structure — in
    one :meth:`~repro.shortrange.backends.KernelBackend.solve` call of
    the engine's backend (on C, one GIL-free call), which returns the
    phase boundaries recorded as the ``tree.build``, ``tree.walk`` and
    ``pp.batch`` spans.

    Parameters
    ----------
    kernel:
        The fitted short-range kernel.
    leaf_size:
        Fat-leaf capacity (the walk/kernel crossover knob of Section III).
    kernel_backend:
        Backend of the pair loop, the tree build and the list cull (see
        :mod:`repro.shortrange.backends`); ``None`` is the NumPy one.
    """

    def __init__(
        self,
        kernel: ShortRangeKernel,
        leaf_size: int = 128,
        kernel_backend: str | None = None,
    ) -> None:
        super().__init__(kernel)
        if leaf_size < 1:
            raise ValueError(f"leaf_size must be >= 1: {leaf_size}")
        self.leaf_size = int(leaf_size)
        self.engine = BatchedPairEngine(kernel, backend=kernel_backend)
        #: populated after each evaluation: streamed list size per leaf
        self.last_list_sizes: np.ndarray | None = None
        #: populated after each evaluation: RCB tree depth (telemetry gauge)
        self.last_tree_depth: int = 0

    def accelerations_cloud(self, positions, masses, n_targets):
        reg, eng = get_registry(), self.engine
        begin = reg.clock() if reg.enabled else 0.0
        acc, pairs, self.last_tree_depth, sizes, marks = eng.backend.solve(
            positions, masses, n_targets, self.leaf_size, self.kernel.rcut,
            eng._coeffs, *eng.scalars, eng.workspace,
        )
        if reg.enabled:  # the solve's phases, on the registry's clock
            end = reg.clock()
            at = [min(max(t - marks[-1] + end, begin), end) for t in marks]
            for name, a, b in zip(("tree.build", "tree.walk", "pp.batch")[
                    :2 + bool(pairs[0])], at, at[1:]):
                reg.record(name, a, b)
        reg.count("tree.build_particles", len(positions))
        reg.count("tree.list_length", int(sizes.sum()))
        self.last_list_sizes = sizes
        eng.last_pairs = pairs
        if pairs[0]:
            charge_pairs(*pairs, np.dtype(self.kernel.dtype).itemsize)
        return acc


class P3MShortRange(ShortRangeSolver):
    """The Roadrunner/GPU backend: chaining-mesh direct PP sums.

    The cloud is binned into cells of side >= rcut; each cell's particles
    interact directly with the particles of the 27 surrounding cells —
    the "no mediating tree" limit where leaf populations reach ~1e5 on
    accelerated hardware.

    The cloud is sorted into cell order once, so every cell is a row
    range: each occupied cell (a group of target rows) and its
    27-neighbourhood go to
    :func:`~repro.shortrange.batch.tighten_ranges` as whole-cell ranges
    (a single vectorized 27-offset computation over all occupied cells),
    exactly as :func:`~repro.shortrange.batch.pack_tree` hands over
    whole leaves, and the tight batch streams through the batched
    engine.
    """

    def __init__(
        self,
        kernel: ShortRangeKernel,
        kernel_backend: str | None = None,
    ) -> None:
        super().__init__(kernel)
        self.engine = BatchedPairEngine(kernel, backend=kernel_backend)

    def _bin(self, pos: np.ndarray):
        """Chaining-mesh binning: cell geometry + cell-sorted particles."""
        rcut = self.kernel.rcut
        lo = pos.min(axis=0) - 1e-9
        hi = pos.max(axis=0) + 1e-9
        extent = np.maximum(hi - lo, rcut)
        ncell = np.maximum((extent / rcut).astype(np.int64), 1)
        cell_of = np.minimum(
            ((pos - lo) / extent * ncell).astype(np.int64), ncell - 1
        )
        flat = (
            cell_of[:, 0] * ncell[1] + cell_of[:, 1]
        ) * ncell[2] + cell_of[:, 2]
        order = np.argsort(flat, kind="stable")
        uniq, starts = np.unique(flat[order], return_index=True)
        starts = np.append(starts, pos.shape[0]).astype(np.int64)
        return ncell, uniq, starts, order

    def _pack_cells(self, ncell, uniq, starts):
        """All 27-neighborhoods of all occupied cells as row ranges.

        Returns the ``(source_starts, source_counts, range_offsets)`` of
        :func:`~repro.shortrange.batch.tighten_ranges` over the
        cell-sorted cloud: cell ``g``'s targets are its rows
        ``starts[g]`` to ``starts[g + 1] - 1``, its sources the rows of
        its occupied neighbour cells, in row-major (ox, oy, oz) order,
        self cell included.
        """
        n_occ = uniq.size
        czi = uniq % ncell[2]
        cyi = (uniq // ncell[2]) % ncell[1]
        cxi = uniq // (ncell[1] * ncell[2])
        off = np.array(
            [
                (ox, oy, oz)
                for ox in (-1, 0, 1)
                for oy in (-1, 0, 1)
                for oz in (-1, 0, 1)
            ],
            dtype=np.int64,
        )
        nx = cxi[:, None] + off[None, :, 0]
        ny = cyi[:, None] + off[None, :, 1]
        nz = czi[:, None] + off[None, :, 2]
        # open boundaries: the cloud already includes the ghost images
        valid = (
            (nx >= 0) & (nx < ncell[0])
            & (ny >= 0) & (ny < ncell[1])
            & (nz >= 0) & (nz < ncell[2])
        )
        nb_flat = (nx * ncell[1] + ny) * ncell[2] + nz
        j = np.searchsorted(uniq, nb_flat)
        j_cl = np.minimum(j, n_occ - 1)
        found = valid & (uniq[j_cl] == nb_flat)
        range_offsets = np.zeros(n_occ + 1, dtype=np.int64)
        np.cumsum(found.sum(axis=1), out=range_offsets[1:])
        first = starts[j_cl][found]
        return first, starts[j_cl + 1][found] - first, range_offsets

    def accelerations_cloud(self, positions, masses, n_targets):
        pos = np.asarray(positions, dtype=self.kernel.dtype)
        if pos.shape[0] == 0:
            return self.engine.evaluate(InteractionBatch.empty(), pos, masses)
        with get_registry().span("p3m.binning"):
            ncell, uniq, starts, order = self._bin(pos)
            pos = pos[order]
        with get_registry().span("p3m.pack"):
            batch = tighten_ranges(
                starts[:-1], np.diff(starts),
                *self._pack_cells(ncell, uniq, starts),
                order < n_targets, pos, self.kernel.rcut,
                self.engine.backend,
            )
        acc_cells = self.engine.evaluate(batch, pos, np.asarray(masses)[order])
        acc = np.empty_like(acc_cells)
        acc[order] = acc_cells
        return acc[:n_targets]
