"""Batched short-range pair-evaluation engine.

The paper's short-range stage (Section III) owes its 69.2%-of-peak
throughput to a strict two-phase structure: interaction lists are built
once per RCB leaf by the tree walk, then *streamed* through a
branch-free, unrolled QPX kernel that never leaves registers.  The
Python analogue of "many small kernel launches" — evaluating the kernel
leaf by leaf inside a ``for`` loop, reallocating every pair temporary —
is exactly the PM/tree anti-pattern PMFAST and the HACC architecture
papers identify.  This module is the batch-oriented replacement:

**Packing** (:func:`pack_tree`) walks the tree once for *all* leaves
with the kernel backends' ``walk`` (a depth-first C descent, or the
numpy frontier of :func:`~repro.shortrange.backends.numpy_backend.batch_box_query`).
Lists stay row ranges of the tree-ordered cloud, never index lists
(:class:`InteractionBatch`): a group is a leaf's rows (a P3M cell's
rows of its cell-sorted cloud), its candidates the rows of its hit
leaves (the occupied cells of its 27-neighbourhood).  Both packers hand
them to :func:`tighten_ranges`, the one place that decides which pairs
are streamed: ghost rows are not targets (they only ever were
sources), and each group keeps, order preserved, the sources within
``rcut`` of the bounding box of its real targets.  The cull is the
backends' ``cull`` primitive (C, or the numpy oracle); it marks the kept
candidates in a bitmask and counts them per group, so the streamed pair
count is known at pack time, and ``pair_accumulate`` packs each group's
sources straight from the ranges through the mask.

**Evaluation** (:class:`BatchedPairEngine`) streams each group's whole
list, in order, through the fitted
:class:`~repro.shortrange.kernel.ShortRangeKernel`, one partial sum per
target (the paper's one register-resident loop per fat leaf); the numpy
backend runs it in (targets x whole list) tiles of about 2^18 pairs:

1. separations are formed SOA-style (``dx``, ``dy``, ``dz``) in
   preallocated workspaces — no per-leaf allocation;
2. pairs outside the cutoff are *compressed away* before the expensive
   kernel math (sqrt, divide, Horner) runs — a list bounds its group's
   neighborhood by the targets' box, so only part of it lies inside
   ``rcut`` of any one target: measured on the clustered z = 0 state of
   a 32^3 run, 16% of streamed pairs (3.9% before the lists were
   tightened, when whole hit leaves were listed for ghost and real
   members alike);
3. in-cutoff forces are scattered back per target with ``bincount``.

The engine is geometry-agnostic: the RCB tree and the P3M chaining mesh
both reduce their neighborhoods to an :class:`InteractionBatch` and
share one evaluation loop, the way every HACC backend funnels into the
same force kernel.

The evaluation itself dispatches through the pluggable kernel-backend
seam (:mod:`repro.shortrange.backends`): the engine prepares the SOA
coordinate/mass streams once per batch, then hands the batch's lists to
the selected backend's ``pair_accumulate`` — the vectorized NumPy reference
or the fused C loop, both returning the identical in-cutoff count.  The
engine charges each evaluation's work once
(:func:`~repro.instrument.perfcount.charge_pairs`) and keeps its
``(streamed, inside)`` pair counts as ``last_pairs``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.instrument import get_registry
from repro.instrument.perfcount import charge_pairs
from repro.shortrange.backends import (
    Workspace,
    get_backend,
    resolve_backend,
)
from repro.shortrange.kernel import ShortRangeKernel
from repro.shortrange.rcb_tree import RCBTree

__all__ = [
    "Workspace",
    "InteractionBatch",
    "BatchedPairEngine",
    "pack_tree",
    "stream_batch",
    "tighten_ranges",
]


@dataclass(frozen=True)
class InteractionBatch:
    """Row-range interaction lists shared by a group of targets.

    Group ``g`` (an RCB leaf, or a P3M cell) is the rows
    ``target_starts[g]`` up to ``+ target_counts[g]`` of the position /
    mass arrays later handed to :meth:`BatchedPairEngine.evaluate`; its
    targets are those of them whose ``real`` flag is set.  Its
    candidate sources are the rows of its ranges ``range_offsets[g]``
    to ``range_offsets[g + 1] - 1``, range ``r`` being
    ``source_starts[r]`` up to ``+ source_counts[r]``; it streams, in
    order, those whose bit in the ``keep`` mask is set (candidate ``c``
    of the batch -- groups, ranges, rows, in order -- is bit ``c % 64``
    of ``keep[c // 64]``) to every target: the flat-array form of "all
    particles of a leaf share the leaf's interaction list".
    ``n_targets`` / ``n_sources`` count each group's targets and kept
    sources.  Groups do not share targets: both solvers' groups
    partition the rows.
    """

    target_starts: np.ndarray
    target_counts: np.ndarray
    real: np.ndarray
    source_starts: np.ndarray
    source_counts: np.ndarray
    range_offsets: np.ndarray
    keep: np.ndarray
    n_targets: np.ndarray
    n_sources: np.ndarray

    def __post_init__(self) -> None:
        g = self.target_starts.shape
        if any(a.shape != g for a in (self.target_counts, self.n_targets,
                                       self.n_sources)):
            raise ValueError("per-group arrays must have one length")
        ro = self.range_offsets
        if ro.shape != (g[0] + 1,) or ro[0] != 0 or np.any(np.diff(ro) < 0):
            raise ValueError("range_offsets must rise from 0, one more "
                             "entry than groups")
        if int(ro[-1]) != self.source_starts.shape[0]:
            raise ValueError(
                f"range_offsets end {int(ro[-1])} != "
                f"{self.source_starts.shape[0]} source ranges"
            )

    @property
    def n_groups(self) -> int:
        return self.target_starts.size

    @property
    def n_pairs(self) -> int:
        """Total (target, neighbor) pair evaluations the batch encodes."""
        return int((self.n_targets * self.n_sources).sum())

    @classmethod
    def empty(cls) -> "InteractionBatch":
        e = np.empty(0, dtype=np.int64)
        return cls(e, e, np.empty(0, dtype=bool), e, e,
                   np.zeros(1, dtype=np.int64), np.empty(0, np.uint64), e, e)


def tighten_ranges(
    target_starts: np.ndarray,
    target_counts: np.ndarray,
    source_starts: np.ndarray,
    source_counts: np.ndarray,
    range_offsets: np.ndarray,
    real: np.ndarray,
    positions: np.ndarray,
    rcut: float,
    backend=None,
) -> InteractionBatch:
    """The batch the kernel streams: real targets, culled sources.

    Candidate group ``g`` is the rows ``target_starts[g]`` up to ``+
    target_counts[g]`` and lists the rows of ranges ``range_offsets[g]``
    to ``range_offsets[g + 1] - 1``, range ``r`` being
    ``source_starts[r]`` up to ``+ source_counts[r]``:
    :func:`pack_tree`'s groups and hits are whole leaves, P3M's whole
    cells.  ``real`` flags the rows that receive a force (the others
    are ghosts, present only as sources); a group without one streams
    nothing.  Each group keeps, in order, the sources within
    :func:`cull_radius` of the bounding box of its real targets -- a
    per-source test, so the exact per-pair cutoff test stays with the
    backend, and no pair that test accepts is removed: every target's
    sum visits the same in-cutoff sources in the same order as on the
    whole candidate lists.  ``backend`` runs the cull
    (:meth:`~repro.shortrange.backends.KernelBackend.cull`), which marks
    the kept candidates in a bitmask rather than listing them: a backend
    or its name, ``None`` meaning c, else numpy.
    """
    lists = (np.asarray(target_starts, dtype=np.int64),
             np.asarray(target_counts, dtype=np.int64),
             np.asarray(real, dtype=bool),
             np.asarray(source_starts, dtype=np.int64),
             np.asarray(source_counts, dtype=np.int64),
             np.asarray(range_offsets, dtype=np.int64))
    keep, n_targets, n_sources = resolve_backend(backend).cull(
        *lists, positions, cull_radius(rcut, positions))
    return InteractionBatch(*lists, keep, n_targets, n_sources)


#: relative slack of the source cull, and the float32 epsilon its
#: absolute slack is built from (see :func:`cull_radius`)
_CULL_REL_SLACK = 1e-5
_EPS32 = float(np.finfo(np.float32).eps)


def cull_radius(rcut: float, positions: np.ndarray) -> float:
    """``rcut`` padded so the source cull never drops an accepted pair.

    The backends accept a pair on ``0 < s^2 < rc^2`` computed in the
    kernel precision from positions cast to it; the cull compares a
    lower bound of the pair separation (distance to the targets' box)
    computed in float32 from positions rounded to float32.  Rounding
    moves a coordinate by at most half a float32 ulp of the largest
    one, so the bound by under one ulp of it: the absolute term (eight)
    covers that for cull and kernel together; the relative term covers
    the rounding of the squared distances and of ``rc^2`` (a few
    float32 epsilons).  One pad for both precisions: at a 64 Mpc/h box
    and a 6 Mpc/h cutoff it widens the radius by 1.3e-4 Mpc/h.  The span
    is that of the positions rounded to float32, the precision of the
    cull.
    """
    p = np.asarray(positions)
    span = float(np.float32(max(p.max(), -p.min()))) if p.size else 0.0
    return rcut * (1.0 + _CULL_REL_SLACK) + 8.0 * _EPS32 * span


def pack_tree(
    tree: RCBTree,
    rcut: float,
    n_targets: int | None = None,
    backend=None,
) -> InteractionBatch:
    """Pack a whole tree's per-leaf interaction lists into one batch.

    A group is a leaf holding at least one real particle
    (``tree.perm < n_targets``); its candidate sources are the
    particles, ascending, of every leaf its cutoff-expanded box touches
    (the ``walk`` of ``backend``); :func:`tighten_ranges` (on
    ``backend``, handed the leaves as row ranges) then keeps the real
    targets and the sources that can matter.  Rows are in *tree order*;
    pair the batch with ``tree.positions`` / ``tree.masses`` and scatter
    results through ``tree.perm``.
    """
    if rcut <= 0:
        raise ValueError(f"rcut must be positive: {rcut}")
    n_real = tree.n_particles if n_targets is None else n_targets
    real = tree.perm < n_real
    leaf = tree.leaf_ids()
    if leaf.size:
        # leaf segments (sorted by start) partition the tree's range, so
        # reduceat computes "any real target in segment" per leaf
        leaf = leaf[np.logical_or.reduceat(real, tree.node_start[leaf])]
    if not leaf.size:
        return InteractionBatch.empty()
    backend = resolve_backend(backend)
    hit_offsets, hits = backend.walk(
        tree, tree.node_lo[leaf] - rcut, tree.node_hi[leaf] + rcut
    )
    return tighten_ranges(
        tree.node_start[leaf], tree.node_count[leaf],
        tree.node_start[hits], tree.node_count[hits], hit_offsets,
        real, tree.positions, rcut, backend,
    )


class BatchedPairEngine:
    """Workspace-reusing evaluator for an :class:`InteractionBatch`.

    Parameters
    ----------
    kernel:
        The fitted short-range kernel; supplies the pair coefficient
        and the precision (``kernel.dtype``).
    backend:
        Kernel backend executing the pair loop: a
        :class:`~repro.shortrange.backends.KernelBackend` instance, a
        registered name (``"numpy"``, ``"c"``), ``"auto"`` (c, else
        numpy), or ``None`` for the
        NumPy reference — the engine's historical behavior and the
        default, so direct constructions stay deterministic across
        environments; ``"auto"`` is opted into via the simulation
        config.

    Notes
    -----
    Pair arithmetic *and* accumulation run in ``kernel.dtype`` (the
    paper's mixed-precision option): with ``dtype=np.float32`` the
    returned accelerations are float32, with no silent float64 upcast
    along the hot path.  ``last_pairs`` is ``(streamed, inside)``:
    every (target, neighbor) pair of the batch, ``batch.n_pairs``,
    identically on every backend (the backend suite asserts it), and
    those of them inside the cutoff; each evaluation charges them once
    as ``pp.interactions`` and ``pp.batch.inside_pairs``.  Batches are
    tight (:func:`tighten_ranges`), so every target is a
    real particle and the inside count is the number of real-target
    pairs whose force was evaluated.
    """

    def __init__(self, kernel: ShortRangeKernel, backend=None) -> None:
        self.kernel = kernel
        self.backend = (
            get_backend("numpy") if backend is None
            else resolve_backend(backend)
        )
        self.workspace = Workspace()
        dt = kernel.dtype
        #: polynomial coefficients in the kernel precision, cast once
        self._coeffs = np.asarray(kernel.fit.coefficients, dtype=dt)
        #: ``(eps, rc2_cells, inv_sp2, mass_scale)`` in the kernel precision
        self.scalars = tuple(dt(v) for v in (
            kernel.eps_cells, kernel.fit.rcut_cells**2,
            1.0 / kernel.spacing**2, 1.0 / kernel.spacing**3))
        #: ``(streamed, inside)`` pairs of the most recent :meth:`evaluate`
        self.last_pairs: tuple[int, int] = (0, 0)

    # ------------------------------------------------------------------
    def evaluate(
        self,
        batch: InteractionBatch,
        positions: np.ndarray,
        masses: np.ndarray,
    ) -> np.ndarray:
        """Accelerations from all batch pairs (attractive sign).

        Parameters
        ----------
        batch:
            Packed interaction lists; their ranges address rows of
            ``positions``.
        positions:
            (N, 3) particle positions.
        masses:
            (N,) weights in units of the mean particle mass.

        Returns
        -------
        (N, 3) array in the kernel precision; rows that are not a real
        row of some group's target range are 0.
        """
        pos = np.asarray(positions)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must be (N, 3), got {pos.shape}")
        total_pairs = batch.n_pairs
        self.last_pairs = (total_pairs, 0)
        if pos.shape[0] == 0 or total_pairs == 0:
            return np.zeros((pos.shape[0], 3), dtype=self.kernel.dtype)
        with get_registry().span("pp.batch"):
            acc, inside_pairs = stream_batch(
                self.backend, batch, pos, masses, self._coeffs, self.scalars,
                self.workspace,
            )
        self.last_pairs = (total_pairs, inside_pairs)
        charge_pairs(total_pairs, inside_pairs,
                     np.dtype(self.kernel.dtype).itemsize)
        return acc


def stream_batch(backend, batch: InteractionBatch, positions, masses,
                 coeffs: np.ndarray, scalars: tuple, workspace: Workspace):
    """``(acc, inside)``: ``batch`` on ``backend`` over the rows of the
    ``(N, 3)`` ``positions`` and ``(N,)`` ``masses``, ``acc`` ``(N, 3)``
    in the kernel precision (``coeffs``' dtype), ``scalars`` a
    :class:`BatchedPairEngine`'s."""
    dt = coeffs.dtype.type
    n = len(positions)
    acc = np.zeros((n, 3), dtype=dt)
    if n == 0 or batch.n_pairs == 0:
        return acc, 0
    ws = workspace
    # SOA coordinate / scaled-mass copies in the kernel precision — one
    # cast for the whole batch instead of one per leaf
    px, py, pz, msc = (ws.get(name, n, dt) for name in ("px", "py", "pz",
                                                         "m"))
    px[:] = positions[:, 0]
    py[:] = positions[:, 1]
    pz[:] = positions[:, 2]
    msc[:] = masses
    msc *= scalars[3]
    inside = backend.pair_accumulate(
        batch.target_starts, batch.target_counts, batch.real,
        batch.source_starts, batch.source_counts, batch.range_offsets,
        batch.keep, px, py, pz, msc, coeffs, *scalars[:3], acc, ws,
    )
    return acc, inside
