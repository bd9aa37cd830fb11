"""Batched short-range pair-evaluation engine.

The paper's short-range stage (Section III) owes its 69.2%-of-peak
throughput to a strict two-phase structure: interaction lists are built
once per RCB leaf by the tree walk, then *streamed* through a
branch-free, unrolled QPX kernel that never leaves registers.  The
Python analogue of "many small kernel launches" — evaluating the kernel
leaf by leaf inside a ``for`` loop, reallocating every pair temporary —
is exactly the PM/tree anti-pattern PMFAST and the HACC architecture
papers identify.  This module is the batch-oriented replacement:

**Packing** (:func:`pack_tree`, :func:`batch_box_query`) walks the tree
once for *all* leaves simultaneously — a breadth-first frontier of
(query, node) pairs pruned with whole-array bounds tests — and emits
flat CSR-style arrays (:class:`InteractionBatch`): ``targets`` +
``target_offsets`` and ``neighbor_indices`` + ``neighbor_offsets``.
Both packers (RCB tree, P3M chaining mesh) then hand their candidate
groups to :func:`tighten_ranges` as whole row ranges (the tree its hit
leaves, P3M the occupied cells of each 27-neighbourhood of its
cell-sorted cloud), the one place that decides which pairs are
streamed: ghost members stop being targets (they only ever were
sources), and each group's source list is culled, order preserved, to
the sources within ``rcut`` of the bounding box of the group's real
targets.  The cull is the kernel backends' ``tighten`` primitive (C, or
the numpy oracle).

**Evaluation** (:class:`BatchedPairEngine`) streams fixed-size pair
blocks (``chunk_pairs`` bounds the peak temporary footprint, the Python
analogue of sizing the working set to cache) through the fitted
:class:`~repro.shortrange.kernel.ShortRangeKernel`:

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
coordinate/mass streams once per batch, then hands the CSR arrays to the
selected backend's ``pair_accumulate`` — the vectorized NumPy reference
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
from repro.shortrange.rcb_tree import RCBTree, ranges_to_indices

__all__ = [
    "Workspace",
    "InteractionBatch",
    "BatchedPairEngine",
    "batch_box_query",
    "pack_tree",
    "tighten_ranges",
    "DEFAULT_CHUNK_PAIRS",
]

#: default pair-block size: 2^18 pairs keep every float64 workspace at
#: 2 MiB — resident in L2/L3 across the whole evaluation loop
DEFAULT_CHUNK_PAIRS = 1 << 18


@dataclass(frozen=True)
class InteractionBatch:
    """CSR interaction lists shared by a group of targets.

    Group ``g`` (an RCB leaf, or a P3M cell) applies the neighbor list
    ``neighbor_indices[neighbor_offsets[g]:neighbor_offsets[g+1]]`` to
    every target in ``targets[target_offsets[g]:target_offsets[g+1]]`` —
    the flat-array form of "all particles of a leaf share the leaf's
    interaction list".  Indices refer to whatever position/mass arrays
    are later handed to :meth:`BatchedPairEngine.evaluate`.

    Within one group the target indices must be unique (they are a leaf
    / cell membership); distinct groups may not share targets either —
    both solvers' groups partition the target set.
    """

    targets: np.ndarray
    target_offsets: np.ndarray
    neighbor_indices: np.ndarray
    neighbor_offsets: np.ndarray

    def __post_init__(self) -> None:
        to, no = self.target_offsets, self.neighbor_offsets
        if to.ndim != 1 or no.ndim != 1 or to.shape != no.shape:
            raise ValueError(
                f"offset arrays must be 1-D and equal length: "
                f"{to.shape} vs {no.shape}"
            )
        if to.size == 0:
            raise ValueError("offset arrays must have at least one entry")
        if np.any(np.diff(to) < 0) or np.any(np.diff(no) < 0):
            raise ValueError("offsets must be non-decreasing")
        if int(to[-1]) != self.targets.shape[0]:
            raise ValueError(
                f"target_offsets end {int(to[-1])} != "
                f"targets length {self.targets.shape[0]}"
            )
        if int(no[-1]) != self.neighbor_indices.shape[0]:
            raise ValueError(
                f"neighbor_offsets end {int(no[-1])} != "
                f"neighbor_indices length {self.neighbor_indices.shape[0]}"
            )

    @property
    def n_groups(self) -> int:
        return self.target_offsets.size - 1

    def group_target_counts(self) -> np.ndarray:
        return np.diff(self.target_offsets)

    def group_neighbor_counts(self) -> np.ndarray:
        return np.diff(self.neighbor_offsets)

    def group_pair_counts(self) -> np.ndarray:
        return self.group_target_counts() * self.group_neighbor_counts()

    @property
    def n_pairs(self) -> int:
        """Total (target, neighbor) pair evaluations the batch encodes."""
        return int(self.group_pair_counts().sum())

    @classmethod
    def empty(cls) -> "InteractionBatch":
        zero = np.zeros(1, dtype=np.int64)
        e = np.empty(0, dtype=np.int64)
        return cls(e, zero, e, zero)


def tighten_ranges(
    targets: np.ndarray,
    target_offsets: np.ndarray,
    source_starts: np.ndarray,
    source_counts: np.ndarray,
    range_offsets: np.ndarray,
    real: np.ndarray,
    positions: np.ndarray,
    rcut: float,
    backend=None,
) -> InteractionBatch:
    """The batch the kernel streams: real targets, culled sources.

    Candidate group ``g`` has the targets ``targets[target_offsets[g]:
    target_offsets[g + 1]]`` and lists the rows of ranges
    ``range_offsets[g]`` to ``range_offsets[g + 1] - 1``, range ``r``
    being ``source_starts[r]`` up to ``source_starts[r] +
    source_counts[r]``: :func:`pack_tree`'s hits are whole leaves and
    P3M's whole cells, so the cull reads them without an index array.
    ``real`` flags the entries of ``targets`` that receive a force (the
    others are ghosts, present only as sources); groups left without a
    target are dropped.  Each surviving group keeps, in order, the
    sources within :func:`cull_radius` of the bounding box of its real
    targets — a per-source test, so the exact per-pair cutoff test
    stays with the backend, and no pair that test accepts is removed:
    every target's sum visits the same in-cutoff sources in the same
    order as on the candidate batch.  ``backend`` runs the cull
    (:meth:`~repro.shortrange.backends.KernelBackend.tighten`): a
    backend or its name, ``None`` meaning c, else numpy.
    """
    return InteractionBatch(*resolve_backend(backend).tighten(
        np.asarray(targets, dtype=np.int64),
        np.asarray(target_offsets, dtype=np.int64),
        np.asarray(source_starts, dtype=np.int64),
        np.asarray(source_counts, dtype=np.int64),
        np.asarray(range_offsets, dtype=np.int64),
        np.asarray(real, dtype=bool),
        positions,
        cull_radius(rcut, positions),
    ))


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


def batch_box_query(
    tree: RCBTree, qlo: np.ndarray, qhi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Leaf hits of many box queries against one tree, in one walk.

    Parameters
    ----------
    tree:
        The RCB tree to query.
    qlo, qhi:
        (Q, 3) lower/upper corners of the query boxes (cutoff already
        applied by the caller).

    Returns
    -------
    ``(hit_query, hit_node)`` — parallel arrays naming every (query box,
    intersecting tree leaf) pair, sorted by query then by the leaf's
    particle-segment start (so per-query expansion yields ascending
    particle indices, matching ``RCBTree.interaction_list``).

    The walk advances a frontier of live (query, node) pairs: one
    vectorized bounds test per level replaces the per-node ``np.any``
    calls of the scalar walk — the packing pass's whole cost is a few
    dozen array operations regardless of leaf count.
    """
    box_dt = _float_dtype(tree.node_lo)
    qlo = np.atleast_2d(np.asarray(qlo, dtype=box_dt))
    qhi = np.atleast_2d(np.asarray(qhi, dtype=box_dt))
    nq = qlo.shape[0]
    e = np.empty(0, dtype=np.int64)
    if nq == 0 or tree.n_nodes == 0:
        return e, e
    f_query = np.arange(nq, dtype=np.int64)
    f_node = np.zeros(nq, dtype=np.int64)
    hits_q: list[np.ndarray] = []
    hits_n: list[np.ndarray] = []
    while f_query.size:
        alive = ~(
            (tree.node_lo[f_node] > qhi[f_query]).any(axis=1)
            | (tree.node_hi[f_node] < qlo[f_query]).any(axis=1)
        )
        f_query = f_query[alive]
        f_node = f_node[alive]
        at_leaf = tree.node_left[f_node] < 0
        if at_leaf.any():
            hits_q.append(f_query[at_leaf])
            hits_n.append(f_node[at_leaf])
        iq = f_query[~at_leaf]
        inode = f_node[~at_leaf]
        f_query = np.concatenate([iq, iq])
        f_node = np.concatenate(
            [tree.node_left[inode], tree.node_right[inode]]
        )
    if not hits_q:
        return e, e
    hq = np.concatenate(hits_q)
    hn = np.concatenate(hits_n)
    order = np.lexsort((tree.node_start[hn], hq))
    return hq[order], hn[order]


def _float_dtype(a: np.ndarray):
    """Preserve float32/float64; anything else becomes float64."""
    dt = np.asarray(a).dtype
    return dt if dt in (np.float32, np.float64) else np.float64


def pack_tree(
    tree: RCBTree,
    rcut: float,
    n_targets: int | None = None,
    backend=None,
) -> InteractionBatch:
    """Pack a whole tree's per-leaf interaction lists into one batch.

    A group is a leaf holding at least one real particle
    (``tree.perm < n_targets``); its candidate sources are the
    particles, ascending, of every leaf its cutoff-expanded box touches;
    :func:`tighten_ranges` (on ``backend``, handed those leaves as row
    ranges) then keeps the real targets and the sources that can
    matter.  Indices are in *tree order*; pair the batch with
    ``tree.positions`` / ``tree.masses`` and scatter results through
    ``tree.perm``.
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
    # hits come sorted by query, so each group's sources are contiguous
    hq, hn = batch_box_query(
        tree, tree.node_lo[leaf] - rcut, tree.node_hi[leaf] + rcut
    )
    hit_offsets = np.zeros(leaf.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(hq, minlength=leaf.size), out=hit_offsets[1:])
    mcount = tree.node_count[leaf]
    members = ranges_to_indices(tree.node_start[leaf], mcount)
    member_offsets = np.zeros(leaf.size + 1, dtype=np.int64)
    np.cumsum(mcount, out=member_offsets[1:])
    return tighten_ranges(
        members, member_offsets,
        tree.node_start[hn], tree.node_count[hn], hit_offsets,
        real[members], tree.positions, rcut, backend,
    )


class BatchedPairEngine:
    """Chunked, workspace-reusing evaluator for an :class:`InteractionBatch`.

    Parameters
    ----------
    kernel:
        The fitted short-range kernel; supplies the pair coefficient
        and the precision (``kernel.dtype``).
    chunk_pairs:
        Upper bound on pairs materialized at once.  Each (targets x
        sources) tile is sized so ``tile_targets * tile_sources <=
        chunk_pairs``; all tile temporaries live in reused workspaces.
        (The C loop materializes nothing; it uses ``chunk_pairs`` only
        to reproduce the numpy path's per-chunk summation order.)
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

    def __init__(
        self,
        kernel: ShortRangeKernel,
        chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
        backend=None,
    ) -> None:
        if chunk_pairs < 1:
            raise ValueError(f"chunk_pairs must be >= 1: {chunk_pairs}")
        self.kernel = kernel
        self.chunk_pairs = int(chunk_pairs)
        self.backend = (
            get_backend("numpy") if backend is None
            else resolve_backend(backend)
        )
        self.workspace = Workspace()
        #: polynomial coefficients in the kernel precision, cast once
        self._coeffs = np.asarray(
            kernel.fit.coefficients, dtype=kernel.dtype
        )
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
            Packed interaction lists; indices address ``positions`` rows.
        positions:
            (N, 3) particle positions.
        masses:
            (N,) weights in units of the mean particle mass.

        Returns
        -------
        (N, 3) array in the kernel precision; rows not named by
        ``batch.targets`` are 0.
        """
        pos = np.asarray(positions)
        n = pos.shape[0]
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must be (N, 3), got {pos.shape}")
        kern = self.kernel
        dt = kern.dtype
        acc = np.zeros((n, 3), dtype=dt)
        total_pairs = batch.n_pairs
        self.last_pairs = (total_pairs, 0)
        if n == 0 or total_pairs == 0:
            return acc
        ws = self.workspace
        reg = get_registry()

        # SOA coordinate / scaled-mass copies in the kernel precision —
        # one cast for the whole batch instead of one per leaf
        px = ws.get("px", n, dt)
        py = ws.get("py", n, dt)
        pz = ws.get("pz", n, dt)
        px[:] = pos[:, 0]
        py[:] = pos[:, 1]
        pz[:] = pos[:, 2]
        msc = ws.get("m", n, dt)
        msc[:] = masses
        msc *= dt(1.0 / kern.spacing**3)
        inv_sp2 = dt(1.0 / kern.spacing**2)
        rc2_cells = dt(kern.fit.rcut_cells**2)

        with reg.span("pp.batch"):
            inside_pairs = self.backend.pair_accumulate(
                batch.targets,
                batch.target_offsets,
                batch.neighbor_indices,
                batch.neighbor_offsets,
                px, py, pz, msc,
                self._coeffs,
                dt(kern.eps_cells),
                rc2_cells,
                inv_sp2,
                self.chunk_pairs,
                acc,
                ws,
            )
        self.last_pairs = (total_pairs, inside_pairs)
        charge_pairs(total_pairs, inside_pairs, np.dtype(dt).itemsize)
        return acc
