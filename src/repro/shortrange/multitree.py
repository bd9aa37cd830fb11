"""Multiple RCB trees per rank: the paper's load-balancing future work.

Section VI: "we will improve (nodal) load balancing by using multiple
trees at each rank, enabling an improved threading of the tree-build."
One monolithic tree serializes its top levels; several independent trees
over spatial sub-blocks build concurrently and bound the largest
single-thread work item.

:class:`MultiTreeShortRange` splits the rank-local particle cloud into
``n_trees`` blocks by recursive coordinate bisection (the same
center-of-mass rule as the tree itself, so blocks carry near-equal
*particle counts* even for clustered data), builds one RCB tree per
block, and evaluates each leaf against the union of the interaction
lists gathered from *all* trees.  The result agrees with the
single-tree solver — asserted by tests — while
:meth:`last_balance_report` quantifies the threading win: max/mean
block size (build balance) and per-block kernel work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.shortrange.batch import (
    DEFAULT_CHUNK_PAIRS,
    BatchedPairEngine,
    pack_forest,
)
from repro.shortrange.kernel import ShortRangeKernel
from repro.shortrange.rcb_tree import RCBTree
from repro.shortrange.solvers import ShortRangeSolver

__all__ = ["MultiTreeShortRange", "rcb_blocks"]


def rcb_blocks(
    positions: np.ndarray,
    masses: np.ndarray,
    n_blocks: int,
) -> list[np.ndarray]:
    """Partition indices into ``n_blocks`` near-equal-count spatial blocks.

    Recursive coordinate bisection at the *median* perpendicular to the
    longest side — median rather than center-of-mass so every block gets
    an equal particle share (the load-balance objective), unlike the
    force tree where geometric splits aid accuracy.
    """
    if n_blocks < 1:
        raise ValueError(f"n_blocks must be >= 1: {n_blocks}")
    if n_blocks & (n_blocks - 1):
        raise ValueError(f"n_blocks must be a power of two: {n_blocks}")
    idx = np.arange(positions.shape[0], dtype=np.int64)
    blocks = [idx]
    while len(blocks) < n_blocks:
        nxt: list[np.ndarray] = []
        for b in blocks:
            if b.size <= 1:
                nxt.append(b)
                nxt.append(np.empty(0, dtype=np.int64))
                continue
            pts = positions[b]
            axis = int(np.argmax(pts.max(axis=0) - pts.min(axis=0)))
            order = np.argsort(pts[:, axis], kind="stable")
            half = b.size // 2
            nxt.append(b[order[:half]])
            nxt.append(b[order[half:]])
        blocks = nxt
    return blocks


@dataclass
class _BlockReport:
    n_particles: int
    n_leaves: int
    interactions: int


class MultiTreeShortRange(ShortRangeSolver):
    """Short-range solver with ``n_trees`` independent RCB trees.

    Parameters
    ----------
    kernel:
        Fitted short-range kernel.
    leaf_size:
        Fat-leaf capacity per tree.
    n_trees:
        Number of trees (power of two; 1 reduces to the single-tree
        path).
    chunk_pairs:
        Pair-block size of the batched engine.

    Every tree is concatenated into one combined index space, all
    cross-tree interaction lists are packed into a single
    :class:`~repro.shortrange.batch.InteractionBatch`, and the batched
    engine evaluates it.
    """

    def __init__(
        self,
        kernel: ShortRangeKernel,
        leaf_size: int = 128,
        n_trees: int = 4,
        chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
    ) -> None:
        super().__init__(kernel)
        if leaf_size < 1:
            raise ValueError(f"leaf_size must be >= 1: {leaf_size}")
        if n_trees < 1 or (n_trees & (n_trees - 1)):
            raise ValueError(
                f"n_trees must be a positive power of two: {n_trees}"
            )
        self.leaf_size = int(leaf_size)
        self.n_trees = int(n_trees)
        self.engine = BatchedPairEngine(kernel, chunk_pairs=chunk_pairs)
        self._report: list[_BlockReport] = []

    # ------------------------------------------------------------------
    def accelerations_cloud(self, positions, masses, n_targets):
        """Pack all trees' cross-tree lists into one batch and evaluate.

        Every tree's particle arrays are concatenated into one combined
        index space, which :func:`~repro.shortrange.batch.pack_forest`
        packs: each leaf's list gathers sources from *all* trees.
        """
        blocks = rcb_blocks(positions, masses, self.n_trees)
        live = [
            (bi, b, RCBTree(positions[b], masses[b], leaf_size=self.leaf_size))
            for bi, b in enumerate(blocks)
            if b.size
        ]
        acc = np.zeros((positions.shape[0], 3), dtype=np.float64)
        self._report = [_BlockReport(0, 0, 0) for _ in blocks]
        if not live:
            self.engine.last_pairs = (0, 0)
            return acc[:n_targets]
        trees = [t for _, _, t in live]
        cat_pos = np.concatenate([t.positions for t in trees], axis=0)
        cat_m = np.concatenate([t.masses for t in trees])
        # combined-index -> caller-index map for the final scatter
        cat_orig = np.concatenate([b[t.perm] for _, b, t in live])
        batch = pack_forest(
            trees, cat_orig < n_targets, cat_pos, self.kernel.rcut
        )
        acc[cat_orig] = self.engine.evaluate(batch, cat_pos, cat_m)

        # per-block balance metrics; a group belongs to the tree that
        # holds its targets
        base = np.cumsum([0] + [t.n_particles for t in trees])
        group_tree = (
            np.searchsorted(
                base, batch.targets[batch.target_offsets[:-1]], side="right"
            )
            - 1
        )
        pair_counts = batch.group_pair_counts()
        for ti, (bi, b, _) in enumerate(live):
            mine = group_tree == ti
            self._report[bi] = _BlockReport(
                n_particles=int(b.size),
                n_leaves=int(np.count_nonzero(mine)),
                interactions=int(pair_counts[mine].sum()),
            )
        return acc[:n_targets]

    # ------------------------------------------------------------------
    def last_balance_report(self) -> dict:
        """Load-balance metrics of the last evaluation.

        ``build_imbalance`` is max/mean block particle count: the factor
        by which the slowest tree build exceeds the average — the
        quantity multiple trees exist to shrink.
        """
        if not self._report:
            raise RuntimeError("no evaluation has run yet")
        counts = np.array([r.n_particles for r in self._report], dtype=float)
        work = np.array([r.interactions for r in self._report], dtype=float)
        mean_c = counts.mean() if counts.size else 0.0
        mean_w = work.mean() if work.size else 0.0
        return {
            "blocks": len(self._report),
            "particles_per_block": counts.tolist(),
            "build_imbalance": float(counts.max() / mean_c) if mean_c else 0.0,
            "work_imbalance": float(work.max() / mean_w) if mean_w else 0.0,
        }
