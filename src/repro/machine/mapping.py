"""Rank-to-torus mapping quality for the pencil FFT's communicators.

Section IV.A attributes the pencil FFT's behaviour to transposes that
"only involve a subset of all tasks" with "a reduction in communication
hotspots in the interconnect".  That property is *mapping dependent*: the
row/column communicators of the 2-D rank grid must land on compact torus
neighborhoods, or every subset all-to-all sprays traffic across the
machine.

This module evaluates mappings: given a ``pr x pc`` rank grid and a torus,
it computes the mean hop distance within row and column communicators for

* ``"linear"`` — ranks assigned to nodes in linear order (the naive
  default): rows are contiguous (good), columns are strided (bad);
* ``"blocked"`` — the torus is tiled into ``pr x pc``-shaped blocks so
  both communicator families stay compact — the balanced choice a
  production mapping file implements.

The comm term of :class:`repro.machine.DistributedFFTModel` assumes
subset locality; :meth:`MappingAnalysis.subset_hops` quantifies how much
of it each mapping actually delivers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.parallel.decomposition import balanced_dims
from repro.parallel.topology import TorusTopology

__all__ = ["MappingAnalysis"]


@dataclass(frozen=True)
class MappingAnalysis:
    """Hop-distance analysis of a pencil rank grid on a torus.

    Parameters
    ----------
    pr, pc:
        Rank-grid dimensions (``pr * pc`` ranks total).
    ranks_per_node:
        Ranks packed per node (consecutive ranks share a node).
    torus:
        Target topology; by default a balanced 5-D torus just large
        enough for the ranks.
    """

    pr: int
    pc: int
    ranks_per_node: int = 8
    torus: TorusTopology | None = None

    def __post_init__(self) -> None:
        if self.pr < 1 or self.pc < 1:
            raise ValueError(f"invalid rank grid {self.pr}x{self.pc}")
        if self.ranks_per_node < 1:
            raise ValueError(
                f"ranks_per_node must be >= 1: {self.ranks_per_node}"
            )
        if self.torus is None:
            n_nodes = max(
                1, (self.pr * self.pc + self.ranks_per_node - 1)
                // self.ranks_per_node
            )
            object.__setattr__(
                self, "torus", TorusTopology(balanced_dims(n_nodes, 5))
            )

    @property
    def n_ranks(self) -> int:
        return self.pr * self.pc

    # ------------------------------------------------------------------
    # mappings: rank (i, j) -> node id
    # ------------------------------------------------------------------
    def node_of_rank(self, i: int, j: int, mapping: str) -> int:
        """Node hosting rank-grid coordinate (i, j) under a mapping."""
        if not (0 <= i < self.pr and 0 <= j < self.pc):
            raise ValueError(f"rank coordinate ({i}, {j}) out of grid")
        if mapping == "linear":
            rank = i * self.pc + j
        elif mapping == "blocked":
            # tile the node sequence so that each row block and column
            # block is contiguous: order ranks in pc-major tiles of
            # shape (ranks_per_node-compatible) — here a simple
            # column-within-row-block ordering that keeps both families
            # compact
            tile = max(1, int(round(self.ranks_per_node**0.5)))
            bi, oi = divmod(i, tile)
            bj, oj = divmod(j, tile)
            tiles_per_row = (self.pc + tile - 1) // tile
            tile_id = bi * tiles_per_row + bj
            rank = tile_id * tile * tile + oi * tile + oj
        else:
            raise ValueError(f"unknown mapping {mapping!r}")
        return (rank // self.ranks_per_node) % self.torus.n_nodes

    # ------------------------------------------------------------------
    def subset_hops(self, mapping: str) -> dict:
        """Mean pairwise hop distance within row and column communicators.

        Lower is better: the transpose all-to-alls travel that many links
        per message on average.
        """
        row_hops = []
        for i in range(self.pr):
            nodes = [
                self.node_of_rank(i, j, mapping) for j in range(self.pc)
            ]
            row_hops.append(self._mean_pair_hops(nodes))
        col_hops = []
        for j in range(self.pc):
            nodes = [
                self.node_of_rank(i, j, mapping) for i in range(self.pr)
            ]
            col_hops.append(self._mean_pair_hops(nodes))
        return {
            "row_mean_hops": float(np.mean(row_hops)),
            "col_mean_hops": float(np.mean(col_hops)),
            "worst_family_hops": float(
                max(np.mean(row_hops), np.mean(col_hops))
            ),
            "machine_mean_hops": self.torus.average_hops(),
        }

    def _mean_pair_hops(self, nodes: list[int]) -> float:
        if len(nodes) < 2:
            return 0.0
        total, count = 0.0, 0
        for a_idx in range(len(nodes)):
            for b_idx in range(a_idx + 1, len(nodes)):
                total += self.torus.hops(nodes[a_idx], nodes[b_idx])
                count += 1
        return total / count

    # ------------------------------------------------------------------
    def locality_advantage(self) -> float:
        """Worst-family hops, linear / blocked (> 1 means blocking wins)."""
        linear = self.subset_hops("linear")["worst_family_hops"]
        blocked = self.subset_hops("blocked")["worst_family_hops"]
        if blocked == 0:
            return float("inf") if linear > 0 else 1.0
        return linear / blocked
