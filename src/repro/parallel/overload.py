"""Particle overloading: full replication across domain boundaries.

Instead of the thin guard zones of a conventional PM code, HACC replicates
*complete particles* in a shell of depth ``d`` around every rank domain
(Fig. 4 of the paper).  Particles inside the domain are **active** — their
mass is deposited in the Poisson solve and they are the rank's
authoritative copies; replicas in the boundary shell are **passive** —
they are moved by interpolated forces and serve as short-range force
sources, and they are refreshed only sparsely.  The payoff is that the
short-range solver becomes entirely rank-local (no communication during
sub-cycles), which is the architectural point of the paper.

This module implements the scheme over the simulated communicator:

* :meth:`OverloadExchange.distribute` — initial decomposition of a global
  particle set into per-rank overloaded domains;
* :meth:`OverloadExchange.refresh` — the sparse overload-zone refresh,
  migrating particles whose roles changed and rebuilding replicas;
* role bookkeeping (active masks, global ids) with conservation
  invariants the property tests check.

Passive copies near a periodic face carry *unwrapped* coordinates (shifted
by ±box) so each rank sees a geometrically contiguous particle cloud.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.parallel.comm import SimulatedComm
from repro.parallel.decomposition import DomainDecomposition

__all__ = ["OverloadedDomain", "OverloadExchange", "domain_stats"]

# the 26 neighbor offsets, in ``ox, oy, oz`` loop order
_OFFSETS = np.array(
    [
        (ox, oy, oz)
        for ox in (-1, 0, 1)
        for oy in (-1, 0, 1)
        for oz in (-1, 0, 1)
        if (ox, oy, oz) != (0, 0, 0)
    ],
    dtype=np.int64,
)


def domain_stats(domains: list["OverloadedDomain"]) -> dict:
    """Per-rank load summary of a set of overloaded domains.

    ``active`` / ``passive`` counts and ghost (overload) fraction keyed
    by rank, plus the paper-style ``max/mean`` imbalance factor of the
    active counts.  The run's telemetry gauges do not come from here
    (the driver charges them per domain); the end-to-end benchmark's
    ``parallel.domain_imbalance`` does.
    """
    active = {dom.rank: dom.n_active for dom in domains}
    counts = list(active.values())
    mean = sum(counts) / len(counts) if counts else 0.0
    return {
        "active": active,
        "passive": {dom.rank: dom.n_passive for dom in domains},
        "ghost_fraction": {
            dom.rank: dom.overload_fraction() for dom in domains
        },
        "imbalance": (max(counts) / mean) if mean else 0.0,
    }


@dataclass
class OverloadedDomain:
    """Per-rank particle storage in structure-of-arrays layout.

    Attributes
    ----------
    rank:
        Owning rank id.
    positions, momenta:
        (N, 3) arrays covering active + passive particles.  Positions of
        passive replicas may lie outside [0, box) — they are expressed in
        the rank's contiguous local frame.
    masses:
        (N,) particle masses.
    ids:
        (N,) global particle ids (replicas share the id of their active
        original).
    active:
        (N,) boolean mask; True for the authoritative copies.
    """

    rank: int
    positions: np.ndarray
    momenta: np.ndarray
    masses: np.ndarray
    ids: np.ndarray
    active: np.ndarray

    @property
    def n_total(self) -> int:
        return self.positions.shape[0]

    @property
    def n_active(self) -> int:
        return int(np.count_nonzero(self.active))

    @property
    def n_passive(self) -> int:
        return self.n_total - self.n_active

    def overload_fraction(self) -> float:
        """Passive/active particle ratio — the memory-overhead measure."""
        act = self.n_active
        return self.n_passive / act if act else float("inf")

    def active_view(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(positions, momenta, masses, ids) of active particles only."""
        m = self.active
        return (
            self.positions[m],
            self.momenta[m],
            self.masses[m],
            self.ids[m],
        )


class OverloadExchange:
    """Builds and refreshes overloaded domains over a communicator.

    Parameters
    ----------
    decomposition:
        Block geometry of the ranks.
    depth:
        Overload shell depth (Mpc/h); must exceed the short-range force
        cutoff plus the distance particles can drift between refreshes.
    comm:
        Shared communicator; all particle traffic is recorded under the
        tags ``"overload.distribute"`` / ``"overload.refresh"``.
    """

    def __init__(
        self,
        decomposition: DomainDecomposition,
        depth: float,
        comm: SimulatedComm | None = None,
    ) -> None:
        if depth < 0:
            raise ValueError(f"overload depth must be >= 0, got {depth}")
        for w in decomposition.widths:
            if 2 * depth >= w:
                raise ValueError(
                    f"overload depth {depth} must be < half the domain width {w}"
                )
        self.decomposition = decomposition
        self.depth = float(depth)
        self.comm = (
            comm if comm is not None else SimulatedComm(decomposition.n_ranks)
        )
        if self.comm.size != decomposition.n_ranks:
            raise ValueError(
                f"communicator size {self.comm.size} != "
                f"{decomposition.n_ranks} ranks"
            )

    # ------------------------------------------------------------------
    def distribute(
        self,
        positions: np.ndarray,
        momenta: np.ndarray,
        masses: np.ndarray | None = None,
        ids: np.ndarray | None = None,
        tag: str = "overload.distribute",
    ) -> list[OverloadedDomain]:
        """Scatter a global particle set into overloaded per-rank domains.

        The paper's initial-condition path: every particle becomes active
        on exactly one rank and passive on every rank whose overload shell
        contains it.
        """
        # float32 state stays float32 across the scatter (mixed precision)
        dt = np.asarray(positions).dtype
        if dt not in (np.float32, np.float64):
            dt = np.dtype(np.float64)
        pos = np.mod(
            np.asarray(positions, dtype=dt),
            dt.type(self.decomposition.box_size),
        )
        mom = np.asarray(momenta, dtype=dt)
        n = pos.shape[0]
        if mom.shape != pos.shape:
            raise ValueError(
                f"momenta shape {mom.shape} != positions shape {pos.shape}"
            )
        mas = (
            np.ones(n, dtype=dt)
            if masses is None
            else np.asarray(masses, dtype=dt)
        )
        pid = (
            np.arange(n, dtype=np.int64)
            if ids is None
            else np.asarray(ids, dtype=np.int64)
        )

        home = self.decomposition.assign(pos)
        return self._deliver(self._route(pos, mom, mas, pid, home), tag, dt)

    def refresh(
        self,
        domains: list[OverloadedDomain],
        tag: str = "overload.refresh",
    ) -> list[OverloadedDomain]:
        """Rebuild the overload zones from current particle positions.

        Active particles that drifted out of their domain migrate (switch
        roles with the neighboring rank's passive copy — Fig. 4's
        "particles switch roles as they cross domain boundaries"); all
        passive replicas are discarded and regenerated.  Between refreshes
        no particle communication happens at all.
        """
        box = self.decomposition.box_size
        pos_parts, mom_parts, mas_parts, id_parts = [], [], [], []
        for dom in domains:
            p, v, m, i = dom.active_view()
            pos_parts.append(np.mod(p, box))
            mom_parts.append(v)
            mas_parts.append(m)
            id_parts.append(i)
        pos = np.concatenate(pos_parts, axis=0)
        mom = np.concatenate(mom_parts, axis=0)
        mas = np.concatenate(mas_parts)
        pid = np.concatenate(id_parts)
        home = self.decomposition.assign(pos)
        # charge only the particles that actually cross rank boundaries or
        # land in a remote overload shell; _route does exactly that.
        payloads = self._route(
            pos, mom, mas, pid, home, origin=self._origins(domains)
        )
        return self._deliver(payloads, tag, pos.dtype)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _origins(self, domains: list[OverloadedDomain]) -> np.ndarray:
        """Rank that currently owns each active particle, in refresh order."""
        return np.concatenate(
            [np.full(dom.n_active, dom.rank, dtype=np.int64) for dom in domains]
        )

    def _route(
        self,
        pos: np.ndarray,
        mom: np.ndarray,
        mas: np.ndarray,
        pid: np.ndarray,
        home: np.ndarray,
        origin: np.ndarray | None = None,
    ) -> list[list]:
        """Compute the (src, dst) payloads for distribute/refresh.

        One table lists every copy: each particle's active copy (bound for
        its home rank), then, for each of the 26 neighbor offsets in
        ``ox, oy, oz`` order, every particle within ``depth`` of that
        face/edge/corner of its home domain as a passive replica, shifted
        by +-box where the offset crosses the periodic seam.  One stable
        sort by ``src * n_ranks + dst`` cuts the table into payloads, so
        each payload holds its actives in index order, then its passives
        offset by offset, each in index order.  ``None`` marks an empty
        payload.
        """
        decomp = self.decomposition
        box = decomp.box_size
        dims = np.asarray(decomp.dims)
        widths = np.asarray(decomp.widths)
        d = self.depth
        nr = decomp.n_ranks
        n = len(pos)

        cell = np.floor(pos / box * dims).astype(np.int64)
        np.clip(cell, 0, dims - 1, out=cell)
        rel_lo = pos - cell * widths   # distance to low faces
        rel_hi = widths - rel_lo       # distance to high faces
        # near[o + 1, i, axis]: particle i lies in the shell of offset o
        near = np.stack([rel_lo < d, np.ones((n, 3), dtype=bool), rel_hi < d])
        k, sel = np.nonzero(
            near[_OFFSETS[:, 0] + 1, :, 0]
            & near[_OFFSETS[:, 1] + 1, :, 1]
            & near[_OFFSETS[:, 2] + 1, :, 2]
        )
        nbr_cell = cell[sel] + _OFFSETS[k]
        # replica coordinates in the *neighbor's* frame: shift by +-box
        # when the offset crosses the periodic seam.
        wraps = np.zeros(nbr_cell.shape, dtype=pos.dtype)
        wraps[nbr_cell < 0] = box
        wraps[nbr_cell >= dims] = -box

        idx = np.concatenate([np.arange(n), sel])
        dst = np.concatenate([home, decomp.rank_of_cells(nbr_cell)])
        key = (origin if origin is not None else home)[idx] * nr + dst
        # a key narrowed to 8 or 16 bits takes numpy's radix sort
        order = np.argsort(key.astype(np.min_scalar_type(nr * nr)), kind="stable")
        cuts = np.searchsorted(key[order], np.arange(nr * nr + 1))
        gid = idx[order]
        table = (
            np.concatenate([pos, pos[sel] + wraps], axis=0)[order],
            mom[gid],
            mas[gid],
            pid[gid],
            order < n,
        )
        payloads: list[list] = [[None] * nr for _ in range(nr)]
        for b in np.flatnonzero(np.diff(cuts)):
            lo, hi = cuts[b], cuts[b + 1]
            payloads[b // nr][b % nr] = tuple(a[lo:hi] for a in table)
        return payloads

    def _deliver(
        self, payloads: list[list], tag: str, dtype
    ) -> list[OverloadedDomain]:
        recv = self.comm.alltoallv(payloads, tag=tag)
        return [
            self._assemble(recv[r], r, dtype)
            for r in range(self.decomposition.n_ranks)
        ]

    @staticmethod
    def _assemble(received: list, rank: int, dtype) -> OverloadedDomain:
        """Concatenate one rank's received fragments, in source order."""
        parts = [p for p in received if p is not None]
        if parts:
            pos = np.concatenate([p[0] for p in parts], axis=0)
            mom = np.concatenate([p[1] for p in parts], axis=0)
            mas = np.concatenate([p[2] for p in parts])
            pid = np.concatenate([p[3] for p in parts])
            act = np.concatenate([p[4] for p in parts])
        else:
            pos = np.empty((0, 3), dtype=dtype)
            mom = np.empty((0, 3), dtype=dtype)
            mas = np.empty(0, dtype=dtype)
            pid = np.empty(0, dtype=np.int64)
            act = np.empty(0, dtype=bool)
        return OverloadedDomain(
            rank=rank,
            positions=pos,
            momenta=mom,
            masses=mas,
            ids=pid,
            active=act,
        )
