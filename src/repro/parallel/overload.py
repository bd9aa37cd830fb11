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
from repro.shortrange.backends import resolve_backend

__all__ = ["OverloadedDomain", "OverloadExchange", "domain_stats"]

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
    backend:
        Kernel backend whose ``route`` cuts the payloads, resolved by
        ``resolve_backend`` (``None``: C, else numpy); all send the same.
    """

    def __init__(
        self,
        decomposition: DomainDecomposition,
        depth: float,
        comm: SimulatedComm | None = None,
        backend=None,
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
        self.backend = resolve_backend(backend)

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

        return self._deliver(self._route(pos, mom, mas, pid), tag, dt)

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
        # charge only the particles that actually cross rank boundaries or
        # land in a remote overload shell; _route does exactly that.
        payloads = self._route(pos, mom, mas, pid, self._origins(domains))
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
        origin: np.ndarray | None = None,
    ) -> list[list]:
        """The (src, dst) payloads for distribute/refresh: slices of the
        backend's routed table (``None`` where empty)."""
        decomp = self.decomposition
        nr = decomp.n_ranks
        table, cuts = self.backend.route(
            pos, mom, mas, pid, origin, decomp.box_size, decomp.dims,
            self.depth,
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
