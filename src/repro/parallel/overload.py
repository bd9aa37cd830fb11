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

from repro.grid.cic import periodic_wrap
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

    A domain is its rank's receive buffer: a row range of the one table
    the exchange routes, actives first (rows ``[:n_active]``), then the
    replicas.

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
        (N,) boolean mask; True for the authoritative copies, which are
        the first ``n_active`` rows.
    n_active:
        Number of active copies.
    """

    rank: int
    positions: np.ndarray
    momenta: np.ndarray
    masses: np.ndarray
    ids: np.ndarray
    active: np.ndarray
    n_active: int

    @property
    def n_total(self) -> int:
        return self.positions.shape[0]

    @property
    def n_passive(self) -> int:
        return self.n_total - self.n_active

    def overload_fraction(self) -> float:
        """Passive/active particle ratio — the memory-overhead measure."""
        act = self.n_active
        return self.n_passive / act if act else float("inf")

    def active_view(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(positions, momenta, masses, ids) of active particles only:
        views of the first ``n_active`` rows."""
        a = slice(self.n_active)
        return self.positions[a], self.momenta[a], self.masses[a], self.ids[a]


class OverloadExchange:
    """Builds and refreshes overloaded domains over a communicator.

    Parameters
    ----------
    decomposition:
        Block geometry of the ranks.
    depth:
        Overload shell depth (Mpc/h); must reach the short-range force
        cutoff.  Once ``refresh`` runs on the driver path, it must also
        cover the distance particles drift between refreshes; while the
        driver redistributes at every evaluation, nothing drifts.
    comm:
        Shared communicator; all particle traffic is recorded under the
        tags ``"overload.distribute"`` / ``"overload.refresh"``.
    backend:
        Kernel backend whose ``route`` builds the receive buffers,
        resolved by ``resolve_backend`` (``None``: C, else numpy); all
        build the same.
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
        pos = periodic_wrap(
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
        return self._exchange(pos, mom, mas, pid, None, tag)

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
        pos, mom, mas, pid = (
            np.concatenate(parts)
            for parts in zip(*(dom.active_view() for dom in domains))
        )
        # sent by the rank that holds it: only crossings are charged
        origin = np.repeat(
            np.array([dom.rank for dom in domains], dtype=np.int64),
            [dom.n_active for dom in domains],
        )
        box = self.decomposition.box_size
        return self._exchange(periodic_wrap(pos, pos.dtype.type(box)), mom,
                              mas, pid, origin, tag)

    # ------------------------------------------------------------------
    def _exchange(self, pos, mom, mas, pid, origin, tag):
        """The all-to-all: the backend routes every copy into one
        destination-major table, its (src, dst) row counts are charged
        as the messages, and each rank's domain is a view of its rows."""
        decomp = self.decomposition
        nr = decomp.n_ranks
        table, cuts = self.backend.route(
            pos, mom, mas, pid, origin, decomp.box_size, decomp.dims,
            self.depth,
        )
        # rows[dst, passive, src]; a message's bytes are its rows' bytes
        rows = np.diff(cuts).reshape(nr, 2, nr)
        row_bytes = sum(a.itemsize * int(np.prod(a.shape[1:])) for a in table)
        self.comm.charge(rows.sum(axis=1).T * row_bytes, tag)
        # each rank's first row, first replica row, and so on
        cuts = cuts[::nr]
        return [
            OverloadedDomain(
                r, *(a[cuts[2 * r]:cuts[2 * r + 2]] for a in table),
                n_active=int(cuts[2 * r + 1] - cuts[2 * r]),
            )
            for r in range(nr)
        ]
