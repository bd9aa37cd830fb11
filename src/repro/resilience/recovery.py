"""Rank-loss recovery from particle-overload replicas.

The paper's particle overloading (Sec. II) replicates *complete
particles* — positions, momenta, masses, ids — in a shell of depth ``d``
around every rank domain.  That redundancy, bought for communication
avoidance, is exactly what a resilient code can spend on fault
tolerance: when a rank dies, every one of its particles within ``d`` of
the domain boundary still exists bit-for-bit as a passive replica on a
neighbor.  Recovery is then:

1. harvest, from the surviving domains, all passive replicas whose home
   block is a dead rank (deduplicated by global particle id — corner
   particles are replicated to several neighbors);
2. merge them with the survivors' active particles into a recovered
   global set;
3. redistribute via :meth:`repro.parallel.overload.OverloadExchange.
   distribute` (traffic charged under ``"overload.recover"``), which
   respawns the dead rank's domain with a correctly rebuilt overload
   shell everywhere.

Particles deeper than ``d`` inside the dead domain have no replica
anywhere — they are reported as *lost* in the :class:`RecoveryReport`
and simply drop out of this force evaluation (the driver leaves their
short-range kick at zero; the long-range PM force is global and
unaffected).  A production deployment would re-read them from the last
checkpoint; the chaos suite sizes the overload depth so the lost
fraction is small and asserts the recovered run's power spectrum stays
within the overload tolerance of a fault-free run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.grid.cic import periodic_wrap
from repro.parallel.overload import OverloadedDomain, OverloadExchange

__all__ = ["RecoveryReport", "harvest_replicas", "recover_ranks"]


@dataclass
class RecoveryReport:
    """Outcome of one rank-recovery episode.

    ``n_recovered``/``n_lost`` count the dead ranks' *active* particles
    that were (not) reconstructible from surviving replicas;
    ``recovered_by_rank`` breaks the recovered count down per dead rank.
    """

    dead_ranks: tuple[int, ...]
    n_recovered: int
    n_lost: int
    recovered_by_rank: dict[int, int] = field(default_factory=dict)
    lost_ids: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )

    @property
    def n_expected(self) -> int:
        return self.n_recovered + self.n_lost

    def coverage(self) -> float:
        """Recovered fraction of the dead ranks' active particles."""
        total = self.n_expected
        return self.n_recovered / total if total else 1.0

    def to_dict(self) -> dict:
        return {
            "dead_ranks": list(self.dead_ranks),
            "n_recovered": self.n_recovered,
            "n_lost": self.n_lost,
            "coverage": self.coverage(),
            "recovered_by_rank": dict(self.recovered_by_rank),
        }


def harvest_replicas(
    survivors: list[OverloadedDomain],
    dead_ranks: frozenset[int] | set[int],
    exchange: OverloadExchange,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Collect deduplicated replicas of the dead ranks' particles.

    Returns ``(positions, momenta, masses, ids, home_ranks)`` of every
    particle whose home block belongs to a dead rank and which survives
    as a passive replica on at least one surviving domain.  Positions
    are wrapped back into the primary box (replicas near a periodic seam
    are stored in the neighbor's unwrapped frame).
    """
    decomp = exchange.decomposition
    box = decomp.box_size
    pos_parts, mom_parts, mas_parts, id_parts = [], [], [], []
    for dom in survivors:
        passive = slice(dom.n_active, None)
        pos = periodic_wrap(dom.positions[passive], box)
        home = decomp.assign(pos)
        # an empty take still adds a part: it carries the rows' dtypes
        take = np.isin(home, list(dead_ranks))
        pos_parts.append(pos[take])
        mom_parts.append(dom.momenta[passive][take])
        mas_parts.append(dom.masses[passive][take])
        id_parts.append(dom.ids[passive][take])
    if not pos_parts:
        empty3 = np.empty((0, 3))
        return (
            empty3,
            empty3.copy(),
            np.empty(0),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    pos = np.concatenate(pos_parts, axis=0)
    mom = np.concatenate(mom_parts, axis=0)
    mas = np.concatenate(mas_parts)
    pid = np.concatenate(id_parts)
    # corner/edge particles live on several neighbors: keep one copy each
    _, first = np.unique(pid, return_index=True)
    pos, mom, mas, pid = pos[first], mom[first], mas[first], pid[first]
    return pos, mom, mas, pid, exchange.decomposition.assign(pos)


def recover_ranks(
    exchange: OverloadExchange,
    domains: list[OverloadedDomain],
    dead_ranks: frozenset[int] | set[int],
    tag: str = "overload.recover",
) -> tuple[list[OverloadedDomain], RecoveryReport]:
    """Rebuild a domain set after losing ``dead_ranks``.

    ``domains`` is the *pre-death* domain list (the driver still holds
    it when the death is injected); the dead entries are used only to
    measure what should have been recovered — the reconstruction itself
    touches survivor data exclusively.  Returns the recovered domain
    list (every rank present again, overload shells rebuilt) and a
    :class:`RecoveryReport`.
    """
    dead_ranks = frozenset(int(r) for r in dead_ranks)
    if not dead_ranks:
        return domains, RecoveryReport((), 0, 0)
    known = {dom.rank for dom in domains}
    missing = dead_ranks - known
    if missing:
        raise ValueError(
            f"dead ranks {sorted(missing)} not present in the domain set"
        )
    survivors = [d for d in domains if d.rank not in dead_ranks]
    dead_doms = [d for d in domains if d.rank in dead_ranks]

    r_pos, r_mom, r_mas, r_pid, r_home = harvest_replicas(
        survivors, dead_ranks, exchange
    )

    # what the dead ranks owned, for loss accounting only
    expected_ids = (
        np.concatenate([d.ids[:d.n_active] for d in dead_doms])
        if dead_doms
        else np.empty(0, dtype=np.int64)
    )
    lost_ids = np.setdiff1d(expected_ids, r_pid)
    recovered_by_rank = {
        int(r): int(np.count_nonzero(r_home == r)) for r in sorted(dead_ranks)
    }

    new_domains = exchange.distribute(
        *(np.concatenate(parts) for parts in zip(
            (r_pos, r_mom, r_mas, r_pid),
            *(d.active_view() for d in survivors),
        )),
        tag=tag,
    )
    report = RecoveryReport(
        dead_ranks=tuple(sorted(dead_ranks)),
        n_recovered=int(r_pid.size),
        n_lost=int(lost_ids.size),
        recovered_by_rank=recovered_by_rank,
        lost_ids=lost_ids,
    )
    return new_domains, report
