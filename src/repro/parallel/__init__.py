"""Simulated message-passing substrate and domain decomposition.

The paper runs HACC on up to 1,572,864 MPI ranks.  This subpackage provides
an **in-process rank virtual machine**: rank-local data lives in separate
NumPy arrays, all communication goes through :class:`SimulatedComm`
collectives that move bytes between rank-local buffers and *account for
every message* (count, bytes, phase tag).  Algorithms written against this
interface — the pencil-decomposed FFT, the particle-overloading exchange —
are structurally identical to their MPI versions, and the recorded traffic
feeds the BG/Q network model in :mod:`repro.machine`.
"""

from repro.parallel.comm import CommStats, SimulatedComm
from repro.parallel.decomposition import DomainDecomposition
from repro.parallel.executor import RankExecutor, WorkerError
from repro.parallel.overload import OverloadedDomain, OverloadExchange
from repro.parallel.topology import TorusTopology

__all__ = [
    "SimulatedComm",
    "CommStats",
    "DomainDecomposition",
    "OverloadedDomain",
    "OverloadExchange",
    "RankExecutor",
    "WorkerError",
    "TorusTopology",
]
