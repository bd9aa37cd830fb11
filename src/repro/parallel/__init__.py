"""Simulated message-passing substrate and domain decomposition.

The paper runs HACC on up to 1,572,864 MPI ranks.  This subpackage provides
an **in-process rank virtual machine**: rank-local data lives in separate
NumPy arrays, and :class:`SimulatedComm` *accounts for every message*
(count, bytes, phase tag): its collectives move bytes between rank-local
buffers, and the overload exchange's route fills every rank's receive
buffer itself and charges the messages there.  Algorithms written against this
interface — the pencil-decomposed FFT, the particle-overloading exchange —
are structurally identical to their MPI versions, and the recorded traffic
feeds the BG/Q network model in :mod:`repro.machine`.

This ``__init__`` resolves its exports lazily
(:func:`repro._lazy.lazy_exports`): an undecomposed run imports only the
executor, never the communicator, decomposition or overload exchange.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "comm": ("CommStats", "SimulatedComm"),
    "decomposition": ("DomainDecomposition",),
    "executor": ("RankExecutor", "WorkerError"),
    "overload": ("OverloadedDomain", "OverloadExchange"),
    "topology": ("TorusTopology",),
})
